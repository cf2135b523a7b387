"""Nested spans recorded from outside the program under test.

The benchmark attributes wall time to layers without editing the library:
:func:`install` swaps named callables (module functions as bound where
their caller looks them up, or class methods) for wrappers that open a
span around each call, and puts the originals back afterwards.  Spans nest
on a per-thread stack, so a layer's *self* time is its span minus the
spans it caused, and a thread's wall time splits exactly into the self
times of its spans plus the time no span covered.

Spans stay in memory until the run ends; :func:`chrome_trace` turns them
into Chrome trace-event JSON that Perfetto or ``chrome://tracing`` opens.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    name: str
    thread: int
    start: float
    end: float
    self_time: float
    depth: int

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """A callable to wrap: ``module[.owner].attr``, recorded as ``span``."""

    module: str
    owner: str | None
    attr: str
    span: str


class Tracer:
    """Collects spans; ``enabled=False`` makes :meth:`span` a no-op."""

    def __init__(self, clock=time.perf_counter, enabled: bool = True):
        self.clock = clock
        self.enabled = enabled
        self.spans: list[Span] = []
        #: span name -> start of the most recently closed span of that name
        self.last_start: dict[str, float] = {}
        self._local = threading.local()

    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, name: str, start: float, frame: list[float],
               stack: list[list[float]]) -> None:
        end = self.clock()
        stack.pop()
        duration = end - start
        if stack:
            stack[-1][0] += duration
        self.spans.append(Span(name, threading.get_ident(), start, end,
                               duration - frame[0], len(stack)))
        self.last_start[name] = start

    def wrap(self, fn, name: str):
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            frame = [0.0]
            stack.append(frame)
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, start, frame, stack)

        return wrapper

    def span(self, name: str):
        """Context manager recording its body as a span (if enabled)."""
        if not self.enabled:
            return nullcontext()
        return _SpanContext(self, name)


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self):
        self._stack = self._tracer._stack()
        self._frame = [0.0]
        self._stack.append(self._frame)
        self._start = self._tracer.clock()

    def __exit__(self, *exc):
        self._tracer._close(self._name, self._start, self._frame, self._stack)


def install(tracer: Tracer, targets) -> tuple[list, list[str]]:
    """Wrap every target that exists; returns ``(undo, absent)``.

    A target whose module, owner or attribute no longer exists is listed
    in ``absent`` (as ``module:owner.attr``) instead of raising, so the
    benchmark keeps running when a later change deletes a per-flow path.
    Pass ``undo`` to :func:`uninstall` to restore the originals.
    """
    undo = []
    absent = []
    for target in targets:
        where = ".".join(p for p in (target.owner, target.attr) if p)
        try:
            obj = importlib.import_module(target.module)
        except ImportError:
            absent.append(f"{target.module}:{where}")
            continue
        if target.owner is not None:
            obj = vars(obj).get(target.owner)
        original = vars(obj).get(target.attr) if obj is not None else None
        if not callable(original):
            absent.append(f"{target.module}:{where}")
            continue
        setattr(obj, target.attr, tracer.wrap(original, target.span))
        undo.append((obj, target.attr, original))
    return undo, absent


def uninstall(undo) -> None:
    for obj, attr, original in reversed(undo):
        setattr(obj, attr, original)


def layer_table(spans, start: float, end: float) -> dict[str, dict]:
    """Per-name calls, total and self seconds of spans inside a window."""
    table: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for s in spans:
        if s.start >= start and s.end <= end:
            row = table[s.name]
            row["calls"] += 1
            row["total_s"] += s.duration
            row["self_s"] += s.self_time
    return dict(table)


def unattributed(spans, thread: int, start: float, end: float) -> float:
    """Wall time of ``thread`` in the window that no top-level span covers."""
    covered = sum(
        s.duration for s in spans
        if s.thread == thread and s.depth == 0
        and s.start >= start and s.end <= end
    )
    return (end - start) - covered


def chrome_trace(spans, origin: float) -> dict:
    """Chrome trace-event JSON (complete events, microseconds)."""
    threads = {t: i for i, t in enumerate(dict.fromkeys(s.thread
                                                       for s in spans))}
    return {
        "displayTimeUnit": "ms",
        "traceEvents": [
            {
                "name": s.name,
                "cat": s.name.rsplit(".", 1)[0],
                "ph": "X",
                "ts": (s.start - origin) * 1e6,
                "dur": s.duration * 1e6,
                "pid": 1,
                "tid": threads[s.thread],
            }
            for s in spans
        ],
    }
