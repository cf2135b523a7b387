"""Batched generation service: async request queue + coalesced dispatch.

The serving tier's contract is the paper's §4 speed challenge turned
into an operational property: many concurrent consumers ask for small
batches of flows, and the server must amortise the denoiser across them
without changing a single output byte.  Three pieces make that hold:

* **Per-request RNG streams.**  Every request's noise comes from
  ``request_rng(server_seed, request_id)`` — a stream derived from the
  *request identity*, never from arrival order, batch composition or
  worker assignment.  Any admission order yields byte-identical
  per-request flows.
* **Micro-batching.**  A single dispatcher thread drains the bounded
  request queue, groups compatible requests (same model / class /
  sampling options) and serves each group with one
  :meth:`~repro.core.pipeline.TextToTrafficPipeline.generate_coalesced`
  call — one fused denoiser forward per DDIM step for the whole group.
  ``max_batch_flows`` bounds the fused width; ``max_wait`` bounds how
  long the first request in a batch waits for company.
* **Backpressure.**  The queue is bounded: :meth:`GenerationService.submit`
  raises :class:`ServiceOverloaded` when it is full (the HTTP tier maps
  this to 429), and per-request deadlines expire queued work that waited
  too long (504).

Shutdown is graceful by default: ``shutdown(drain=True)`` stops
admission, serves everything already queued, then stops the dispatcher.
"""

from __future__ import annotations

import itertools
import math
import queue
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass

import numpy as np

from repro import perf

#: RNG stream salt for the serving tier.  Distinct from the sharded
#: generation salt (0x5EED5EED) so a served request can never collide
#: with a shard stream.  Every served byte derives from it, so its
#: output is pinned by a golden value in tests/test_serve.py.
SERVE_SALT = 0x5E57E5

#: bucket bounds for the batch-size histograms (requests / flows per batch)
BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


def request_rng(server_seed: int, request_id: int) -> np.random.Generator:
    """The RNG stream serving request ``request_id``.

    Derived from ``(server_seed, SERVE_SALT, request_id)`` only — two
    servers with the same seed serve identical bytes for the same
    request id, regardless of load, batching or admission order.
    """
    return np.random.default_rng(
        [int(server_seed), SERVE_SALT, int(request_id)]
    )


class ServiceOverloaded(RuntimeError):
    """The bounded request queue is full (HTTP 429)."""


class ServiceClosed(RuntimeError):
    """The service is draining or shut down (HTTP 503)."""


class RequestExpired(TimeoutError):
    """The request's deadline passed while it waited in the queue (504)."""


@dataclass(frozen=True)
class GenerateRequest:
    """One generation request.

    ``request_id`` is the determinism key: it alone (with the server
    seed) selects the RNG stream.  Re-submitting the same id always
    reproduces the same flows.
    """

    request_id: int
    class_name: str
    count: int
    model: str | None = None
    steps: int | None = None
    guidance_weight: float | None = None
    use_control: bool = True
    hard_guidance: bool = True

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.steps is not None and self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.guidance_weight is not None and not (
            math.isfinite(self.guidance_weight) and self.guidance_weight >= 0
        ):
            raise ValueError("guidance_weight must be finite and >= 0")

    def group_key(self) -> tuple:
        """Requests with equal keys may share one coalesced forward."""
        return (
            self.model,
            self.class_name,
            self.steps,
            self.guidance_weight,
            self.use_control,
            self.hard_guidance,
        )


@dataclass
class _Entry:
    request: GenerateRequest
    future: Future
    enqueued: float
    deadline: float | None


class GenerationService:
    """Async queue + micro-batched dispatch over a fitted pipeline.

    Exactly one of ``pipeline`` / ``store`` model resolution paths must
    be able to serve a request: a direct ``pipeline`` handles requests
    with ``model=None``; a ``store`` resolves ``model`` digests (with
    ``default_model`` standing in for ``model=None``).
    """

    def __init__(
        self,
        pipeline=None,
        store=None,
        default_model: str | None = None,
        server_seed: int = 0,
        max_batch_flows: int = 256,
        max_wait: float = 0.02,
        max_queue: int = 64,
        default_timeout: float | None = None,
        dtype=None,
        autostart: bool = True,
    ) -> None:
        if pipeline is None and store is None:
            raise ValueError("need a pipeline or a model store")
        if max_batch_flows < 1:
            raise ValueError("max_batch_flows must be >= 1")
        self._pipeline = pipeline
        self._store = store
        self._default_model = default_model
        self.server_seed = int(server_seed)
        self.max_batch_flows = int(max_batch_flows)
        self.max_wait = float(max_wait)
        self.default_timeout = default_timeout
        self.dtype = dtype
        self._queue: queue.Queue[_Entry] = queue.Queue(maxsize=max_queue)
        self._deferred: deque[_Entry] = deque()
        self._closed = False
        self._stop = threading.Event()
        self._ids = itertools.count()
        self._thread: threading.Thread | None = None
        if autostart:
            self.start()

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        """Start the dispatcher thread (idempotent)."""
        if self._thread is None or not self._thread.is_alive():
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._loop, name="repro-serve-dispatch", daemon=True
            )
            self._thread.start()

    def begin_drain(self) -> None:
        """Stop admitting requests; keep serving what is already queued."""
        self._closed = True

    @property
    def draining(self) -> bool:
        return self._closed

    def shutdown(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the service.

        ``drain=True`` serves every queued request first; ``drain=False``
        fails queued requests with :class:`ServiceClosed`.
        """
        self._closed = True
        if not drain:
            self._abandon()
        self._stop.set()
        thread = self._thread
        if thread is not None and thread.is_alive():
            thread.join(timeout=timeout)
        if not drain:
            self._abandon()

    def _abandon(self) -> None:
        while True:
            try:
                entry = self._queue.get_nowait()
            except queue.Empty:
                break
            self._fail(entry, ServiceClosed("service shut down"))
        while self._deferred:
            self._fail(self._deferred.popleft(),
                       ServiceClosed("service shut down"))

    # -- readiness ----------------------------------------------------------
    @property
    def ready(self) -> bool:
        """Can this service resolve a default (``model=None``) request?"""
        if self._closed:
            return False
        if self._pipeline is not None:
            return True
        if self._store is not None and self._default_model is not None:
            return self._default_model in self._store
        return False

    def pending(self) -> int:
        """Requests admitted but not yet dispatched."""
        return self._queue.qsize() + len(self._deferred)

    def next_request_id(self) -> int:
        """A server-assigned request id (for clients that don't care
        about replayability; explicit ids are the determinism contract)."""
        return next(self._ids)

    # -- admission ----------------------------------------------------------
    def submit(
        self, request: GenerateRequest, timeout: float | None = None
    ) -> Future:
        """Queue a request; the future resolves to a ``GenerationResult``.

        Raises :class:`ValueError` for a request wider than
        ``max_batch_flows`` (one request is never split across sampler
        batches), :class:`ServiceClosed` when draining and
        :class:`ServiceOverloaded` when the bounded queue is full.
        ``timeout`` (or ``default_timeout``) is the queue-wait deadline.
        """
        if request.count > self.max_batch_flows:
            raise ValueError(
                f"count {request.count} exceeds max_batch_flows "
                f"{self.max_batch_flows}"
            )
        if self._closed:
            perf.incr("serve.rejected_closed")
            raise ServiceClosed("service is draining")
        if timeout is None:
            timeout = self.default_timeout
        now = time.monotonic()
        entry = _Entry(
            request=request,
            future=Future(),
            enqueued=now,
            deadline=None if timeout is None else now + timeout,
        )
        try:
            self._queue.put_nowait(entry)
        except queue.Full:
            perf.incr("serve.rejected")
            raise ServiceOverloaded(
                f"request queue full ({self._queue.maxsize})"
            ) from None
        perf.incr("serve.requests")
        return entry.future

    def generate(
        self, request: GenerateRequest, timeout: float | None = None
    ):
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(request, timeout=timeout).result()

    # -- dispatch -----------------------------------------------------------
    def _loop(self) -> None:
        while True:
            batch = self._collect_batch()
            if batch:
                self._execute(batch)
                continue
            if self._stop.is_set() and self._queue.empty() \
                    and not self._deferred:
                return

    def _take(self, entry: _Entry) -> bool:
        """Admission check at dispatch time: drop expired entries."""
        if entry.deadline is not None and time.monotonic() > entry.deadline:
            perf.incr("serve.expired")
            self._fail(entry, RequestExpired(
                f"request {entry.request.request_id} expired in queue"))
            return False
        return True

    def _fail(self, entry: _Entry, exc: BaseException) -> None:
        if entry.future.set_running_or_notify_cancel():
            entry.future.set_exception(exc)

    def _collect_batch(self) -> list[_Entry]:
        """One compatible group: first request + up to ``max_wait`` of
        company, bounded by ``max_batch_flows``."""
        first = None
        while first is None:
            if self._deferred:
                first = self._deferred.popleft()
            else:
                try:
                    first = self._queue.get(timeout=0.05)
                except queue.Empty:
                    return []
            if not self._take(first):
                first = None
        key = first.request.group_key()
        batch = [first]
        flows = first.request.count
        # Compatible requests parked by an earlier round join first.
        still_deferred: deque[_Entry] = deque()
        while self._deferred and flows < self.max_batch_flows:
            entry = self._deferred.popleft()
            if not self._take(entry):
                continue
            if entry.request.group_key() == key \
                    and flows + entry.request.count <= self.max_batch_flows:
                batch.append(entry)
                flows += entry.request.count
            else:
                still_deferred.append(entry)
        still_deferred.extend(self._deferred)
        self._deferred = still_deferred
        # Then wait (briefly) for new arrivals to coalesce.  The wait is
        # sliced: once the queue goes quiet for a grace interval the
        # batch dispatches immediately — when every client is already
        # blocked on an admitted request, waiting out the full window
        # would only add latency without ever adding company.
        deadline = time.monotonic() + self.max_wait
        grace = max(self.max_wait / 8.0, 0.001)
        while flows < self.max_batch_flows:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            try:
                entry = self._queue.get(timeout=min(remaining, grace))
            except queue.Empty:
                break
            if not self._take(entry):
                continue
            if entry.request.group_key() == key \
                    and flows + entry.request.count <= self.max_batch_flows:
                batch.append(entry)
                flows += entry.request.count
            else:
                self._deferred.append(entry)
        return batch

    def _resolve(self, model: str | None):
        if model is None:
            if self._pipeline is not None:
                return self._pipeline
            model = self._default_model
            if model is None:
                raise ValueError(
                    "request has no model and the service has no default"
                )
        if self._store is None:
            raise ValueError(
                f"request names model {model!r} but the service has no store"
            )
        return self._store.get(model)

    def _execute(self, batch: list[_Entry]) -> None:
        live = [e for e in batch if e.future.set_running_or_notify_cancel()]
        cancelled = len(batch) - len(live)
        if cancelled:
            perf.incr("serve.cancelled", cancelled)
        if not live:
            return
        req0 = live[0].request
        flows = sum(e.request.count for e in live)
        perf.incr("serve.batches")
        perf.incr("serve.batched_requests", len(live))
        perf.incr("serve.batched_flows", flows)
        perf.observe("serve.batch_requests", len(live),
                     buckets=BATCH_BUCKETS)
        perf.observe("serve.batch_flows", flows, buckets=BATCH_BUCKETS)
        try:
            pipeline = self._resolve(req0.model)
            parts = [
                (e.request.count,
                 request_rng(self.server_seed, e.request.request_id))
                for e in live
            ]
            with perf.timer("serve.execute"):
                results = pipeline.generate_coalesced(
                    req0.class_name,
                    parts,
                    steps=req0.steps,
                    use_control=req0.use_control,
                    hard_guidance=req0.hard_guidance,
                    guidance_weight=req0.guidance_weight,
                    dtype=self.dtype,
                )
        except BaseException as exc:  # noqa: BLE001 - relayed to callers
            perf.incr("serve.errors", len(live))
            for e in live:
                e.future.set_exception(exc)
            return
        now = time.monotonic()
        for e, result in zip(live, results):
            perf.observe("serve.request_latency_seconds", now - e.enqueued)
            perf.incr("serve.completed")
            e.future.set_result(result)
