"""Pluggable matmul backends for the nn compute tier.

Every trainable model in this repository funnels its GEMMs through
:meth:`Tensor.__matmul__` (and the compiled plans in
:mod:`repro.core.infer` / :mod:`repro.core.train`).  This module makes
that funnel pluggable:

* :class:`NaiveBackend` — the default.  ``a @ b`` exactly as before, so
  the training/golden-loss paths stay bit-for-bit identical.
* :class:`BlockedBackend` — a blocked, thread-pooled GEMM.  2-D products
  are chunked along the batch (row) dimension and the row blocks are
  dispatched to a persistent :class:`~concurrent.futures.ThreadPoolExecutor`;
  NumPy releases the GIL inside BLAS so the blocks genuinely overlap.
  Output buffers come from a refcount-guarded workspace pool, killing the
  per-step allocation that otherwise dominates steady-state sampling.

Row-blocking a GEMM does not change the per-row accumulation order:
``np.matmul(a[s:e], b, out=out[s:e])`` produces bitwise-identical rows to
the full product on this project's BLAS, which is why the fp64 parity test
in ``tests/test_nn_backend.py`` can pin ``blocked == naive`` exactly.

Selection:

* ``REPRO_NN_BACKEND`` — ``naive`` (default) or ``blocked``; read lazily
  on the first :func:`get_backend` call.
* ``REPRO_NN_THREADS`` — thread count for the blocked backend (default:
  ``os.cpu_count()``).
* :func:`set_backend` / :func:`use_backend` — programmatic override.
"""

from __future__ import annotations

import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from math import ceil

import numpy as np

from repro import perf

__all__ = [
    "NaiveBackend",
    "BlockedBackend",
    "get_backend",
    "set_backend",
    "use_backend",
    "matmul",
]

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class NaiveBackend:
    """Plain ``a @ b`` — the bitwise-pinned default."""

    name = "naive"

    def matmul(self, a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is not None:
            return np.matmul(a, b, out=out)
        return a @ b


class _WorkspacePool:
    """Reusable output buffers keyed by (shape, dtype).

    A buffer is free for reuse iff its only references are the pool's
    bucket list, the scan loop variable, and ``sys.getrefcount``'s own
    argument (== 3).  Callers that still hold the array (directly or via
    views, whose ``.base`` keeps a reference) bump the count, so a live
    result can never be handed out twice.
    """

    _MAX_PER_KEY = 8

    def __init__(self) -> None:
        self._store: dict[tuple, list[np.ndarray]] = {}
        self._lock = threading.Lock()

    def take(self, shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        key = (shape, np.dtype(dtype).str)
        with self._lock:
            bucket = self._store.get(key)
            if bucket is None:
                bucket = self._store[key] = []
            for arr in bucket:
                if sys.getrefcount(arr) == 3:
                    perf.incr("nn.backend.workspace_hits")
                    return arr
            arr = np.empty(shape, dtype)
            if len(bucket) < self._MAX_PER_KEY:
                bucket.append(arr)
            return arr

    def clear(self) -> None:
        with self._lock:
            self._store.clear()


class BlockedBackend:
    """Blocked GEMM across a persistent thread pool with workspace reuse.

    Only contiguous-friendly 2-D same-dtype float products above
    ``min_rows`` take the blocked path; everything else (1-D dots, batched
    3-D matmuls, mixed dtypes, tiny batches) falls back to ``a @ b``.
    """

    name = "blocked"

    #: never split below this many rows per block — tiny blocks would pay
    #: more in dispatch than they win in overlap.
    MIN_BLOCK_ROWS = 16

    def __init__(
        self,
        threads: int | None = None,
        min_rows: int = 128,
        block_rows: int = 8192,
    ) -> None:
        if threads is None:
            threads = int(os.environ.get("REPRO_NN_THREADS") or 0) or (os.cpu_count() or 1)
        self.threads = max(1, int(threads))
        self.min_rows = int(min_rows)
        self.block_rows = int(block_rows)
        self.workspaces = _WorkspacePool()
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    def _executor(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.threads, thread_name_prefix="repro-nn-gemm"
                )
            return self._pool

    def _bounds(self, n: int) -> list[tuple[int, int]]:
        per = max(self.MIN_BLOCK_ROWS, ceil(n / self.threads))
        per = min(per, self.block_rows)
        bounds = [(s, min(s + per, n)) for s in range(0, n, per)]
        # Merge a runt tail into its neighbour so no block dips below
        # MIN_BLOCK_ROWS (keeps BLAS in its blocked-gemm kernels).
        if len(bounds) > 1 and bounds[-1][1] - bounds[-1][0] < self.MIN_BLOCK_ROWS:
            s, _ = bounds[-2]
            bounds[-2:] = [(s, n)]
        return bounds

    def matmul(self, a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if (
            a.ndim != 2
            or b.ndim != 2
            or a.shape[0] < self.min_rows
            or a.dtype != b.dtype
            or a.dtype not in _FLOAT_DTYPES
        ):
            perf.incr("nn.backend.fallback_calls")
            if out is not None:
                return np.matmul(a, b, out=out)
            return a @ b
        n = a.shape[0]
        if out is None:
            out = self.workspaces.take((n, b.shape[1]), a.dtype)
        perf.incr("nn.backend.blocked_calls")
        bounds = self._bounds(n)
        if len(bounds) == 1:
            return np.matmul(a, b, out=out)
        pool = self._executor()
        futures = [
            pool.submit(np.matmul, a[s:e], b, out[s:e]) for s, e in bounds
        ]
        for future in futures:
            future.result()
        return out

    def close(self) -> None:
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None
        self.workspaces.clear()


_BACKENDS = {"naive": NaiveBackend, "blocked": BlockedBackend}
_active: NaiveBackend | BlockedBackend | None = None
_active_lock = threading.Lock()


def _resolve(name: str):
    try:
        return _BACKENDS[name]()
    except KeyError:
        raise ValueError(
            f"unknown nn backend {name!r}; expected one of {sorted(_BACKENDS)}"
        ) from None


def get_backend():
    """The active backend; resolved from ``REPRO_NN_BACKEND`` on first use."""
    global _active
    if _active is None:
        with _active_lock:
            if _active is None:
                _active = _resolve(os.environ.get("REPRO_NN_BACKEND", "naive"))
    return _active


def set_backend(backend) -> None:
    """Install a backend by name (``"naive"``/``"blocked"``) or instance.

    Pass ``None`` to reset so the next :func:`get_backend` re-reads
    ``REPRO_NN_BACKEND``.
    """
    global _active
    with _active_lock:
        if backend is None or isinstance(backend, str):
            _active = None if backend is None else _resolve(backend)
        else:
            _active = backend


@contextmanager
def use_backend(backend):
    """Temporarily switch the active backend (tests, benchmarks)."""
    global _active
    with _active_lock:
        previous = _active
    set_backend(backend)
    try:
        yield get_backend()
    finally:
        with _active_lock:
            _active = previous


def matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Route a product through the active backend."""
    return get_backend().matmul(a, b, out=out)
