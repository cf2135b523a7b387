"""On-disk stage artifacts: pickles with mmap-loadable ndarray sidecars.

Parallel harness workers used to ship whole stage results — including
every NumPy array they contain — back to the parent through the process
pool's result pipe, which pickles and copies each byte twice (worker
serialise, parent deserialise).  This module persists a stage result as a
small directory instead: one pickle for the object graph plus one
``.npy`` sidecar per large array.  The worker returns only the directory
path; the parent reopens the arrays with ``np.load(..., mmap_mode="r")``
so they are paged in lazily from the OS page cache rather than copied
through a pipe.

Small arrays (< :data:`ARRAY_BYTES_THRESHOLD`) and object-dtype arrays
stay inline in the pickle — a sidecar file per tiny array would cost
more than it saves, and ``allow_pickle=False`` sidecars cannot hold
object arrays.

The sidecar directory may be unlinked while loaded results are still in
use: on Linux an established memory map keeps the unlinked inode alive,
so reads keep working (the harness relies on this to clean up its
run-scoped artifact directory eagerly).
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass

import numpy as np

#: arrays at least this many bytes go to ``.npy`` sidecars
ARRAY_BYTES_THRESHOLD = 4096

_PICKLE_NAME = "result.pkl"


@dataclass(frozen=True)
class ArtifactRef:
    """A stage result saved on disk (returned by workers instead of data)."""

    path: str


class _ArrayPickler(pickle.Pickler):
    """Pickler that spills large ndarrays to ``.npy`` files."""

    def __init__(self, fileobj, directory: str):
        super().__init__(fileobj, protocol=pickle.HIGHEST_PROTOCOL)
        self._dir = directory
        self._count = 0
        # id() -> pid; the object graph keeps every seen array alive for
        # the duration of the dump, so ids cannot be recycled under us.
        self._seen: dict[int, tuple[str, str]] = {}

    def persistent_id(self, obj):
        if (
            type(obj) is np.ndarray
            and obj.dtype != object
            and obj.nbytes >= ARRAY_BYTES_THRESHOLD
        ):
            pid = self._seen.get(id(obj))
            if pid is None:
                name = f"arr_{self._count:04d}.npy"
                self._count += 1
                np.save(
                    os.path.join(self._dir, name), obj, allow_pickle=False
                )
                pid = ("ndarray", name)
                self._seen[id(obj)] = pid
            return pid
        return None


class _ArrayUnpickler(pickle.Unpickler):
    """Unpickler resolving sidecar ids to (by default) memory-mapped arrays."""

    def __init__(self, fileobj, directory: str, mmap_mode: str | None):
        super().__init__(fileobj)
        self._dir = directory
        self._mmap_mode = mmap_mode
        # pickle does not memoise persistent ids; cache per name so an
        # array shared in the saved graph stays shared after loading.
        self._loaded: dict[str, np.ndarray] = {}

    def persistent_load(self, pid):
        kind, name = pid
        if kind != "ndarray":
            raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")
        array = self._loaded.get(name)
        if array is None:
            array = self._loaded[name] = np.load(
                os.path.join(self._dir, name), mmap_mode=self._mmap_mode
            )
        return array


def save_stage_result(result, directory: str) -> ArtifactRef:
    """Persist ``result`` under ``directory``; returns its reference."""
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, _PICKLE_NAME), "wb") as f:
        _ArrayPickler(f, directory).dump(result)
    return ArtifactRef(directory)


def load_stage_result(ref: ArtifactRef | str, mmap_mode: str | None = "r"):
    """Load a saved stage result; sidecar arrays come back memory-mapped.

    Pass ``mmap_mode=None`` to read the arrays fully into memory (e.g.
    when the caller needs to mutate them).
    """
    directory = ref.path if isinstance(ref, ArtifactRef) else ref
    with open(os.path.join(directory, _PICKLE_NAME), "rb") as f:
        return _ArrayUnpickler(f, directory, mmap_mode).load()

