"""Content-addressed model store for the serving tier.

The store maps pipeline-state digests (see
:func:`repro.core.serialization.pipeline_state_digest`) to loaded,
fitted pipelines.  Archives live on disk under the same naming scheme
the sharded-generation cache uses — ``pipeline-shard-<digest>.npz`` —
so a model fitted (or cached) anywhere in the repo can be served by
pointing the store at that directory.

Loads are cached with LRU eviction bounded by ``capacity``: a serving
process that rotates through many models keeps only the hottest few
resident.  All operations are thread-safe; a load in progress holds the
lock (the serving dispatcher is single-threaded, so this never stalls a
batch mid-flight — it only delays admission of requests for a cold
model).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from pathlib import Path

from repro import perf
from repro.core.pipeline import TextToTrafficPipeline
from repro.core.serialization import (
    ensure_pipeline_archive,
    load_pipeline,
    pipeline_state_digest,
    shard_archive_path,
)


class ModelNotFound(KeyError):
    """No archive exists for the requested digest."""


class ModelStore:
    """LRU cache of fitted pipelines over a content-addressed archive dir."""

    def __init__(self, root: str | Path, capacity: int = 2) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.root = Path(root)
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._loaded: OrderedDict[str, TextToTrafficPipeline] = OrderedDict()

    # -- publishing ---------------------------------------------------------
    def add(self, pipeline: TextToTrafficPipeline) -> str:
        """Archive a fitted pipeline and make it resident; returns its digest.

        Idempotent: re-adding a pipeline whose archive exists costs one
        digest pass and no IO (see ``ensure_pipeline_archive``).
        """
        path = ensure_pipeline_archive(pipeline, self.root)
        digest = path.stem[len("pipeline-shard-"):]
        with self._lock:
            self._loaded[digest] = pipeline
            self._loaded.move_to_end(digest)
            self._evict_locked()
        return digest

    # -- lookup -------------------------------------------------------------
    def get(self, digest: str) -> TextToTrafficPipeline:
        """The pipeline for ``digest``, loading its archive on first use.

        Raises :class:`ModelNotFound` when no archive exists.
        """
        with self._lock:
            pipeline = self._loaded.get(digest)
            if pipeline is not None:
                self._loaded.move_to_end(digest)
                perf.incr("serve.store_hit")
                return pipeline
            path = shard_archive_path(self.root, digest)
            if not path.exists():
                raise ModelNotFound(digest)
            perf.incr("serve.store_miss")
            with perf.timer("serve.store_load"):
                pipeline = load_pipeline(path)
            self._loaded[digest] = pipeline
            self._loaded.move_to_end(digest)
            self._evict_locked()
            return pipeline

    def _evict_locked(self) -> None:
        while len(self._loaded) > self.capacity:
            self._loaded.popitem(last=False)
            perf.incr("serve.store_evict")

    # -- introspection ------------------------------------------------------
    def digests(self) -> list[str]:
        """Every digest with an archive on disk (sorted)."""
        prefix = "pipeline-shard-"
        return sorted(
            p.stem[len(prefix):]
            for p in self.root.glob(f"{prefix}*.npz")
        )

    def resident(self) -> list[str]:
        """Digests currently loaded, least- to most-recently used."""
        with self._lock:
            return list(self._loaded)

    def __contains__(self, digest: str) -> bool:
        with self._lock:
            if digest in self._loaded:
                return True
        return shard_archive_path(self.root, digest).exists()

    def __len__(self) -> int:
        with self._lock:
            return len(self._loaded)
