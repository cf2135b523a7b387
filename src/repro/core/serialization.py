"""Save / load a fitted pipeline to a single ``.npz`` archive.

A fitted :class:`~repro.core.pipeline.TextToTrafficPipeline` is a bundle
of NumPy state: the codec's components, three modules' parameters, the
vocabulary, the prompt codebook and the per-class control templates.
``save_pipeline`` packs all of it (config included, JSON-encoded) into one
compressed archive; ``load_pipeline`` rebuilds an equivalent pipeline that
generates identical flows for identical RNG streams.

LoRA-adapted pipelines must be merged first (:func:`repro.core.lora.merge_lora`)
— adapters are a training-time construct; the deployment form is dense.

The module also hosts the two content-addressed fit caches the
experiment harness shares: :func:`fit_or_load` for pipelines and
:func:`fit_forest_or_load` for the Random Forest evaluation tier.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from repro import perf
from repro.core.autoencoder import LatentCodec
from repro.core.controlnet import ControlNetBranch
from repro.core.denoiser import ConditionalDenoiser
from repro.core.lora import LoRALinear
from repro.core.pipeline import PipelineConfig, TextToTrafficPipeline
from repro.core.prompt import PromptCodebook, PromptEncoder
from repro.ml.forest import RandomForest, _CompiledForest
from repro.net.flow import Flow

_FORMAT_VERSION = 1
_FOREST_FORMAT_VERSION = 1


def _module_state(prefix: str, module) -> dict[str, np.ndarray]:
    return {f"{prefix}.{name}": value
            for name, value in module.state_dict().items()}


def _contains_lora(module) -> bool:
    for child in module._modules.values():
        if isinstance(child, LoRALinear) or _contains_lora(child):
            return True
    return False


def _pipeline_arrays(pipeline: TextToTrafficPipeline) -> dict[str, np.ndarray]:
    """The complete array bundle a pipeline archive is built from."""
    if pipeline.denoiser is None or pipeline.codebook is None:
        raise ValueError("cannot save an unfitted pipeline")
    if _contains_lora(pipeline.denoiser):
        raise ValueError(
            "pipeline has unmerged LoRA adapters; call "
            "repro.core.lora.merge_lora(pipeline.denoiser) first"
        )
    meta = {
        "format_version": _FORMAT_VERSION,
        "config": pipeline.config.__dict__,
        "classes": pipeline.codebook.classes,
        "vocab_tokens": pipeline.vocab.tokens(),
        "class_heights": pipeline.class_heights,
        "codec_latent_dim": pipeline.codec.latent_dim,
    }
    arrays: dict[str, np.ndarray] = {
        "meta_json": np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8),
        "codec.mean": pipeline.codec.mean_,
        "codec.components": pipeline.codec.components_,
        "codec.scales": pipeline.codec.scales_,
        "codec.evr": pipeline.codec.explained_variance_ratio_,
    }
    arrays.update(_module_state("denoiser", pipeline.denoiser))
    arrays.update(_module_state("prompt", pipeline.prompt_encoder))
    if pipeline.controlnet is not None:
        arrays.update(_module_state("controlnet", pipeline.controlnet))
    for name, mask in pipeline.class_masks.items():
        arrays[f"mask.{name}"] = mask
    return arrays


def save_pipeline(pipeline: TextToTrafficPipeline, path: str | Path) -> None:
    """Serialise a fitted pipeline to ``path`` (npz, compressed)."""
    np.savez_compressed(path, **_pipeline_arrays(pipeline))


def pipeline_state_digest(pipeline: TextToTrafficPipeline) -> str:
    """Content digest of a fitted pipeline's full state (config + weights).

    Two pipelines with identical configs, vocabularies and parameters get
    the same digest — the address for the sharded-generation archive.
    """
    arrays = _pipeline_arrays(pipeline)
    h = hashlib.sha256()
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        h.update(name.encode())
        h.update(repr((arr.shape, str(arr.dtype))).encode())
        h.update(arr.tobytes())
    return h.hexdigest()[:32]


def _write_atomic(path: Path, write) -> None:
    """Create ``path`` by calling ``write(file)`` on a temp file beside it.

    The temp file replaces ``path`` only once ``write`` returns, so
    concurrent readers (and writers) never observe a partial archive;
    on any error it is removed and the error propagates.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".npz.tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            write(f)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def shard_archive_path(cache_dir: str | Path, digest: str) -> Path:
    """The canonical archive path for a pipeline-state ``digest``.

    One naming scheme shared by the sharded-generation cache and the
    serving tier's model store: ``pipeline-shard-<digest>.npz``.
    """
    return Path(cache_dir) / f"pipeline-shard-{digest}.npz"


def import_pipeline_archive(src: str | Path, cache_dir: str | Path) -> Path:
    """Copy a pipeline archive into ``cache_dir`` under its content address.

    Loads the archive once to recompute the digest (so a renamed or
    hand-copied file still lands at its true address), then writes it
    atomically.  Returns the content-addressed path; idempotent.
    """
    src = Path(src)
    digest = pipeline_state_digest(load_pipeline(src))
    dest = shard_archive_path(cache_dir, digest)
    if not dest.exists():
        _write_atomic(dest, lambda f: f.write(src.read_bytes()))
    return dest


def ensure_pipeline_archive(
    pipeline: TextToTrafficPipeline, cache_dir: str | Path
) -> Path:
    """Write (or reuse) the content-addressed archive for ``pipeline``.

    The archive lives at ``<cache_dir>/pipeline-shard-<digest>.npz`` —
    generation worker processes load their fitted-pipeline copies from it.
    Writes are atomic (temp file + ``os.replace``) and idempotent: a
    pipeline whose archive already exists costs one digest pass and no IO.
    """
    path = shard_archive_path(cache_dir, pipeline_state_digest(pipeline))
    if path.exists():
        perf.incr("pipeline.shard_archive_hit")
        return path
    perf.incr("pipeline.shard_archive_write")
    _write_atomic(path, lambda f: save_pipeline(pipeline, f))
    return path


#: archive key prefixes :func:`load_pipeline` reads, besides ``meta_json``
_ARCHIVE_PREFIXES = ("codec.", "denoiser.", "prompt.", "controlnet.", "mask.")

#: config keys of older archives that no longer configure anything: the
#: base-weight EMA was copied into the denoiser before such an archive
#: was saved, so the stored weights already are the ones to sample from;
#: ``schedule`` is always "cosine" (any other value is refused on load)
_RETIRED_CONFIG_KEYS = ("use_ema", "ema_decay", "schedule")


def load_pipeline(path: str | Path) -> TextToTrafficPipeline:
    """Rebuild a pipeline saved by :func:`save_pipeline`.

    Only the keys the format names are read; any other member (older
    shard archives hold float32 copies of the weights) is never
    decompressed, so such an archive loads as the plain archive would.
    Retired config keys of older archives are dropped; any other unknown
    config key is an error, and so is a ``schedule`` other than "cosine".
    """
    with np.load(path) as archive:
        arrays = {
            key: archive[key] for key in archive.files
            if key == "meta_json" or key.startswith(_ARCHIVE_PREFIXES)
        }
    meta = json.loads(bytes(arrays.pop("meta_json")).decode())
    if meta.get("format_version") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported pipeline archive version {meta.get('format_version')}"
        )
    schedule = meta["config"].get("schedule", "cosine")
    if schedule != "cosine":
        raise ValueError(f"unsupported noise schedule {schedule!r}")
    config = PipelineConfig(**{
        key: value for key, value in meta["config"].items()
        if key not in _RETIRED_CONFIG_KEYS
    })
    pipeline = TextToTrafficPipeline(config)

    # Codec.
    codec = LatentCodec(meta["codec_latent_dim"])
    codec.mean_ = arrays["codec.mean"]
    codec.components_ = arrays["codec.components"]
    codec.scales_ = arrays["codec.scales"]
    codec.explained_variance_ratio_ = arrays["codec.evr"]
    codec.latent_dim = int(meta["codec_latent_dim"])
    pipeline.codec = codec

    # Vocabulary / codebook.
    for token in meta["vocab_tokens"]:
        pipeline.vocab.add(token)
    pipeline.codebook = PromptCodebook(meta["classes"])

    # Modules (shapes are implied by the config + vocab size).
    rng = np.random.default_rng(config.seed)
    pipeline.prompt_encoder = PromptEncoder(
        pipeline.vocab, config.cond_dim, rng=rng)
    pipeline.denoiser = ConditionalDenoiser(
        latent_dim=codec.latent_dim,
        hidden=config.hidden,
        blocks=config.blocks,
        cond_dim=config.cond_dim,
        time_dim=config.time_dim,
        rng=rng,
    )
    _load_module("denoiser", pipeline.denoiser, arrays)
    _load_module("prompt", pipeline.prompt_encoder, arrays)
    if any(key.startswith("controlnet.") for key in arrays):
        pipeline.controlnet = ControlNetBranch(
            config.hidden, config.blocks, rng=rng)
        _load_module("controlnet", pipeline.controlnet, arrays)

    pipeline.class_masks = {
        key[len("mask."):]: arrays[key]
        for key in arrays if key.startswith("mask.")
    }
    pipeline.class_heights = {
        k: float(v) for k, v in meta["class_heights"].items()
    }

    return pipeline


def _load_module(prefix: str, module, arrays: dict[str, np.ndarray]) -> None:
    state = {
        key[len(prefix) + 1:]: value
        for key, value in arrays.items()
        if key.startswith(prefix + ".")
    }
    module.load_state_dict(state)


# -- content-addressed fitted-pipeline cache ---------------------------------
#
# A fitted pipeline is a pure function of (PipelineConfig, training flows,
# archive format): same config + same flows => same weights.  The cache
# keys archives by a digest of exactly those inputs, so every experiment
# that refits the pipeline from identical ingredients loads it instead.

def dataset_fingerprint(flows: list[Flow]) -> str:
    """Digest of a training set: labels, counts, and raw flow bytes.

    Any change to the flow list — ordering, labels, a single header bit
    or timestamp — changes the fingerprint and therefore the cache key.
    """
    h = hashlib.sha256()
    h.update(struct.pack("<I", len(flows)))
    for flow in flows:
        h.update(flow.label.encode())
        h.update(struct.pack("<I", len(flow.packets)))
        for p in flow.packets:
            h.update(struct.pack("<d", p.timestamp))
            h.update(p.to_bytes())
    return h.hexdigest()


def pipeline_cache_key(config: PipelineConfig, flows: list[Flow]) -> str:
    """Cache key = hash(config + dataset fingerprint + format version)."""
    payload = json.dumps(
        {
            "format_version": _FORMAT_VERSION,
            "config": config.__dict__,
            "dataset": dataset_fingerprint(flows),
        },
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:32]


def _post_fit_rng(config: PipelineConfig) -> np.random.Generator:
    """The canonical generation RNG for a cache-managed pipeline.

    A freshly fitted pipeline's internal RNG has consumed training
    entropy; a loaded one has not.  ``fit_or_load`` pins both to this
    stream so cached and fresh pipelines generate *identical* flows when
    no explicit RNG is passed — warm- and cold-cache harness runs agree.
    """
    return np.random.default_rng([config.seed, 0x9E3779B9])


def fit_or_load(
    config: PipelineConfig,
    flows: list[Flow],
    cache_dir: str | Path | None = None,
    verbose: bool = False,
) -> TextToTrafficPipeline:
    """Fit a pipeline, or load the cached fit for identical inputs.

    With ``cache_dir=None`` this is a plain ``fit`` (plus the
    deterministic post-fit RNG).  Otherwise the archive lives at
    ``<cache_dir>/pipeline-<key>.npz``; writes go through a temp file +
    ``os.replace`` so concurrent worker processes never observe a
    partial archive (worst case both fit and one write wins).

    Compiled training is bitwise-identical to the eager tape, so the
    archives and state digests match those written before the compiled
    engine became the only fit path.
    """
    path = None
    if cache_dir is not None:
        key = pipeline_cache_key(config, flows)
        path = Path(cache_dir) / f"pipeline-{key}.npz"
        if path.exists():
            with perf.timer("pipeline.cache_load"):
                pipeline = load_pipeline(path)
            perf.incr("pipeline.cache_hit")
            pipeline._rng = _post_fit_rng(config)
            return pipeline
        perf.incr("pipeline.cache_miss")
    pipeline = TextToTrafficPipeline(config)
    pipeline.fit(flows, verbose=verbose)
    if path is not None:
        _write_atomic(path, lambda f: save_pipeline(pipeline, f))
    pipeline._rng = _post_fit_rng(config)
    return pipeline


# -- fitted-classifier cache --------------------------------------------------
#
# The evaluation tier refits the same Random Forest over the same feature
# matrices again and again (Table 2 scenarios, ablations, repeated harness
# runs).  A fitted forest is a pure function of (hyperparameters, X, y),
# so the cache mirrors the pipeline cache above: archives are keyed by a
# digest of exactly those inputs and the compiled flat-array form is what
# gets stored — loading skips both the fit *and* the tree compilation.

def save_forest(forest: RandomForest, path) -> None:
    """Serialise a fitted forest's compiled arrays to ``path`` (npz)."""
    if forest._compiled is None:
        raise ValueError("cannot save an unfitted forest")
    compiled = forest._compiled
    meta = {
        "format_version": _FOREST_FORMAT_VERSION,
        "params": forest.get_params(),
        "n_classes": forest.n_classes,
        "n_features": forest.n_features_,
    }
    np.savez_compressed(
        path,
        meta_json=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        feature=compiled.feature,
        threshold=compiled.threshold,
        left=compiled.left,
        right=compiled.right,
        proba=compiled.proba,
        roots=compiled.roots,
    )


def load_forest(path) -> RandomForest:
    """Rebuild a forest saved by :func:`save_forest` (inference form).

    The loaded forest predicts bit-for-bit like the fitted original; the
    per-tree ``_Node`` structures are not restored (they are a training
    construct — the deployment form is the flat-array ensemble).
    """
    with np.load(path) as archive:
        arrays = {key: archive[key] for key in archive.files}
    meta = json.loads(bytes(arrays.pop("meta_json")).decode())
    if meta.get("format_version") != _FOREST_FORMAT_VERSION:
        raise ValueError(
            f"unsupported forest archive version {meta.get('format_version')}"
        )
    forest = RandomForest(**meta["params"])
    forest.n_classes = int(meta["n_classes"])
    forest.n_features_ = int(meta["n_features"])
    forest._compiled = _CompiledForest(
        feature=arrays["feature"],
        threshold=arrays["threshold"],
        left=arrays["left"],
        right=arrays["right"],
        proba=arrays["proba"],
        roots=arrays["roots"],
        n_classes=int(meta["n_classes"]),
    )
    return forest


def forest_fingerprint(X: np.ndarray, y: np.ndarray) -> str:
    """Digest of a training matrix: shapes, dtypes, and raw bytes."""
    X = np.ascontiguousarray(X)
    y = np.ascontiguousarray(y)
    h = hashlib.sha256()
    h.update(
        repr((X.shape, str(X.dtype), y.shape, str(y.dtype))).encode()
    )
    h.update(X.tobytes())
    h.update(y.tobytes())
    return h.hexdigest()


def forest_cache_key(params: dict, X: np.ndarray, y: np.ndarray) -> str:
    """Cache key = hash(hyperparams + data fingerprint + format version)."""
    payload = json.dumps(
        {
            "format_version": _FOREST_FORMAT_VERSION,
            "params": params,
            "dataset": forest_fingerprint(X, y),
        },
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:32]


def fit_forest_or_load(
    forest: RandomForest,
    X: np.ndarray,
    y: np.ndarray,
    cache_dir: str | Path | None = None,
) -> RandomForest:
    """Fit ``forest`` on (X, y), or load the cached fit for identical inputs.

    With ``cache_dir=None`` this is a plain ``fit``.  Otherwise the
    archive lives at ``<cache_dir>/forest-<key>.npz``; writes go through
    a temp file + ``os.replace`` so concurrent worker processes never
    observe a partial archive.
    """
    X = np.asarray(X, dtype=np.float32)  # the dtype fit() trains on,
    y = np.asarray(y, dtype=np.int64)  # so equivalent inputs hash equal
    path = None
    if cache_dir is not None:
        key = forest_cache_key(forest.get_params(), X, y)
        path = Path(cache_dir) / f"forest-{key}.npz"
        if path.exists():
            with perf.timer("forest.cache_load"):
                loaded = load_forest(path)
            perf.incr("forest.cache_hit")
            return loaded
        perf.incr("forest.cache_miss")
    forest.fit(X, y)
    if path is not None:
        _write_atomic(path, lambda f: save_forest(forest, f))
    return forest
