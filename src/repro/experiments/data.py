"""Shared, memoised experiment artefacts.

Every table/figure needs the same expensive pieces — the real dataset,
the 80/20 split, the fitted diffusion pipeline, the trained GAN, and the
synthetic datasets they emit.  :class:`ExperimentContext` builds each
piece lazily and exactly once, and :func:`get_context` memoises contexts
per config so a full benchmark session trains each model a single time.

On top of the in-process memoisation sits the *on-disk* fitted-pipeline
cache (:func:`repro.core.serialization.fit_or_load`): when a cache
directory is configured (:func:`set_cache_dir`, the ``REPRO_CACHE_DIR``
environment variable, or the runner's ``--cache-dir`` flag), every
pipeline fit in the harness — the shared base pipeline and the
per-experiment refits — is keyed by (config, dataset fingerprint) and
trained at most once per key across processes and across runs.  The
same cache directory also holds the fitted Random Forest classifiers
(:func:`fit_forest`), keyed by (hyperparams, feature-matrix digest).
"""

from __future__ import annotations

import os

import numpy as np

from repro.baselines.netshare import NetShareSynthesizer
from repro.core.pipeline import PipelineConfig, TextToTrafficPipeline
from repro.core.serialization import fit_forest_or_load, fit_or_load
from repro.experiments.config import ExperimentConfig
from repro.ml.features import NetFlowRecord, netflow_record
from repro.ml.forest import RandomForest
from repro.ml.split import stratified_split
from repro.net.flow import Flow
from repro.traffic.dataset import TraceDataset, build_service_recognition_dataset
from repro.traffic.profiles import MICRO_LABELS

_CONTEXTS: dict[tuple, "ExperimentContext"] = {}

#: session-wide pipeline cache directory (None = on-disk cache disabled)
_CACHE_DIR: str | None = os.environ.get("REPRO_CACHE_DIR") or None


def set_cache_dir(path: str | None) -> None:
    """Set (or clear, with None) the session's pipeline cache directory."""
    global _CACHE_DIR
    _CACHE_DIR = str(path) if path else None


def get_cache_dir() -> str | None:
    """The session's pipeline cache directory, if any."""
    return _CACHE_DIR


def fit_pipeline(
    config: PipelineConfig, flows: list[Flow]
) -> TextToTrafficPipeline:
    """Fit (or load from the session cache) a pipeline on ``flows``.

    The single entry point every experiment uses instead of calling
    ``TextToTrafficPipeline(...).fit(...)`` directly — identical
    (config, flows) pairs across table1/figure1/figure2/replay/fidelity
    and across worker processes train exactly once.

    The compiled fit step (:mod:`repro.core.train`) is bitwise-identical
    to the eager tape, so caches written by eager fits of older checkouts
    stay valid.
    """
    return fit_or_load(config, flows, cache_dir=get_cache_dir())


def fit_forest(
    X: np.ndarray, y: np.ndarray, config: ExperimentConfig
) -> RandomForest:
    """Fit (or load from the session cache) the standard RF classifier.

    The single entry point every experiment scorer uses instead of
    calling ``RandomForest(...).fit(...)`` directly — with a cache
    directory configured, identical (hyperparams, X, y) triples across
    Table 2 scenarios, ablations and repeated harness runs train once.
    """
    forest = RandomForest(
        n_trees=config.rf_trees, max_depth=config.rf_depth, seed=config.seed
    )
    return fit_forest_or_load(forest, X, y, cache_dir=get_cache_dir())


def get_context(config: ExperimentConfig) -> "ExperimentContext":
    """Memoised context per (name, seed, scale) triple."""
    key = (config.name, config.seed, config.dataset_scale)
    if key not in _CONTEXTS:
        _CONTEXTS[key] = ExperimentContext(config)
    return _CONTEXTS[key]


def clear_contexts() -> None:
    """Drop every cached context (frees model + dataset memory)."""
    _CONTEXTS.clear()


class ExperimentContext:
    """Lazy, build-once holder for every shared experiment artefact."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self._dataset: TraceDataset | None = None
        self._split: tuple[np.ndarray, np.ndarray] | None = None
        self._pipeline: TextToTrafficPipeline | None = None
        self._netshare: NetShareSynthesizer | None = None
        self._finetune_flows: list[Flow] | None = None
        self._synthetic_ours: dict[int, list[Flow]] = {}
        self._synthetic_gan: dict[int, list[NetFlowRecord]] = {}

    # -- real data --------------------------------------------------------
    @property
    def dataset(self) -> TraceDataset:
        if self._dataset is None:
            self._dataset = build_service_recognition_dataset(
                scale=self.config.dataset_scale, seed=self.config.seed
            )
        return self._dataset

    @property
    def split(self) -> tuple[np.ndarray, np.ndarray]:
        """(train_idx, test_idx) over ``dataset.flows``, stratified 80/20."""
        if self._split is None:
            self._split = stratified_split(
                self.dataset.labels(),
                test_fraction=self.config.test_fraction,
                seed=self.config.seed,
            )
        return self._split

    @property
    def train_flows(self) -> list[Flow]:
        train_idx, _ = self.split
        return [self.dataset.flows[i] for i in train_idx]

    @property
    def test_flows(self) -> list[Flow]:
        _, test_idx = self.split
        return [self.dataset.flows[i] for i in test_idx]

    @property
    def finetune_flows(self) -> list[Flow]:
        """The per-class fine-tuning subset (paper §3.2: 100 per class).

        Drawn from the *training* side of the split only, so synthetic
        data never sees test flows.
        """
        if self._finetune_flows is None:
            budget = self.config.finetune_flows_per_class
            by_label: dict[str, list[Flow]] = {}
            for f in self.train_flows:
                by_label.setdefault(f.label, []).append(f)
            subset: list[Flow] = []
            rng = np.random.default_rng(self.config.seed)
            for label in sorted(by_label):
                group = by_label[label]
                take = min(budget, len(group))
                idx = rng.choice(len(group), size=take, replace=False)
                subset.extend(group[i] for i in idx)
            self._finetune_flows = subset
        return self._finetune_flows

    # -- models ----------------------------------------------------------------
    @property
    def pipeline(self) -> TextToTrafficPipeline:
        """The fitted diffusion pipeline (trained once per context).

        Goes through :func:`fit_pipeline`, so with a cache directory
        configured the fit is shared on disk across processes and runs.
        """
        if self._pipeline is None:
            self._pipeline = fit_pipeline(
                self.config.pipeline, self.finetune_flows
            )
        return self._pipeline

    @property
    def netshare(self) -> NetShareSynthesizer:
        """The fitted NetShare-style GAN (trained once per context)."""
        if self._netshare is None:
            model = NetShareSynthesizer(self.config.gan)
            model.fit(self.train_flows)
            self._netshare = model
        return self._netshare

    # -- synthetic data -----------------------------------------------------------
    def synthetic_ours(self, per_class: int) -> list[Flow]:
        """Balanced synthetic flows from our pipeline (memoised)."""
        if per_class not in self._synthetic_ours:
            self._synthetic_ours[per_class] = self.pipeline.generate_balanced(
                per_class
            )
        return self._synthetic_ours[per_class]

    def synthetic_gan(self, total: int) -> list[NetFlowRecord]:
        """Synthetic NetFlow records from the GAN baseline (memoised).

        The GAN is sampled for ``total`` records in one shot — its label
        field is generated, not requested, which is the coverage failure
        Figure 1 measures.
        """
        if total not in self._synthetic_gan:
            rng = np.random.default_rng(self.config.seed + 1)
            self._synthetic_gan[total] = self.netshare.generate(total, rng)
        return self._synthetic_gan[total]

    # -- convenience ----------------------------------------------------------------
    @property
    def classes(self) -> list[str]:
        return sorted(MICRO_LABELS)

    def real_netflow_records(self, flows: list[Flow]) -> list[NetFlowRecord]:
        return [netflow_record(f) for f in flows]
