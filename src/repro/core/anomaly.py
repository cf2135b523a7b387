"""Anomaly detection with the generative model (§4 task 4).

§4 lists discriminative uses of a traffic foundation model, "such as
traffic filtering, classification, and anomaly detection".  A generative
model gives anomaly detection for free: in-distribution flows land where
the model expects, out-of-distribution flows do not.

A single scalar (total reconstruction error) is not enough — anomalous
traffic can reconstruct *better* than training flows (degenerate,
too-regular tunnel streams) as easily as worse.  The discriminative
signal is *where* the codec's residual lands, so the per-flow feature is
a **pooled residual profile**:

* the squared codec residual averaged over packets, pooled over groups of
  16 nprint bit columns (68 values — which header regions the model
  cannot explain),
* the squared residual of the timing channel (1 value),
* the mean squared latent magnitude (1 value — distance from the
  whitened training latent prior).

``fit`` estimates each profile dimension's mean/std on *held-out clean
flows* (not the fine-tuning set — the codec memorises its training flows,
which would mis-calibrate the statistics), and the score is the mean
squared z-deviation, i.e. a diagonal Mahalanobis distance per dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.pipeline import TextToTrafficPipeline
from repro.net.flow import Flow
from repro.nprint.fields import NPRINT_BITS

_POOL = 16


@dataclass
class AnomalyReport:
    scores: np.ndarray
    threshold: float

    @property
    def flags(self) -> np.ndarray:
        return self.scores > self.threshold


class AnomalyScorer:
    """Residual-profile anomaly scoring over a fitted pipeline's codec."""

    def __init__(self, pipeline: TextToTrafficPipeline):
        if not pipeline.codec.is_fitted:
            raise ValueError("pipeline codec must be fitted")
        self.pipeline = pipeline
        self._mean: np.ndarray | None = None
        self._std: np.ndarray | None = None
        self.threshold_: float | None = None

    # -- internals ---------------------------------------------------------
    def profile(self, flows: list[Flow]) -> np.ndarray:
        """The (n, 70) pooled residual profile described in the module doc."""
        p = self.pipeline.config.max_packets
        _, vectors = self.pipeline._encode(flows)
        z = self.pipeline.codec.encode(vectors)
        residual = self.pipeline.codec.decode(z) - vectors
        matrix_part = residual[:, : p * NPRINT_BITS].reshape(
            len(flows), p, NPRINT_BITS)
        per_column = (matrix_part ** 2).mean(axis=1)  # (n, 1088)
        pooled = per_column.reshape(
            len(flows), NPRINT_BITS // _POOL, _POOL).mean(axis=2)
        gap_residual = (residual[:, p * NPRINT_BITS:] ** 2).mean(
            axis=1, keepdims=True)
        latent_mag = (z ** 2).mean(axis=1, keepdims=True)
        return np.concatenate([pooled, gap_residual, latent_mag], axis=1)

    # -- calibration ------------------------------------------------------------
    def fit(self, flows: list[Flow]) -> "AnomalyScorer":
        """Estimate the profile statistics on held-out clean flows."""
        if not flows:
            raise ValueError("need calibration flows")
        profile = self.profile(flows)
        self._mean = profile.mean(axis=0)
        self._std = profile.std(axis=0) + 1e-9
        return self

    def score(self, flows: list[Flow]) -> np.ndarray:
        """Anomaly score per flow (mean squared z-deviation; higher = worse)."""
        if self._mean is None:
            raise RuntimeError("call fit before score")
        if not flows:
            return np.empty(0)
        deviation = (self.profile(flows) - self._mean) / self._std
        return (deviation ** 2).mean(axis=1)

    def fit_threshold(
        self, flows: list[Flow], quantile: float = 0.99
    ) -> float:
        """Calibrate stats *and* the decision threshold on clean flows.

        The threshold is set above the calibration quantile with slack
        for held-out sampling noise.
        """
        if not 0 < quantile <= 1:
            raise ValueError("quantile must be in (0, 1]")
        self.fit(flows)
        scores = self.score(flows)
        self.threshold_ = float(np.quantile(scores, quantile)) * 1.25
        return self.threshold_

    def detect(self, flows: list[Flow]) -> AnomalyReport:
        """Score flows against the calibrated threshold."""
        if self.threshold_ is None:
            raise RuntimeError("call fit_threshold before detect")
        return AnomalyReport(scores=self.score(flows),
                             threshold=self.threshold_)
