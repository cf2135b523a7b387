"""Classification and distribution metrics used by the evaluation harness."""

from __future__ import annotations

import numpy as np
from scipy import stats


def accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Plain accuracy; the paper reports 'average accuracy'."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if len(y_true) != len(y_pred):
        raise ValueError("length mismatch")
    if len(y_true) == 0:
        raise ValueError("empty label arrays")
    return float(np.mean(y_true == y_pred))


def class_proportions(labels: list[str], classes: list[str]) -> np.ndarray:
    """Proportion of each class in ``classes`` order (sums to 1)."""
    if not labels:
        raise ValueError("empty label list")
    counts = np.array([labels.count(c) for c in classes], dtype=np.float64)
    return counts / counts.sum()


def imbalance_ratio(proportions: np.ndarray) -> float:
    """max/min class proportion; 1.0 is perfectly balanced.

    Classes with zero support make the ratio infinite — the degenerate
    coverage failure Figure 1 shows for GAN output.
    """
    proportions = np.asarray(proportions, dtype=np.float64)
    if proportions.size == 0:
        raise ValueError("empty proportions")
    smallest = proportions.min()
    if smallest <= 0:
        return float("inf")
    return float(proportions.max() / smallest)


def normalized_entropy(proportions: np.ndarray) -> float:
    """Shannon entropy of the class distribution divided by log(k).

    1.0 = perfectly uniform coverage; lower = more imbalanced.
    """
    p = np.asarray(proportions, dtype=np.float64)
    p = p[p > 0]
    if p.size <= 1:
        return 0.0
    return float(-(p * np.log(p)).sum() / np.log(len(proportions)))


def jensen_shannon_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """JSD between two discrete distributions (base e, in [0, ln 2])."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError("distribution shape mismatch")
    p = p / p.sum()
    q = q / q.sum()
    m = (p + q) / 2

    def _kl(a: np.ndarray, b: np.ndarray) -> float:
        mask = a > 0
        return float((a[mask] * np.log(a[mask] / b[mask])).sum())

    return 0.5 * _kl(p, m) + 0.5 * _kl(q, m)


def wasserstein_1d(a: np.ndarray, b: np.ndarray) -> float:
    """Earth-mover distance between two 1-D samples (scipy)."""
    return float(stats.wasserstein_distance(np.asarray(a), np.asarray(b)))


def bit_fidelity(real: np.ndarray, synthetic: np.ndarray) -> float:
    """Mean per-column agreement of ternary value distributions.

    For each of the nprint bit columns, compare the distribution of
    {-1, 0, 1} between real and synthetic matrices via (1 - total
    variation distance), then average over columns.  1.0 means the
    synthetic data matches every marginal bit distribution exactly.
    """
    real = np.asarray(real)
    synthetic = np.asarray(synthetic)
    if real.ndim == 3:
        real = real.reshape(-1, real.shape[-1])
    if synthetic.ndim == 3:
        synthetic = synthetic.reshape(-1, synthetic.shape[-1])
    if real.shape[1] != synthetic.shape[1]:
        raise ValueError("column count mismatch")
    tv = np.zeros(real.shape[1])
    for value in (-1, 0, 1):
        p = (real == value).mean(axis=0)
        q = (synthetic == value).mean(axis=0)
        tv += np.abs(p - q)
    return float(np.mean(1.0 - tv / 2.0))
