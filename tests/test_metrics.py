"""Unit tests for classification and distribution metrics."""

import numpy as np
import pytest

from repro.ml.metrics import (
    accuracy,
    bit_fidelity,
    class_proportions,
    imbalance_ratio,
    jensen_shannon_divergence,
    normalized_entropy,
    wasserstein_1d,
)


class TestAccuracy:
    def test_perfect(self):
        assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    def test_partial(self):
        assert accuracy([1, 1, 0, 0], [1, 0, 0, 0]) == 0.75

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            accuracy([1], [1, 2])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            accuracy([], [])


class TestDistributions:
    def test_class_proportions(self):
        p = class_proportions(["a", "a", "b"], ["a", "b", "c"])
        assert p.tolist() == pytest.approx([2 / 3, 1 / 3, 0.0])

    def test_class_proportions_empty_raises(self):
        with pytest.raises(ValueError):
            class_proportions([], ["a"])

    def test_imbalance_ratio_uniform(self):
        assert imbalance_ratio(np.array([0.25] * 4)) == 1.0

    def test_imbalance_ratio_missing_class_infinite(self):
        assert imbalance_ratio(np.array([0.5, 0.5, 0.0])) == float("inf")

    def test_normalized_entropy_uniform_is_one(self):
        assert normalized_entropy(np.array([0.25] * 4)) == pytest.approx(1.0)

    def test_normalized_entropy_degenerate_is_zero(self):
        assert normalized_entropy(np.array([1.0, 0.0])) == 0.0

    def test_entropy_ordering(self):
        balanced = normalized_entropy(np.array([0.3, 0.3, 0.4]))
        skewed = normalized_entropy(np.array([0.9, 0.05, 0.05]))
        assert balanced > skewed

    def test_jsd_identical_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        assert jensen_shannon_divergence(p, p) == pytest.approx(0.0)

    def test_jsd_symmetric(self):
        p = np.array([0.9, 0.1])
        q = np.array([0.1, 0.9])
        assert jensen_shannon_divergence(p, q) == pytest.approx(
            jensen_shannon_divergence(q, p))

    def test_jsd_bounded_by_ln2(self):
        p = np.array([1.0, 0.0])
        q = np.array([0.0, 1.0])
        assert jensen_shannon_divergence(p, q) == pytest.approx(np.log(2))

    def test_jsd_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            jensen_shannon_divergence(np.ones(2), np.ones(3))

    def test_wasserstein_known(self):
        assert wasserstein_1d([0.0, 0.0], [1.0, 1.0]) == pytest.approx(1.0)


class TestBitFidelity:
    def test_identical_matrices(self, rng):
        m = rng.choice([-1, 0, 1], size=(50, 16)).astype(np.int8)
        assert bit_fidelity(m, m.copy()) == pytest.approx(1.0)

    def test_disjoint_values(self):
        a = np.full((10, 4), 1, dtype=np.int8)
        b = np.full((10, 4), -1, dtype=np.int8)
        assert bit_fidelity(a, b) == pytest.approx(0.0)

    def test_3d_input_flattened(self, rng):
        m = rng.choice([-1, 0, 1], size=(4, 8, 16)).astype(np.int8)
        assert bit_fidelity(m, m.copy()) == pytest.approx(1.0)

    def test_column_mismatch_raises(self):
        with pytest.raises(ValueError):
            bit_fidelity(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_partial_agreement_in_between(self, rng):
        a = rng.choice([0, 1], size=(100, 8)).astype(np.int8)
        b = a.copy()
        b[:50] = -1
        score = bit_fidelity(a, b)
        assert 0.0 < score < 1.0
