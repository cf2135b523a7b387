"""Golden/parity tests for the pre-binned forest fast path.

Pins the PR-5 classifier rebuild:

* same-seed fits are bitwise identical (predictions, probabilities);
* flattened struct-of-arrays inference matches node-walk inference;
* the sample-weight bootstrap matches the semantics of materialising
  ``X[idx]`` per tree;
* accuracy stays within tolerance of the legacy per-node-scan
  implementation (reimplemented below, as the old code is gone);
* ``n_classes`` is threaded from the forest into every tree;
* fit/predict are observable through ``repro.perf``.
"""

import numpy as np
import pytest

from repro import perf
from repro.ml.forest import DecisionTree, RandomForest


# -- the legacy implementation (pre-binned-forest), kept as the reference ----
class _LegacyTree:
    """The old per-node sort/scan CART tree, verbatim in behaviour."""

    def __init__(self, max_depth=18, min_samples_split=2, min_samples_leaf=1,
                 max_features=None, max_thresholds=8, rng=None):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.max_thresholds = max_thresholds
        self.rng = rng or np.random.default_rng()
        self._root = None
        self.n_classes = 0

    def fit(self, X, y):
        X = np.asarray(X, dtype=np.float32)
        y = np.asarray(y, dtype=np.int64)
        self.n_classes = int(y.max()) + 1
        self._root = self._grow(X, y, 0)
        return self

    def _leaf(self, y):
        dist = np.bincount(y, minlength=self.n_classes).astype(np.float64)
        return {"dist": dist / dist.sum()}

    def _grow(self, X, y, depth):
        n = len(y)
        if (depth >= self.max_depth or n < self.min_samples_split
                or len(np.unique(y)) == 1):
            return self._leaf(y)
        split = self._best_split(X, y)
        if split is None:
            return self._leaf(y)
        feature, threshold, _gain = split
        mask = X[:, feature] <= threshold
        if mask.sum() < self.min_samples_leaf or (~mask).sum() < self.min_samples_leaf:
            return self._leaf(y)
        return {
            "feature": feature, "threshold": threshold,
            "left": self._grow(X[mask], y[mask], depth + 1),
            "right": self._grow(X[~mask], y[~mask], depth + 1),
        }

    def _best_split(self, X, y):
        n, n_features = X.shape
        if self.max_features is None or self.max_features >= n_features:
            features = np.arange(n_features)
        else:
            features = self.rng.choice(
                n_features, size=self.max_features, replace=False)
        onehot = np.zeros((n, self.n_classes))
        onehot[np.arange(n), y] = 1.0
        class_totals = onehot.sum(axis=0)
        parent_gini = 1.0 - ((class_totals / n) ** 2).sum()
        best, best_gain = None, 1e-12
        for feature in features:
            column = X[:, feature]
            values = np.unique(column)
            if values.size <= 1:
                continue
            thresholds = (values[:-1] + values[1:]) / 2.0
            if thresholds.size > self.max_thresholds:
                idx = np.linspace(
                    0, thresholds.size - 1, self.max_thresholds).astype(int)
                thresholds = thresholds[np.unique(idx)]
            le = column[:, None] <= thresholds[None, :]
            left_counts = le.T @ onehot
            left_n = left_counts.sum(axis=1)
            right_counts = class_totals[None, :] - left_counts
            right_n = n - left_n
            valid = (left_n >= self.min_samples_leaf) & (
                right_n >= self.min_samples_leaf)
            if not valid.any():
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                gini_l = 1.0 - ((left_counts / left_n[:, None]) ** 2).sum(axis=1)
                gini_r = 1.0 - ((right_counts / right_n[:, None]) ** 2).sum(axis=1)
            weighted = (left_n * gini_l + right_n * gini_r) / n
            weighted[~valid] = np.inf
            t = int(np.argmin(weighted))
            gain = parent_gini - weighted[t]
            if gain > best_gain:
                best_gain = gain
                best = (int(feature), float(thresholds[t]), float(gain))
        return best

    def predict_proba(self, X):
        X = np.asarray(X, dtype=np.float32)
        out = np.empty((len(X), self.n_classes))
        for i, row in enumerate(X):
            node = self._root
            while "dist" not in node:
                node = (node["left"] if row[node["feature"]] <= node["threshold"]
                        else node["right"])
            out[i] = node["dist"]
        return out


class _LegacyForest:
    """The old bootstrap-copy forest with per-tree class-axis padding."""

    def __init__(self, n_trees=30, max_depth=18, seed=0):
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.seed = seed
        self.trees = []
        self.n_classes = 0

    def fit(self, X, y):
        X = np.asarray(X, dtype=np.float32)
        y = np.asarray(y, dtype=np.int64)
        self.n_classes = int(y.max()) + 1
        n = len(X)
        max_features = max(1, int(np.sqrt(X.shape[1])))
        rng = np.random.default_rng(self.seed)
        for _ in range(self.n_trees):
            idx = rng.integers(0, n, size=n)
            tree = _LegacyTree(
                max_depth=self.max_depth, max_features=max_features,
                rng=np.random.default_rng(rng.integers(0, 2**63)))
            tree.fit(X[idx], y[idx])
            self.trees.append(tree)
        return self

    def predict(self, X):
        total = np.zeros((len(X), self.n_classes))
        for tree in self.trees:
            proba = tree.predict_proba(X)
            if proba.shape[1] < self.n_classes:
                padded = np.zeros((len(X), self.n_classes))
                padded[:, : proba.shape[1]] = proba
                proba = padded
            total += proba
        return np.argmax(total, axis=1)


# -- fixtures -----------------------------------------------------------------
@pytest.fixture
def ternary_data(rng):
    """nprint-style ternary features with a learnable rule."""
    X = rng.choice([-1.0, 0.0, 1.0], size=(300, 30)).astype(np.float32)
    y = ((X[:, 3] > 0).astype(np.int64) + (X[:, 11] > 0).astype(np.int64))
    return X, y


@pytest.fixture
def gaussian_data(rng):
    X = rng.normal(size=(400, 8)).astype(np.float32)
    y = ((X[:, 0] + X[:, 2] > 0).astype(np.int64)
         + (X[:, 5] > 0.5).astype(np.int64))
    return X, y


class TestDeterminism:
    def test_same_seed_bitwise_identical(self, ternary_data):
        X, y = ternary_data
        a = RandomForest(n_trees=8, max_depth=10, seed=7).fit(X, y)
        b = RandomForest(n_trees=8, max_depth=10, seed=7).fit(X, y)
        assert np.array_equal(a.predict_proba(X), b.predict_proba(X))
        assert np.array_equal(a.predict(X), b.predict(X))

    def test_same_seed_bitwise_identical_continuous(self, gaussian_data):
        X, y = gaussian_data
        a = RandomForest(n_trees=5, seed=11).fit(X, y)
        b = RandomForest(n_trees=5, seed=11).fit(X, y)
        assert np.array_equal(a.predict_proba(X), b.predict_proba(X))

    def test_different_seed_differs(self, gaussian_data):
        X, y = gaussian_data
        a = RandomForest(n_trees=5, seed=0).fit(X, y)
        b = RandomForest(n_trees=5, seed=1).fit(X, y)
        assert not np.array_equal(a.predict_proba(X), b.predict_proba(X))


class TestFlattenedInference:
    def test_tree_matches_node_walk(self, gaussian_data, rng):
        X, y = gaussian_data
        tree = DecisionTree(max_depth=10, rng=np.random.default_rng(0))
        tree.fit(X, y)
        X_eval = rng.normal(size=(250, X.shape[1])).astype(np.float32)
        assert np.array_equal(
            tree.predict_proba(X_eval), tree._predict_proba_walk(X_eval)
        )

    def test_tree_matches_node_walk_ternary(self, ternary_data, rng):
        X, y = ternary_data
        tree = DecisionTree(max_depth=8, rng=np.random.default_rng(3))
        tree.fit(X, y)
        X_eval = rng.choice([-1.0, 0.0, 1.0], size=(100, X.shape[1]))
        X_eval = X_eval.astype(np.float32)
        assert np.array_equal(
            tree.predict_proba(X_eval), tree._predict_proba_walk(X_eval)
        )

    def test_forest_matches_per_tree_walk(self, ternary_data, rng):
        X, y = ternary_data
        rf = RandomForest(n_trees=6, max_depth=10, seed=2).fit(X, y)
        X_eval = rng.choice([-1.0, 0.0, 1.0], size=(80, X.shape[1]))
        X_eval = X_eval.astype(np.float32)
        reference = np.mean(
            [tree._predict_proba_walk(X_eval) for tree in rf.trees], axis=0
        )
        assert np.allclose(rf.predict_proba(X_eval), reference, atol=1e-12)

    def test_chunked_prediction_consistent(self, ternary_data):
        X, y = ternary_data
        rf = RandomForest(n_trees=4, seed=0).fit(X, y)
        whole = rf._compiled.predict_proba(X)
        chunked = rf._compiled.predict_proba(X, chunk=17)
        assert np.array_equal(whole, chunked)


class TestBootstrapSemantics:
    def test_weight_bootstrap_matches_index_bootstrap(self, ternary_data):
        """w = bincount(idx) must reproduce fitting on X[idx] exactly.

        Holds whenever the bootstrap keeps every column's value set (true
        with overwhelming probability for 300 ternary rows), because then
        both paths bin identically and see identical class histograms.
        """
        X, y = ternary_data
        draw = np.random.default_rng(9)
        idx = draw.integers(0, len(X), size=len(X))
        for j in range(X.shape[1]):  # the precondition, asserted
            assert np.array_equal(np.unique(X[idx, j]), np.unique(X[:, j]))

        materialised = DecisionTree(
            max_depth=10, max_features=5, rng=np.random.default_rng(5)
        ).fit(X[idx], y[idx])
        weighted = DecisionTree(
            max_depth=10, max_features=5, rng=np.random.default_rng(5)
        ).fit(X, y, sample_weight=np.bincount(idx, minlength=len(X)))

        assert np.array_equal(
            materialised.predict_proba(X), weighted.predict_proba(X)
        )

    def test_zero_weight_rows_are_invisible(self, ternary_data):
        X, y = ternary_data
        weight = np.ones(len(y))
        weight[:50] = 0.0
        a = DecisionTree(rng=np.random.default_rng(1)).fit(
            X, y, sample_weight=weight
        )
        b = DecisionTree(rng=np.random.default_rng(1)).fit(X[50:], y[50:])
        assert np.array_equal(a.predict_proba(X), b.predict_proba(X))

    def test_all_zero_weights_raise(self, ternary_data):
        X, y = ternary_data
        with pytest.raises(ValueError):
            DecisionTree().fit(X, y, sample_weight=np.zeros(len(y)))

    def test_negative_weights_raise(self, ternary_data):
        X, y = ternary_data
        with pytest.raises(ValueError):
            DecisionTree().fit(X, y, sample_weight=np.full(len(y), -1.0))


class TestLegacyParity:
    def test_tree_accuracy_matches_legacy_ternary(self, ternary_data):
        X, y = ternary_data
        new = DecisionTree(max_depth=10, rng=np.random.default_rng(0)).fit(X, y)
        old = _LegacyTree(max_depth=10, rng=np.random.default_rng(0)).fit(X, y)
        acc_new = np.mean(new.predict(X) == y)
        acc_old = np.mean(old.predict_proba(X).argmax(axis=1) == y)
        # On ternary data the candidate-split sets coincide, so the fits
        # should agree exactly; allow a whisker for tie-break drift.
        assert abs(acc_new - acc_old) <= 0.02
        assert acc_new >= 0.98

    def test_forest_accuracy_matches_legacy(self, ternary_data):
        X, y = ternary_data
        train, test = slice(0, 240), slice(240, 300)
        new = RandomForest(n_trees=10, max_depth=10, seed=4)
        new.fit(X[train], y[train])
        old = _LegacyForest(n_trees=10, max_depth=10, seed=4)
        old.fit(X[train], y[train])
        acc_new = np.mean(new.predict(X[test]) == y[test])
        acc_old = np.mean(old.predict(X[test]) == y[test])
        # Documented tolerance: binning is computed per fit (not per
        # node), so trees are not node-identical to legacy; generalisation
        # must match within a few test-set samples.
        assert abs(acc_new - acc_old) <= 0.05

    def test_forest_accuracy_matches_legacy_continuous(self, gaussian_data):
        X, y = gaussian_data
        train, test = slice(0, 320), slice(320, 400)
        new = RandomForest(n_trees=10, max_depth=12, seed=8)
        new.fit(X[train], y[train])
        old = _LegacyForest(n_trees=10, max_depth=12, seed=8)
        old.fit(X[train], y[train])
        acc_new = np.mean(new.predict(X[test]) == y[test])
        acc_old = np.mean(old.predict(X[test]) == y[test])
        assert abs(acc_new - acc_old) <= 0.08


class TestNClassesThreading:
    def test_forest_threads_n_classes_into_trees(self, rng):
        # Class 2 has 2 samples: many bootstraps miss it entirely.
        X = rng.normal(size=(102, 4)).astype(np.float32)
        y = np.concatenate(
            [np.zeros(50), np.ones(50), np.full(2, 2)]).astype(np.int64)
        rf = RandomForest(n_trees=12, seed=0).fit(X, y)
        for tree in rf.trees:
            assert tree.n_classes == rf.n_classes == 3
            assert tree.predict_proba(X[:3]).shape == (3, 3)
        assert rf.predict_proba(X).shape == (102, 3)

    def test_explicit_n_classes_widens_tree(self, ternary_data):
        X, y = ternary_data
        tree = DecisionTree(rng=np.random.default_rng(0)).fit(
            X, y, n_classes=7
        )
        proba = tree.predict_proba(X[:5])
        assert proba.shape == (5, 7)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_n_classes_smaller_than_labels_raises(self, ternary_data):
        X, y = ternary_data
        with pytest.raises(ValueError):
            DecisionTree().fit(X, y, n_classes=int(y.max()))


class TestPerfInstrumentation:
    def test_fit_and_predict_are_observable(self, ternary_data):
        X, y = ternary_data
        perf.reset()
        try:
            rf = RandomForest(n_trees=3, seed=0).fit(X, y)
            rf.predict_proba(X[:10])
            snap = perf.snapshot()
            assert snap["timers"]["forest.fit_seconds"]["calls"] == 1
            assert snap["timers"]["forest.predict_seconds"]["calls"] == 1
            assert snap["counters"]["forest.trees_fit"] == 3
            assert snap["counters"]["forest.splits_evaluated"] > 0
        finally:
            perf.reset()
