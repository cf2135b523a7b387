"""Unit tests for the decision tree and random forest."""

import numpy as np
import pytest

from repro.ml.forest import DecisionTree, RandomForest


@pytest.fixture
def linearly_separable(rng):
    X = rng.normal(size=(200, 5)).astype(np.float32)
    y = (X[:, 0] + X[:, 2] > 0).astype(np.int64)
    return X, y


@pytest.fixture
def xor_data(rng):
    X = rng.normal(size=(400, 2)).astype(np.float32)
    y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(np.int64)
    return X, y


class TestDecisionTree:
    def test_fits_separable(self, linearly_separable):
        X, y = linearly_separable
        tree = DecisionTree(max_depth=8, rng=np.random.default_rng(0))
        tree.fit(X, y)
        assert np.mean(tree.predict(X) == y) > 0.95

    def test_fits_xor(self, xor_data):
        X, y = xor_data
        tree = DecisionTree(max_depth=6, rng=np.random.default_rng(0))
        tree.fit(X, y)
        assert np.mean(tree.predict(X) == y) > 0.9

    def test_pure_node_is_leaf(self):
        X = np.ones((10, 2), dtype=np.float32)
        y = np.zeros(10, dtype=np.int64)
        tree = DecisionTree().fit(X, y)
        assert tree._root.is_leaf

    def test_constant_features_leaf(self):
        X = np.ones((10, 3), dtype=np.float32)
        y = np.array([0, 1] * 5, dtype=np.int64)
        tree = DecisionTree().fit(X, y)
        proba = tree.predict_proba(X)
        assert np.allclose(proba, 0.5)

    def test_max_depth_zero_gives_prior(self, linearly_separable):
        X, y = linearly_separable
        tree = DecisionTree(max_depth=0).fit(X, y)
        proba = tree.predict_proba(X[:1])
        assert proba[0, 1] == pytest.approx(y.mean(), abs=1e-9)

    def test_min_samples_leaf_respected(self, linearly_separable):
        X, y = linearly_separable
        big = DecisionTree(min_samples_leaf=50).fit(X, y)
        small = DecisionTree(min_samples_leaf=1).fit(X, y)
        assert _count_leaves(big._root) <= _count_leaves(small._root)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            DecisionTree().predict(np.zeros((1, 2), dtype=np.float32))

    def test_empty_fit_raises(self):
        with pytest.raises(ValueError):
            DecisionTree().fit(np.zeros((0, 2)), np.zeros(0, dtype=np.int64))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            DecisionTree().fit(np.zeros(5), np.zeros(5, dtype=np.int64))
        with pytest.raises(ValueError):
            DecisionTree().fit(np.zeros((5, 2)), np.zeros(4, dtype=np.int64))

    def test_ternary_features(self, rng):
        # nprint-style data: only {-1, 0, 1} values.
        X = rng.choice([-1, 0, 1], size=(300, 20)).astype(np.float32)
        y = (X[:, 3] > 0).astype(np.int64)
        tree = DecisionTree(max_depth=4, rng=np.random.default_rng(0))
        tree.fit(X, y)
        assert np.mean(tree.predict(X) == y) == 1.0

    def test_multiclass(self, rng):
        X = rng.normal(size=(300, 4)).astype(np.float32)
        y = np.digitize(X[:, 0], [-0.5, 0.5]).astype(np.int64)  # 3 classes
        tree = DecisionTree(max_depth=8, rng=np.random.default_rng(0))
        tree.fit(X, y)
        assert np.mean(tree.predict(X) == y) > 0.9
        assert tree.predict_proba(X).shape == (300, 3)


def _count_leaves(node):
    if node.is_leaf:
        return 1
    return _count_leaves(node.left) + _count_leaves(node.right)


class TestRandomForest:
    def test_beats_chance_on_xor(self, xor_data):
        X, y = xor_data
        rf = RandomForest(n_trees=15, max_depth=8, seed=0).fit(X, y)
        assert rf.score(X, y) > 0.9

    def test_generalisation(self, rng):
        X = rng.normal(size=(500, 6)).astype(np.float32)
        y = ((X[:, 0] > 0) & (X[:, 1] > 0)).astype(np.int64)
        rf = RandomForest(n_trees=20, seed=1).fit(X[:400], y[:400])
        assert rf.score(X[400:], y[400:]) > 0.85

    def test_deterministic_given_seed(self, xor_data):
        X, y = xor_data
        a = RandomForest(n_trees=5, seed=3).fit(X, y).predict(X)
        b = RandomForest(n_trees=5, seed=3).fit(X, y).predict(X)
        assert (a == b).all()

    def test_proba_normalised(self, xor_data):
        X, y = xor_data
        rf = RandomForest(n_trees=5, seed=0).fit(X, y)
        proba = rf.predict_proba(X[:10])
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_rare_class_survives_bootstrap(self, rng):
        # A class with 3 samples: some bootstraps miss it; the ensemble
        # must still emit the right class-axis width.
        X = rng.normal(size=(103, 4)).astype(np.float32)
        y = np.concatenate([np.zeros(50), np.ones(50), np.full(3, 2)])
        y = y.astype(np.int64)
        X[y == 2] += 10.0
        rf = RandomForest(n_trees=10, seed=0).fit(X, y)
        proba = rf.predict_proba(X)
        assert proba.shape == (103, 3)
        assert rf.predict(X[y == 2]).max() == 2

    @pytest.mark.parametrize("max_features", ["sqrt", "log2", 2, None])
    def test_max_features_options(self, xor_data, max_features):
        X, y = xor_data
        rf = RandomForest(n_trees=3, max_features=max_features, seed=0)
        rf.fit(X, y)
        assert rf.score(X, y) > 0.6

    def test_invalid_n_trees(self):
        with pytest.raises(ValueError):
            RandomForest(n_trees=0)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            RandomForest().predict(np.zeros((1, 2), dtype=np.float32))
