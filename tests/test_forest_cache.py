"""Tests for forest serialisation and the fitted-classifier cache."""

import numpy as np
import pytest

from repro import perf
from repro.core.serialization import (
    fit_forest_or_load,
    forest_cache_key,
    load_forest,
    save_forest,
)
from repro.experiments import data as expdata
from repro.experiments.config import tiny
from repro.ml.forest import RandomForest


@pytest.fixture
def fitted(rng):
    X = rng.choice([-1.0, 0.0, 1.0], size=(200, 40)).astype(np.float32)
    y = (X[:, 5] > 0).astype(np.int64) + (X[:, 20] > 0).astype(np.int64)
    rf = RandomForest(n_trees=6, max_depth=10, seed=3).fit(X, y)
    return rf, X, y


class TestForestRoundtrip:
    def test_save_load_bitwise_predictions(self, fitted, tmp_path):
        rf, X, _y = fitted
        path = tmp_path / "forest.npz"
        save_forest(rf, path)
        loaded = load_forest(path)
        assert np.array_equal(loaded.predict_proba(X), rf.predict_proba(X))
        assert np.array_equal(loaded.predict(X), rf.predict(X))

    def test_archive_with_importances_loads(self, fitted, tmp_path):
        """Older archives also hold a per-feature ``importances`` array;
        it is ignored and the forest predicts as before."""
        rf, X, _y = fitted
        path = tmp_path / "forest.npz"
        save_forest(rf, path)
        with np.load(path) as archive:
            arrays = {key: archive[key] for key in archive.files}
        np.savez_compressed(path, importances=np.ones(X.shape[1]), **arrays)
        loaded = load_forest(path)
        assert np.array_equal(loaded.predict_proba(X), rf.predict_proba(X))

    def test_metadata_preserved(self, fitted, tmp_path):
        rf, _X, _y = fitted
        path = tmp_path / "forest.npz"
        save_forest(rf, path)
        loaded = load_forest(path)
        assert loaded.get_params() == rf.get_params()
        assert loaded.n_classes == rf.n_classes
        assert loaded.n_features_ == rf.n_features_

    def test_unfitted_save_raises(self, tmp_path):
        with pytest.raises(ValueError):
            save_forest(RandomForest(), tmp_path / "nope.npz")


class TestForestCacheKey:
    def test_key_sensitive_to_params_and_data(self, fitted):
        _rf, X, y = fitted
        base = forest_cache_key({"n_trees": 5, "seed": 0}, X, y)
        assert forest_cache_key({"n_trees": 5, "seed": 0}, X, y) == base
        assert forest_cache_key({"n_trees": 6, "seed": 0}, X, y) != base
        assert forest_cache_key({"n_trees": 5, "seed": 1}, X, y) != base
        X2 = X.copy()
        X2[0, 0] += 1.0
        assert forest_cache_key({"n_trees": 5, "seed": 0}, X2, y) != base
        y2 = y.copy()
        y2[0] = 1 - y2[0]
        assert forest_cache_key({"n_trees": 5, "seed": 0}, X, y2) != base


class TestFitForestOrLoad:
    def test_no_cache_dir_is_plain_fit(self, fitted):
        _rf, X, y = fitted
        rf = fit_forest_or_load(RandomForest(n_trees=4, seed=1), X, y)
        assert rf.predict_proba(X).shape == (len(X), rf.n_classes)

    def test_warm_load_is_bitwise_identical(self, fitted, tmp_path):
        _rf, X, y = fitted
        perf.reset()
        try:
            cold = fit_forest_or_load(
                RandomForest(n_trees=4, seed=1), X, y, cache_dir=tmp_path
            )
            assert perf.counter("forest.cache_miss") == 1
            warm = fit_forest_or_load(
                RandomForest(n_trees=4, seed=1), X, y, cache_dir=tmp_path
            )
            assert perf.counter("forest.cache_hit") == 1
            assert np.array_equal(
                warm.predict_proba(X), cold.predict_proba(X)
            )
        finally:
            perf.reset()

    def test_param_change_misses(self, fitted, tmp_path):
        _rf, X, y = fitted
        perf.reset()
        try:
            fit_forest_or_load(
                RandomForest(n_trees=4, seed=1), X, y, cache_dir=tmp_path
            )
            fit_forest_or_load(
                RandomForest(n_trees=5, seed=1), X, y, cache_dir=tmp_path
            )
            assert perf.counter("forest.cache_miss") == 2
            assert perf.counter("forest.cache_hit") == 0
        finally:
            perf.reset()


class TestExperimentFitForest:
    def test_fit_forest_uses_session_cache(self, fitted, tmp_path):
        _rf, X, y = fitted
        config = tiny(seed=0)
        previous = expdata.get_cache_dir()
        perf.reset()
        try:
            expdata.set_cache_dir(tmp_path)
            a = expdata.fit_forest(X, y, config)
            b = expdata.fit_forest(X, y, config)
            assert perf.counter("forest.cache_miss") == 1
            assert perf.counter("forest.cache_hit") == 1
            assert np.array_equal(a.predict_proba(X), b.predict_proba(X))
        finally:
            expdata.set_cache_dir(previous)
            perf.reset()

    def test_fit_forest_without_cache(self, fitted):
        _rf, X, y = fitted
        config = tiny(seed=0)
        assert expdata.get_cache_dir() is None
        rf = expdata.fit_forest(X, y, config)
        assert rf.n_trees == config.rf_trees
        assert rf.max_depth == config.rf_depth
