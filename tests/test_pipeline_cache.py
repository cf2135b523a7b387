"""Tests for the content-addressed fitted-pipeline cache.

The cache (:func:`repro.core.serialization.fit_or_load`) keys archives by
a digest of the pipeline config plus a fingerprint of the training flows.
The load-bearing guarantee: a pipeline loaded from the cache generates
*identical* flows to a freshly fitted one for identical RNG streams —
warm- and cold-cache harness runs must agree bit-for-bit.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import perf
from repro.core.pipeline import PipelineConfig, TextToTrafficPipeline
from repro.core.serialization import (
    dataset_fingerprint,
    fit_or_load,
    pipeline_cache_key,
)
from repro.experiments import data
from repro.traffic.dataset import generate_app_flows


def _config(**overrides):
    base = dict(
        max_packets=8, latent_dim=16, hidden=32, blocks=2,
        timesteps=40, train_steps=20, controlnet_steps=10,
        ddim_steps=6, seed=5,
    )
    base.update(overrides)
    return PipelineConfig(**base)


@pytest.fixture(scope="module")
def flows():
    return generate_app_flows("netflix", 8, seed=11) + \
        generate_app_flows("teams", 8, seed=12)


@pytest.fixture(scope="module")
def cache(flows, tmp_path_factory):
    """One cold fit (populates the cache) + one warm load, shared below."""
    cache_dir = tmp_path_factory.mktemp("pipeline-cache")
    registry = perf.get_registry()
    miss0 = registry.count("pipeline.cache_miss")
    hit0 = registry.count("pipeline.cache_hit")
    fresh = fit_or_load(_config(), flows, cache_dir=cache_dir)
    cached = fit_or_load(_config(), flows, cache_dir=cache_dir)
    return {
        "dir": cache_dir,
        "fresh": fresh,
        "cached": cached,
        "misses": registry.count("pipeline.cache_miss") - miss0,
        "hits": registry.count("pipeline.cache_hit") - hit0,
    }


def _flow_digest(flows):
    # Any difference in labels, packet bytes or timestamps changes this.
    return dataset_fingerprint(flows)


class TestCachedVsFreshParity:
    def test_identical_flows_for_identical_rng(self, cache):
        a = cache["fresh"].generate("netflix", 4,
                                    rng=np.random.default_rng(42))
        b = cache["cached"].generate("netflix", 4,
                                     rng=np.random.default_rng(42))
        assert _flow_digest(a) == _flow_digest(b)

    def test_identical_flows_on_internal_rng(self, cache):
        # A fresh fit's rng has consumed training entropy, a loaded one
        # hasn't; fit_or_load pins both to the same post-fit stream.
        a = cache["fresh"].generate("teams", 3)
        b = cache["cached"].generate("teams", 3)
        assert _flow_digest(a) == _flow_digest(b)

    def test_identical_latents_bitwise(self, cache):
        za = cache["fresh"].sample_latents(
            "netflix", 5, steps=6, rng=np.random.default_rng(7))
        zb = cache["cached"].sample_latents(
            "netflix", 5, steps=6, rng=np.random.default_rng(7))
        assert np.array_equal(za, zb)

    def test_no_cache_dir_matches_cached_fit(self, flows, cache):
        plain = fit_or_load(_config(), flows, cache_dir=None)
        a = plain.generate("netflix", 2, rng=np.random.default_rng(1))
        b = cache["cached"].generate("netflix", 2,
                                     rng=np.random.default_rng(1))
        assert _flow_digest(a) == _flow_digest(b)


class TestCacheMechanics:
    def test_one_miss_then_one_hit(self, cache):
        assert cache["misses"] == 1
        assert cache["hits"] == 1

    def test_archive_on_disk_under_key(self, cache, flows):
        key = pipeline_cache_key(_config(), flows)
        assert (cache["dir"] / f"pipeline-{key}.npz").exists()
        assert len(list(cache["dir"].glob("pipeline-*.npz"))) == 1


class TestCacheKey:
    def test_stable_for_identical_inputs(self, flows):
        assert pipeline_cache_key(_config(), flows) == \
            pipeline_cache_key(_config(), flows)

    def test_config_change_changes_key(self, flows):
        assert pipeline_cache_key(_config(), flows) != \
            pipeline_cache_key(_config(seed=6), flows)
        assert pipeline_cache_key(_config(), flows) != \
            pipeline_cache_key(_config(train_steps=21), flows)

    def test_flow_set_change_changes_key(self, flows):
        assert pipeline_cache_key(_config(), flows) != \
            pipeline_cache_key(_config(), flows[:-1])

    def test_fingerprint_sensitive_to_order_and_labels(self, flows):
        assert dataset_fingerprint(flows) != \
            dataset_fingerprint(list(reversed(flows)))
        relabelled = [type(f)(packets=f.packets, label=f.label + "x")
                      for f in flows]
        assert dataset_fingerprint(flows) != dataset_fingerprint(relabelled)


class TestSessionCacheDirPlumbing:
    def test_fit_pipeline_routes_through_session_cache(self, tmp_path, flows):
        registry = perf.get_registry()
        previous = data.get_cache_dir()
        data.set_cache_dir(tmp_path)
        try:
            miss0 = registry.count("pipeline.cache_miss")
            hit0 = registry.count("pipeline.cache_hit")
            cfg = _config(train_steps=3, controlnet_steps=2)
            data.fit_pipeline(cfg, flows[:6])
            data.fit_pipeline(cfg, flows[:6])
            assert registry.count("pipeline.cache_miss") - miss0 == 1
            assert registry.count("pipeline.cache_hit") - hit0 == 1
            assert list(tmp_path.glob("pipeline-*.npz"))
        finally:
            data.set_cache_dir(previous)

    def test_set_cache_dir_none_disables(self, flows):
        previous = data.get_cache_dir()
        data.set_cache_dir(None)
        try:
            assert data.get_cache_dir() is None
        finally:
            data.set_cache_dir(previous)

    def test_cache_dir_is_the_only_environment_read(self):
        """The library reads no environment variable but ``REPRO_CACHE_DIR``.

        Scans every ``os.environ.get(...)``, ``os.environ[...]`` and
        ``os.getenv(...)`` under ``src/repro`` so an engine switch behind
        an environment variable cannot quietly grow back.
        """
        def is_os_attr(node, name):
            return (isinstance(node, ast.Attribute) and node.attr == name
                    and isinstance(node.value, ast.Name) and node.value.id == "os")

        names = set()
        for path in Path(repro.__file__).parent.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Subscript) and is_os_attr(node.value, "environ"):
                    key = node.slice
                elif isinstance(node, ast.Call) and node.args and (
                    is_os_attr(node.func, "getenv")
                    or (isinstance(node.func, ast.Attribute) and node.func.attr == "get"
                        and is_os_attr(node.func.value, "environ"))
                ):
                    key = node.args[0]
                else:
                    continue
                assert isinstance(key, ast.Constant), f"{path}:{node.lineno}"
                names.add(key.value)
        assert names == {"REPRO_CACHE_DIR"}

    def test_only_the_experiments_import_the_experiments(self):
        """No module outside ``repro.experiments`` imports the harness.

        The library (``core``, ``serve``, the CLI ...) stands on its own;
        the experiments harness builds on it, never the other way round.
        """
        root = Path(repro.__file__).parent
        offenders = []
        for path in root.rglob("*.py"):
            if path.is_relative_to(root / "experiments"):
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module] + [
                        f"{node.module}.{alias.name}" for alias in node.names
                    ]
                else:
                    continue
                if any(name == "repro.experiments"
                       or name.startswith("repro.experiments.")
                       for name in names):
                    offenders.append(f"{path.relative_to(root)}:{node.lineno}")
        assert offenders == []

    def test_every_nn_export_is_imported_by_the_library(self):
        """``repro.ml.nn`` exports only what the library trains with.

        Each name in ``repro.ml.nn.__all__`` is imported by some module
        of ``repro`` outside ``repro/ml/nn``: an export nothing imports
        is an option no model uses, kept only to be tested.
        """
        from repro.ml import nn

        root = Path(repro.__file__).parent
        imported = set()
        for path in root.rglob("*.py"):
            if path.is_relative_to(root / "ml" / "nn"):
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if (
                    isinstance(node, ast.ImportFrom) and node.level == 0
                    and (node.module == "repro.ml.nn"
                         or node.module.startswith("repro.ml.nn."))
                ):
                    imported.update(alias.name for alias in node.names)
        assert sorted(set(nn.__all__) - imported) == []

    def test_every_package_export_is_reached(self):
        """Each subpackage ``__all__`` name is used by some entry point.

        A name counts as reached when a module under ``src/repro``,
        ``examples/`` or ``benchmarks/`` refers to it (a load, an
        attribute or an import) outside every package ``__init__.py`` and
        outside the name's own top-level definition.  An export nothing
        refers to is code that only its tests run.
        """
        src = Path(repro.__file__).parent
        repo = src.parent.parent
        exports = {}
        for init in src.rglob("__init__.py"):
            if init.parent == src:
                continue
            for node in ast.parse(init.read_text(), str(init)).body:
                if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets
                ):
                    for name in ast.literal_eval(node.value):
                        exports.setdefault(name, []).append(
                            str(init.relative_to(src)))

        def own_definitions(tree):
            spans = []
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names = [node.name]
                elif isinstance(node, ast.Assign):
                    names = [t.id for t in node.targets
                             if isinstance(t, ast.Name)]
                elif isinstance(node, ast.AnnAssign):
                    names = [node.target.id]
                else:
                    continue
                spans += [(name, node.lineno, node.end_lineno)
                          for name in names]
            return spans

        reached = set()
        for root in (src, repo / "examples", repo / "benchmarks"):
            for path in root.rglob("*.py"):
                if path.name == "__init__.py":
                    continue
                tree = ast.parse(path.read_text(), str(path))
                spans = own_definitions(tree)
                for node in ast.walk(tree):
                    if isinstance(node, ast.Name) and isinstance(
                            node.ctx, ast.Load):
                        name = node.id
                    elif isinstance(node, ast.Attribute):
                        name = node.attr
                    elif isinstance(node, ast.alias):
                        name = node.name
                    else:
                        continue
                    line = getattr(node, "lineno", 0)
                    if name in exports and not any(
                        name == own and start <= line <= end
                        for own, start, end in spans
                    ):
                        reached.add(name)
        assert {name: where for name, where in exports.items()
                if name not in reached} == {}
