"""Compiled inference engine: parity, allocation, and cache guarantees.

Four guarantees pinned here:

* **Bitwise parity** — float64 latents from the compiled plan (the only
  sampler engine) are bitwise identical to the eager autograd tape
  (``tests/eager_oracle.py``), with and without ControlNet, guided and
  unguided, and for tail batches that don't fill ``generation_batch``.
  The float32 tier is held to the same standard (bitwise today; the
  engine contract only promises tolerance there).
* **Zero-allocation steady state** — after one warm-up sample, further
  sampling performs zero workspace allocations (``infer.ws_miss`` /
  ``infer.ws_bytes`` deltas are exactly 0 while ``infer.ws_hit`` climbs).
* **Cross-chunk conditioning cache** — a multi-chunk streaming run pays
  the prompt/ControlNet/time-embedding hoist once, not once per chunk.
* **Every class compiles** — module trees the compiler cannot express
  (live LoRA adapters) raise :class:`~repro.core.infer.CompileError`; the
  pipeline compiles a merged copy instead, within a pinned tolerance of
  the eager adapter tape.
"""

import copy
from functools import partial

import numpy as np
import pytest

from eager_oracle import eager_sample_latents
from repro import perf
from repro.core.infer import (
    CompiledDenoiser,
    CompileError,
    WorkspacePool,
    compile_denoiser,
)
from repro.core.lora import LoRALinear, inject_lora, merge_lora
from repro.core.pipeline import PipelineConfig, TextToTrafficPipeline
from repro.traffic.dataset import generate_app_flows


@pytest.fixture(scope="module")
def fitted():
    flows = []
    for app in ("netflix", "teams"):
        flows.extend(generate_app_flows(app, 12, seed=3))
    config = PipelineConfig(
        max_packets=10, latent_dim=32, hidden=64, blocks=2,
        timesteps=80, train_steps=60, controlnet_steps=30,
        ddim_steps=10, seed=9,
    )
    return TextToTrafficPipeline(config).fit(flows)


def _latents(pipeline, engine, n=6, steps=8, seed=21, dtype=None,
             class_name="netflix", **kwargs):
    """Latents from the pipeline's compiled sampler or the eager oracle."""
    sample = (
        pipeline.sample_latents if engine == "compiled"
        else partial(eager_sample_latents, pipeline)
    )
    return sample(
        class_name, n, steps=steps,
        rng=np.random.default_rng(seed), dtype=dtype, **kwargs,
    )


class TestBitwiseParity:
    @pytest.mark.parametrize("guidance_weight", [2.0, 0.5, 0.0])
    def test_fp64_with_control(self, fitted, guidance_weight):
        ref = _latents(fitted, "eager", guidance_weight=guidance_weight)
        got = _latents(fitted, "compiled", guidance_weight=guidance_weight)
        assert ref.dtype == got.dtype == np.float64
        assert np.array_equal(ref, got)

    def test_fp64_without_control(self, fitted):
        mask = fitted.class_masks.pop("netflix")
        try:
            ref = _latents(fitted, "eager")
            got = _latents(fitted, "compiled")
        finally:
            fitted.class_masks["netflix"] = mask
        assert np.array_equal(ref, got)

    def test_fp64_tail_batches(self, fitted):
        """n that doesn't divide generation_batch exercises tail rows."""
        original = fitted.config.generation_batch
        fitted.config.generation_batch = 5
        try:
            ref = _latents(fitted, "eager", n=13, steps=6)
            got = _latents(fitted, "compiled", n=13, steps=6)
        finally:
            fitted.config.generation_batch = original
        assert np.array_equal(ref, got)

    def test_fp32_matches_eager_tier(self, fitted):
        ref = _latents(fitted, "eager", dtype=np.float32)
        got = _latents(fitted, "compiled", dtype=np.float32)
        assert ref.dtype == got.dtype == np.float32
        np.testing.assert_allclose(ref, got, rtol=1e-6, atol=1e-6)
        # Stronger than the contract requires: the kernels replicate the
        # eager ufunc sequence, so float32 is bitwise-equal today too.
        assert np.array_equal(ref, got)

    def test_generate_flows_identical(self, fitted):
        flows = fitted.generate("netflix", 4, rng=np.random.default_rng(11))
        rng = np.random.default_rng(11)
        ref_flows = fitted._finalize_latents(
            eager_sample_latents(fitted, "netflix", 4, rng=rng),
            "netflix", rng=rng,
        ).flows
        assert len(flows) == len(ref_flows)
        for a, b in zip(flows, ref_flows):
            assert len(a) == len(b)
            assert [p.timestamp for p in a.packets] == \
                   [p.timestamp for p in b.packets]


class TestSteadyStateAllocation:
    def test_zero_workspace_misses_after_warmup(self, fitted):
        _latents(fitted, "compiled", seed=1)  # warm pool + caches
        miss0 = perf.counter("infer.ws_miss")
        bytes0 = perf.counter("infer.ws_bytes")
        hit0 = perf.counter("infer.ws_hit")
        _latents(fitted, "compiled", seed=2)
        _latents(fitted, "compiled", seed=3)
        assert perf.counter("infer.ws_miss") - miss0 == 0
        assert perf.counter("infer.ws_bytes") - bytes0 == 0
        assert perf.counter("infer.ws_hit") - hit0 > 0

    def test_prewarm_leaves_first_step_allocation_free(self, fitted):
        engine = compile_denoiser(
            fitted.denoiser, batch=4, dtype=None)
        miss0 = perf.counter("infer.ws_miss")
        cond = fitted.prompt_encoder(["x"] * 4).data
        null = fitted.prompt_encoder(["y"] * 4).data
        eps = engine.eps_model(cond, null, 2.0)
        x = np.zeros((4, fitted.denoiser.latent_dim))
        out = eps(x, np.full(4, 3, dtype=np.int64))
        assert out.shape == (4, fitted.denoiser.latent_dim)
        assert perf.counter("infer.ws_miss") - miss0 == 0

    def test_pool_reuses_free_buffers_and_skips_held(self):
        pool = WorkspacePool()
        a = pool.take((4, 8), np.float64)
        b = pool.take((4, 8), np.float64)  # a still held -> new buffer
        assert a is not b
        a_id, b_id = id(a), id(b)
        del a, b
        c = pool.take((4, 8), np.float64)
        assert id(c) in (a_id, b_id)
        # Different shape or dtype never aliases.
        d = pool.take((4, 8), np.float32)
        assert id(d) not in (a_id, b_id)

    def test_pool_bounded_per_key(self):
        pool = WorkspacePool()
        held = [pool.take((2, 2), np.float64)
                for _ in range(WorkspacePool._MAX_PER_KEY + 3)]
        key = ((2, 2), np.dtype(np.float64).str)
        assert len(pool._store[key]) == WorkspacePool._MAX_PER_KEY
        del held
        pool.clear()
        assert not pool._store


class TestConditioningCache:
    def test_stream_hoists_conditioning_once(self, fitted):
        """Chunks 2..k of a streaming run re-encode nothing."""
        registry = perf.get_registry()
        list(fitted.generate_stream(
            "netflix", 4, chunk=4,
            rng=np.random.default_rng(0)))  # build engine + closure
        before = dict(registry.counters)
        chunks = list(fitted.generate_stream(
            "netflix", 12, chunk=4, rng=np.random.default_rng(1)))
        assert len(chunks) == 3
        delta = {
            name: registry.count(name) - before.get(name, 0)
            for name in (
                "infer.hoist_prompt", "infer.hoist_controls",
                "infer.eps_cache_hit", "infer.t_cache_miss",
            )
        }
        assert delta["infer.hoist_prompt"] == 0
        assert delta["infer.hoist_controls"] == 0
        assert delta["infer.eps_cache_hit"] == 3
        assert delta["infer.t_cache_miss"] == 0

    def test_t_hidden_cached_per_timestep_and_rows(self, fitted):
        engine = compile_denoiser(fitted.denoiser)
        first = engine.t_hidden(5, 4)
        miss0 = perf.counter("infer.t_cache_miss")
        again = engine.t_hidden(5, 4)
        assert again is first
        assert perf.counter("infer.t_cache_miss") == miss0
        other = engine.t_hidden(5, 7)
        assert other is not first
        assert other.shape == (7, fitted.denoiser.hidden)

    def test_eps_cache_bounded(self, fitted):
        """More distinct keys than ``max_eps_cache`` evict the oldest."""
        engine = compile_denoiser(fitted.denoiser)
        cond = np.zeros((2, fitted.denoiser.cond_proj.in_features))
        limit = engine.max_eps_cache
        evict0 = perf.counter("infer.eps_cache_evict")
        for i in range(limit + 5):
            engine.eps_model(cond, None, 0.0, key=("prompt", i))
        assert len(engine.eps_cache) == limit
        assert ("prompt", 4) not in engine.eps_cache
        assert ("prompt", 5) in engine.eps_cache
        assert ("prompt", limit + 4) in engine.eps_cache
        assert perf.counter("infer.eps_cache_evict") - evict0 == 5


class TestFallback:
    """The compiler rejects live adapter trees; the pipeline compiles a
    merged copy instead, so every class samples on the compiled plan."""

    def test_lora_tree_raises_compile_error(self, fitted):
        denoiser = copy.deepcopy(fitted.denoiser)
        inject_lora(denoiser, rng=np.random.default_rng(0))
        with pytest.raises(CompileError):
            compile_denoiser(denoiser)

    def test_merged_lora_tree_compiles(self, fitted):
        denoiser = copy.deepcopy(fitted.denoiser)
        inject_lora(denoiser, rng=np.random.default_rng(0))
        merge_lora(denoiser)
        assert isinstance(compile_denoiser(denoiser), CompiledDenoiser)

    def test_lora_class_compiles_merged_copy(self, fitted):
        """An added class samples on a merged compiled copy.

        Folding ``s * A B`` into ``W`` reorders the adapter products, so
        the added class's fp64 latents are pinned to the eager adapter
        tape within 1e-10 absolute (observed ~3e-15), not bitwise.  A pipeline
        without adapters still compiles its own tree: base-class
        latents stay bitwise-equal to the tape.
        """
        assert np.array_equal(_latents(fitted, "eager", n=4, steps=5),
                              _latents(fitted, "compiled", n=4, steps=5))
        lora_pipe = copy.deepcopy(fitted)
        lora_pipe.add_class(
            "zoom", generate_app_flows("zoom", 6, seed=5), rank=2, steps=12)
        adapters = [m for m in _walk(lora_pipe.denoiser)
                    if isinstance(m, LoRALinear)]
        assert adapters and any(a.lora_b.data.any() for a in adapters)
        before = {id(a): a.lora_b.data.copy() for a in adapters}
        for name in ("zoom", "netflix"):
            ref = _latents(lora_pipe, "eager", n=4, steps=5,
                           class_name=name)
            got = _latents(lora_pipe, "compiled", n=4, steps=5,
                           class_name=name)
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-10)
        # The live tree keeps its (unchanged) adapters for fine-tuning.
        for a in adapters:
            assert np.array_equal(a.lora_b.data, before[id(a)])
        assert all(isinstance(m, LoRALinear) for m in adapters)
        engine = lora_pipe._infer_engines[np.dtype(np.float64).str]
        assert isinstance(engine, CompiledDenoiser)

    def test_non_constant_timestep_rejected(self, fitted):
        engine = compile_denoiser(fitted.denoiser)
        cond = np.zeros((3, fitted.denoiser.cond_proj.in_features))
        eps = engine.eps_model(cond, None, 0.0)
        x = np.zeros((3, fitted.denoiser.latent_dim))
        with pytest.raises(CompileError):
            eps(x, np.asarray([1, 2, 3], dtype=np.int64))

    def test_wrong_row_count_rejected(self, fitted):
        engine = compile_denoiser(fitted.denoiser)
        cond = np.zeros((4, fitted.denoiser.cond_proj.in_features))
        eps = engine.eps_model(cond, cond.copy(), 2.0)
        with pytest.raises(ValueError):
            eps(np.zeros((3, fitted.denoiser.latent_dim)),
                np.full(3, 1, dtype=np.int64))


class TestModeSelection:
    """The one engine's per-dtype cache follows the weights."""

    def test_engine_cache_invalidated(self, fitted):
        fitted.sample_latents(
            "netflix", 3, steps=2, rng=np.random.default_rng(0))
        assert fitted._infer_engines
        fitted._invalidate_engines()
        assert not fitted._infer_engines


def _walk(module):
    yield module
    for child in module._modules.values():
        yield from _walk(child)


def _legacy_archive(pipeline, tmp_path):
    """A plain archive and a copy that also carries float32 ``pack32.*``
    weight keys, as shard archives were once written."""
    from repro.core.serialization import save_pipeline

    plain = tmp_path / "plain.npz"
    legacy = tmp_path / "legacy.npz"
    save_pipeline(pipeline, plain)
    with np.load(plain) as archive:
        arrays = {key: archive[key] for key in archive.files}
    modules = [("denoiser", pipeline.denoiser),
               ("prompt", pipeline.prompt_encoder),
               ("controlnet", pipeline.controlnet)]
    for prefix, module in modules:
        for name, value in module.state_dict().items():
            arrays[f"pack32.{prefix}.{name}"] = value.astype(np.float32)
    np.savez(legacy, **arrays)
    return plain, legacy


class TestFp32PackRoundtrip:
    """Archives carrying ``pack32.*`` keys stay valid: they load, sample
    and digest exactly as the plain archive does."""

    def test_legacy_pack_archive_samples_like_plain(self, fitted, tmp_path):
        from repro.core.serialization import load_pipeline

        plain, legacy = _legacy_archive(fitted, tmp_path)
        with np.load(legacy) as archive:
            assert any(k.startswith("pack32.") for k in archive.files)
        for dtype in (np.float32, None):
            a = load_pipeline(plain).sample_latents(
                "netflix", 4, steps=5, rng=np.random.default_rng(2),
                dtype=dtype)
            b = load_pipeline(legacy).sample_latents(
                "netflix", 4, steps=5, rng=np.random.default_rng(2),
                dtype=dtype)
            assert np.array_equal(a, b)

    def test_digest_unchanged_by_pack(self, fitted, tmp_path):
        from repro.core.serialization import (
            load_pipeline,
            pipeline_state_digest,
        )

        plain, legacy = _legacy_archive(fitted, tmp_path)
        digest = pipeline_state_digest(fitted)
        assert pipeline_state_digest(load_pipeline(plain)) == digest
        assert pipeline_state_digest(load_pipeline(legacy)) == digest


class TestPredictX0FastPath:
    def test_constant_t_matches_gather(self, fitted):
        diff = fitted.diffusion
        rng = np.random.default_rng(3)
        x_t = rng.normal(size=(5, fitted.codec.latent_dim))
        eps = rng.normal(size=x_t.shape)
        t = np.full(5, 11, dtype=np.int64)
        fast = diff.predict_x0(x_t, t, eps)
        s1m = diff.schedule.sqrt_one_minus_alpha_bars[t][:, None]
        sab = diff.schedule.sqrt_alpha_bars[t][:, None]
        assert np.array_equal(fast, (x_t - s1m * eps) / sab)

    def test_mixed_t_uses_gather(self, fitted):
        diff = fitted.diffusion
        rng = np.random.default_rng(4)
        x_t = rng.normal(size=(3, fitted.codec.latent_dim))
        eps = rng.normal(size=x_t.shape)
        t = np.asarray([1, 7, 20], dtype=np.int64)
        s1m = diff.schedule.sqrt_one_minus_alpha_bars[t][:, None]
        sab = diff.schedule.sqrt_alpha_bars[t][:, None]
        assert np.allclose(
            diff.predict_x0(x_t, t, eps), (x_t - s1m * eps) / sab)
