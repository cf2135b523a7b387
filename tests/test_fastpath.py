"""Golden and regression tests for the sampling/encoding fast path.

Two guarantees:

* **Parity** — the hoisted-conditioning, fused-CFG sampler produces
  bitwise-identical latents to the pre-change per-step two-forward path
  (reimplemented here as ``_legacy_eps_model``) under a fixed rng seed.
* **Work regression** — ``sample_latents`` performs exactly one
  compiled denoiser forward (``infer.forward``) per DDIM step per batch,
  and one conditioning hoist — two prompt encodes plus one ControlNet
  encode — per distinct (prompt, rows) closure (zero re-encodes inside
  the step loop), asserted via the perf counters.
"""

import numpy as np
import pytest

from repro import perf
from repro.core.ddim import DDIMSampler
from repro.core.pipeline import (
    NULL_PROMPT,
    PipelineConfig,
    TextToTrafficPipeline,
)
from repro.ml.nn import Tensor
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


def _legacy_eps_model(pipeline, prompt, n, mask, guidance_weight):
    """The pre-fast-path closure: per-step re-encodes, two CFG forwards."""
    cond_prompts = [prompt] * n
    null_prompts = [NULL_PROMPT] * n
    mask_batch = None
    if mask is not None and pipeline.controlnet is not None:
        mask_batch = np.broadcast_to(mask, (n, mask.shape[0]))

    def eps(x_t, t):
        cond = pipeline.prompt_encoder(cond_prompts[: len(x_t)])
        controls = None
        if mask_batch is not None:
            controls = pipeline.controlnet(mask_batch[: len(x_t)])
        eps_cond = pipeline.denoiser(Tensor(x_t), t, cond, controls).data
        if guidance_weight <= 0:
            return eps_cond
        null_cond = pipeline.prompt_encoder(null_prompts[: len(x_t)])
        eps_null = pipeline.denoiser(Tensor(x_t), t, null_cond, None).data
        return (1 + guidance_weight) * eps_cond - guidance_weight * eps_null

    return eps


def _sample(pipeline, eps, n, steps, seed):
    sampler = DDIMSampler(pipeline.diffusion)
    return sampler.sample(
        eps, (n, pipeline.codec.latent_dim),
        np.random.default_rng(seed), steps=steps,
    )


class TestGoldenParity:
    @pytest.mark.parametrize("guidance_weight", [2.0, 0.5, 0.0])
    def test_latents_bitwise_identical_with_control(
        self, fitted, guidance_weight
    ):
        prompt = fitted.codebook.prompt_for("netflix")
        mask = fitted.class_masks["netflix"]
        legacy = _legacy_eps_model(fitted, prompt, 6, mask, guidance_weight)
        fast = fitted._eps_model(prompt, 6, mask, guidance_weight)
        z_legacy = _sample(fitted, legacy, 6, 10, seed=21)
        z_fast = _sample(fitted, fast, 6, 10, seed=21)
        assert np.array_equal(z_legacy, z_fast)

    def test_latents_bitwise_identical_without_control(self, fitted):
        prompt = fitted.codebook.prompt_for("teams")
        legacy = _legacy_eps_model(fitted, prompt, 4, None, 2.0)
        fast = fitted._eps_model(prompt, 4, None, 2.0)
        z_legacy = _sample(fitted, legacy, 4, 8, seed=5)
        z_fast = _sample(fitted, fast, 4, 8, seed=5)
        assert np.array_equal(z_legacy, z_fast)

    def test_sample_latents_deterministic_given_rng(self, fitted):
        a = fitted.sample_latents(
            "netflix", 5, steps=8, rng=np.random.default_rng(17))
        b = fitted.sample_latents(
            "netflix", 5, steps=8, rng=np.random.default_rng(17))
        assert np.array_equal(a, b)


def _hoists() -> int:
    stat = perf.get_registry().timers.get("infer.hoist")
    return stat.calls if stat is not None else 0


class TestForwardCountRegression:
    def _counters_for(self, fitted, **kwargs):
        fitted._invalidate_engines()  # fresh engine, no cached closures
        registry = perf.get_registry()
        before = dict(registry.counters)
        hoists0 = _hoists()
        fitted.sample_latents(**kwargs)
        delta = {
            name: registry.count(name) - before.get(name, 0)
            for name in (
                "infer.forward",
                "denoiser.forward",
                "infer.hoist_prompt",
                "infer.hoist_controls",
                "pipeline.sample_batches",
            )
        }
        delta["hoists"] = _hoists() - hoists0
        return delta

    def test_one_denoiser_forward_per_step(self, fitted):
        steps = 9
        delta = self._counters_for(
            fitted, class_name="netflix", n=4, steps=steps,
            rng=np.random.default_rng(0),
        )
        assert delta["pipeline.sample_batches"] == 1
        # Fused CFG: one compiled forward per DDIM step, not two, and
        # no autograd-tape forwards at all.
        assert delta["infer.forward"] == steps
        assert delta["denoiser.forward"] == 0
        # Conditioning is hoisted once per (prompt, rows): cond + null
        # prompt encodes and one ControlNet encode, zero inside the loop.
        assert delta["hoists"] == 1
        assert delta["infer.hoist_prompt"] == 2
        assert delta["infer.hoist_controls"] == 1

    def test_counts_scale_with_batches(self, fitted):
        steps = 6
        original = fitted.config.generation_batch
        fitted.config.generation_batch = 3
        try:
            delta = self._counters_for(
                fitted, class_name="netflix", n=7, steps=steps,
                rng=np.random.default_rng(0),
            )
        finally:
            fitted.config.generation_batch = original
        assert delta["pipeline.sample_batches"] == 3
        assert delta["infer.forward"] == 3 * steps
        # Batches of 3, 3 and 1 rows: the second 3-row batch reuses the
        # first one's closure, so two hoists.
        assert delta["hoists"] == 2
        assert delta["infer.hoist_prompt"] == 4
        assert delta["infer.hoist_controls"] == 2

    def test_unguided_sampling_also_one_forward_per_step(self, fitted):
        steps = 7
        delta = self._counters_for(
            fitted, class_name="netflix", n=4, steps=steps,
            guidance_weight=0.0, rng=np.random.default_rng(0),
        )
        assert delta["infer.forward"] == steps
        # No null branch without guidance: a single prompt encode.
        assert delta["infer.hoist_prompt"] == 1


class TestPromptTokenCache:
    def test_repeated_prompts_tokenize_once(self, fitted):
        enc = fitted.prompt_encoder
        enc._token_cache.clear()
        calls = 0
        original = enc.vocab.encode

        def counting_encode(text):
            nonlocal calls
            calls += 1
            return original(text)

        enc.vocab.encode = counting_encode
        try:
            enc(["type-0 traffic"] * 8)
            enc(["type-0 traffic"] * 8)
        finally:
            enc.vocab.encode = original
        assert calls == 1

    def test_cache_invalidates_when_vocab_grows(self, fitted):
        enc = fitted.prompt_encoder
        ids_before = enc._encode_cached("brand-new-token")
        enc.vocab.add("brand-new-token")
        ids_after = enc._encode_cached("brand-new-token")
        assert ids_before != ids_after
        assert ids_after == enc.vocab.encode("brand-new-token")


class TestMaterializedMaskBatch:
    def test_controls_built_from_writable_mask(self, fitted):
        """The hoisted mask batch is materialized, not a read-only view."""
        captured = []
        original = fitted.controlnet.pool_mask

        def capture(mask):
            captured.append(np.asarray(mask))
            return original(mask)

        fitted._invalidate_engines()  # force a fresh conditioning hoist
        fitted.controlnet.pool_mask = capture
        try:
            fitted.sample_latents(
                "netflix", 3, steps=2, rng=np.random.default_rng(0))
        finally:
            fitted.controlnet.pool_mask = original
        assert captured
        batch = captured[0]
        assert batch.flags.writeable
        assert batch.strides[0] != 0
