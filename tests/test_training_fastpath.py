"""Golden and parity tests for the vectorized training-loop fast path.

``_training_loop`` precomputes the conditioning token table once, gathers
batch rows by integer index, and draws the classifier-free-guidance
dropout mask with a single vectorized RNG call per step.  Two guarantees:

* **Parity** — the fast loop is bitwise-equal to the pre-change per-row
  path (reimplemented here as ``_legacy_training_loop``): same loss
  history, same trained weights, same sampled latents.
* **Golden loss** — the final base-training loss for a pinned
  (config, dataset) pair is frozen to the exact pre-change value, so any
  accidental change to the training RNG stream or conditioning math
  fails loudly.
"""

import types

import numpy as np
import pytest

from repro.core.pipeline import (
    NULL_PROMPT,
    PipelineConfig,
    TextToTrafficPipeline,
)
from repro.ml.nn import Tensor, mse_loss
from repro.traffic.dataset import generate_app_flows

# Final training_history entry for _config()/_flows(), captured from the
# pre-fast-path loop.  Exact float: the fast path must match bitwise.
GOLDEN_FINAL_LOSS = 0.7113555794537234


def _config():
    return PipelineConfig(
        max_packets=10, latent_dim=24, hidden=48, blocks=2,
        timesteps=60, train_steps=40, controlnet_steps=20,
        ddim_steps=8, seed=9,
    )


def _flows():
    return generate_app_flows("netflix", 10, seed=3) + \
        generate_app_flows("teams", 10, seed=3)


def _legacy_training_loop(
    self, latents, prompts, optimizer, steps, masks, verbose, tag,
):
    """The pre-fast-path loop: per-row dropout draws, per-batch
    re-tokenisation through the string interface."""
    cfg = self.config
    n = len(latents)
    history = []
    prompts = list(prompts)
    for step in range(steps):
        idx = self._rng.integers(0, n, size=min(cfg.batch_size, n))
        x0 = latents[idx]
        batch_prompts = [
            NULL_PROMPT if self._rng.random() < cfg.cond_dropout
            else prompts[i]
            for i in idx
        ]
        x_t, t, noise = self.diffusion.sample_training_batch(x0, self._rng)
        cond = self.prompt_encoder(batch_prompts)
        controls = None
        if masks is not None:
            controls = self.controlnet(masks[idx])
        eps = self.denoiser(Tensor(x_t), t, cond, controls)
        loss = mse_loss(eps, noise)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
        history.append(float(loss.data))
    return history


@pytest.fixture(scope="module")
def fitted():
    return TextToTrafficPipeline(_config()).fit(_flows())


@pytest.fixture(scope="module")
def legacy_fitted():
    pipeline = TextToTrafficPipeline(_config())
    pipeline._training_loop = types.MethodType(_legacy_training_loop,
                                               pipeline)
    return pipeline.fit(_flows())


class TestGoldenLoss:
    def test_final_base_loss_pinned(self, fitted):
        assert fitted.training_history[-1] == \
            pytest.approx(GOLDEN_FINAL_LOSS, abs=1e-12)

    def test_legacy_loop_reproduces_the_golden_value(self, legacy_fitted):
        # Anchors the pin itself: the reference implementation still
        # lands on the committed constant.
        assert legacy_fitted.training_history[-1] == \
            pytest.approx(GOLDEN_FINAL_LOSS, abs=1e-12)


class TestLegacyParity:
    def test_loss_histories_bitwise_equal(self, fitted, legacy_fitted):
        assert fitted.training_history == legacy_fitted.training_history
        assert fitted.controlnet_history == legacy_fitted.controlnet_history

    def test_trained_weights_bitwise_equal(self, fitted, legacy_fitted):
        for module in ("denoiser", "prompt_encoder", "controlnet"):
            fast_state = getattr(fitted, module).state_dict()
            legacy_state = getattr(legacy_fitted, module).state_dict()
            assert fast_state.keys() == legacy_state.keys()
            for name in fast_state:
                assert np.array_equal(fast_state[name],
                                      legacy_state[name]), (module, name)

    def test_sampled_latents_bitwise_equal(self, fitted, legacy_fitted):
        za = fitted.sample_latents(
            "netflix", 4, steps=6, rng=np.random.default_rng(13))
        zb = legacy_fitted.sample_latents(
            "netflix", 4, steps=6, rng=np.random.default_rng(13))
        assert np.array_equal(za, zb)


class TestFastPathWork:
    def test_unique_prompts_tokenized_once_per_loop(self):
        """The fast loop must not re-tokenise prompt strings per step."""
        pipeline = TextToTrafficPipeline(_config())
        calls = []
        original = TextToTrafficPipeline._training_loop

        def counting_loop(self, latents, prompts, *args, **kwargs):
            encoder = self.prompt_encoder
            encode = encoder.vocab.encode
            encoder.vocab.encode = lambda text: (calls.append(text),
                                                 encode(text))[1]
            try:
                return original(self, latents, prompts, *args, **kwargs)
            finally:
                encoder.vocab.encode = encode

        pipeline._training_loop = types.MethodType(counting_loop, pipeline)
        pipeline.fit(_flows())
        # Two training loops (base + controlnet) over 2 classes + the
        # null prompt: at most one tokenisation per distinct prompt per
        # loop, regardless of step count.
        assert len(calls) <= 2 * 3
        assert len(set(calls)) <= 3
