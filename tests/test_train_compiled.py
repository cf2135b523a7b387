"""Parity, allocation and fallback tests for the compiled training engine.

``compile_training`` walks the denoiser (+ prompt encoder, optionally
the ControlNet branch) into a fused forward+backward+Adam plan over
packed parameter/gradient arrays.  The contract mirrors the inference
engine (``tests/test_infer.py``) but is stricter — training parity is
**bitwise**, not a tolerance:

* **Golden loss** — the compiled engine reproduces the exact pinned
  final loss from ``tests/test_training_fastpath.py``, so compiled and
  eager share one golden constant.
* **Bitwise parity** — loss histories (base + ControlNet phases),
  post-fit weights and the fitted-pipeline cache digest are identical
  across engines.
* **Zero allocations in steady state** — after a batch shape's plan is
  built, further steps perform no workspace-pool traffic at all
  (``infer.ws_miss`` / ``infer.ws_bytes`` pinned flat).
* **Explicit eager for LoRA** — LoRA-adapted trees, warm optimizers
  or Adam subclasses raise :class:`CompileError`; ``add_class`` selects the
  eager tape itself, and a fit never falls back silently.

The eager reference fits run the tape branch of ``_training_loop``
(``eager=True``, see ``tests/eager_oracle.py``).
"""

import numpy as np
import pytest

from eager_oracle import eager_training
from repro import perf
from repro.core.denoiser import ConditionalDenoiser
from repro.core.lora import inject_lora, lora_parameters
from repro.core.pipeline import PipelineConfig, TextToTrafficPipeline
from repro.core.prompt import PromptEncoder, Vocabulary
from repro.core.serialization import pipeline_state_digest
from repro.core.train import CompileError, compile_training
from repro.ml.nn import Adam
from repro.traffic.dataset import generate_app_flows

# Same pinned constant as tests/test_training_fastpath.py: the compiled
# engine must land on the eager loop's exact golden value.
GOLDEN_FINAL_LOSS = 0.7113555794537234


def _config(**overrides):
    base = dict(
        max_packets=10, latent_dim=24, hidden=48, blocks=2,
        timesteps=60, train_steps=40, controlnet_steps=20,
        ddim_steps=8, seed=9,
    )
    base.update(overrides)
    return PipelineConfig(**base)


def _flows():
    return generate_app_flows("netflix", 10, seed=3) + \
        generate_app_flows("teams", 10, seed=3)


def _compile_calls():
    stat = perf.get_registry().timers.get("pipeline.compile_training")
    return stat.calls if stat is not None else 0


@pytest.fixture(scope="module")
def eager():
    with eager_training():
        return TextToTrafficPipeline(_config()).fit(_flows())


@pytest.fixture(scope="module")
def compiled():
    compiles0 = _compile_calls()
    steps0 = perf.counter("train.compiled_step")
    pipeline = TextToTrafficPipeline(_config()).fit(_flows())
    return {
        "pipeline": pipeline,
        "compiles": _compile_calls() - compiles0,
        "compiled_steps": perf.counter("train.compiled_step") - steps0,
    }


class TestGoldenLoss:
    def test_compiled_hits_the_pinned_value(self, compiled):
        history = compiled["pipeline"].training_history
        assert history[-1] == pytest.approx(GOLDEN_FINAL_LOSS, abs=1e-12)

    def test_both_phases_ran_compiled(self, compiled):
        cfg = _config()
        assert compiled["compiles"] == 2  # base + ControlNet
        assert compiled["compiled_steps"] == \
            cfg.train_steps + cfg.controlnet_steps


class TestBitwiseParity:
    def test_loss_histories_identical(self, eager, compiled):
        fast = compiled["pipeline"]
        assert fast.training_history == eager.training_history
        assert fast.controlnet_history == eager.controlnet_history

    def test_trained_weights_identical(self, eager, compiled):
        fast = compiled["pipeline"]
        for module in ("denoiser", "prompt_encoder", "controlnet"):
            fast_state = getattr(fast, module).state_dict()
            eager_state = getattr(eager, module).state_dict()
            assert fast_state.keys() == eager_state.keys()
            for name in fast_state:
                assert np.array_equal(fast_state[name],
                                      eager_state[name]), (module, name)

    def test_cache_digest_invariant_across_engines(self, eager, compiled):
        assert pipeline_state_digest(compiled["pipeline"]) == \
            pipeline_state_digest(eager)

    def test_sampled_latents_identical(self, eager, compiled):
        # Both sample on the compiled engine; the weights are what differ
        # if the engines disagree.
        za = compiled["pipeline"].sample_latents(
            "netflix", 4, steps=6, rng=np.random.default_rng(13))
        zb = eager.sample_latents(
            "netflix", 4, steps=6, rng=np.random.default_rng(13))
        assert np.array_equal(za, zb)


def _tiny_trainer(seed=0):
    rng = np.random.default_rng(seed)
    vocab = Vocabulary(["traffic", "class", "netflix", "teams"])
    encoder = PromptEncoder(vocab, 16, rng=rng)
    denoiser = ConditionalDenoiser(
        latent_dim=12, hidden=24, blocks=2, cond_dim=16, time_dim=16,
        rng=rng,
    )
    optimizer = Adam(
        denoiser.parameters() + encoder.parameters(), lr=1e-3
    )
    return denoiser, encoder, optimizer


def _batch(rng, trainer, batch, width, latent_dim=12, timesteps=50):
    rows = trainer._table.shape[0]
    return (
        rng.standard_normal((batch, latent_dim)),
        rng.integers(0, timesteps, size=batch),
        rng.integers(0, rows, size=(batch, width)),
        np.ones((batch, width)),
        rng.standard_normal((batch, latent_dim)),
    )


class TestZeroAllocationSteadyState:
    def test_no_pool_traffic_after_plan_warmup(self):
        denoiser, encoder, optimizer = _tiny_trainer()
        trainer = compile_training(denoiser, encoder, optimizer)
        rng = np.random.default_rng(1)
        trainer.step(*_batch(rng, trainer, batch=8, width=3))
        miss0 = perf.counter("infer.ws_miss")
        bytes0 = perf.counter("infer.ws_bytes")
        steps0 = perf.counter("train.compiled_step")
        for _ in range(5):
            trainer.step(*_batch(rng, trainer, batch=8, width=3))
        assert perf.counter("infer.ws_miss") - miss0 == 0
        assert perf.counter("infer.ws_bytes") - bytes0 == 0
        assert perf.counter("train.compiled_step") - steps0 == 5

    def test_new_batch_shape_builds_one_plan_then_settles(self):
        denoiser, encoder, optimizer = _tiny_trainer(seed=2)
        trainer = compile_training(denoiser, encoder, optimizer)
        rng = np.random.default_rng(3)
        trainer.step(*_batch(rng, trainer, batch=8, width=3))
        miss0 = perf.counter("infer.ws_miss")
        trainer.step(*_batch(rng, trainer, batch=4, width=2))  # tail batch
        assert perf.counter("infer.ws_miss") - miss0 > 0
        miss1 = perf.counter("infer.ws_miss")
        trainer.step(*_batch(rng, trainer, batch=4, width=2))
        trainer.step(*_batch(rng, trainer, batch=8, width=3))
        assert perf.counter("infer.ws_miss") - miss1 == 0


class TestCompileErrors:
    def test_adam_subclass_is_rejected(self):
        """The fused update replicates ``Adam.step`` alone: a subclass
        may override it, so only plain Adam compiles."""

        class TracedAdam(Adam):
            pass

        denoiser, encoder, _ = _tiny_trainer(seed=4)
        optimizer = TracedAdam(
            denoiser.parameters() + encoder.parameters(), lr=1e-3
        )
        with pytest.raises(CompileError, match="TracedAdam"):
            compile_training(denoiser, encoder, optimizer)

    def test_warm_optimizer_is_rejected(self):
        denoiser, encoder, optimizer = _tiny_trainer(seed=5)
        optimizer._t = 3
        with pytest.raises(CompileError):
            compile_training(denoiser, encoder, optimizer)

    def test_lora_tree_is_rejected(self):
        denoiser, encoder, _ = _tiny_trainer(seed=6)
        rng = np.random.default_rng(7)
        inject_lora(denoiser, rank=2, rng=rng)
        params = lora_parameters(denoiser) + encoder.parameters()
        optimizer = Adam(params, lr=1e-3)
        with pytest.raises(CompileError):
            compile_training(denoiser, encoder, optimizer)


class TestLoRAFallback:
    def test_add_class_falls_back_and_matches_eager(self):
        """``add_class`` trains its adapters on the eager tape by
        explicit selection; the compiled base fit underneath it is
        bitwise the eager one, so both LoRA histories agree."""
        new_flows = generate_app_flows("zoom", 6, seed=5)
        fast = TextToTrafficPipeline(
            _config(train_steps=16, controlnet_steps=8)).fit(_flows())
        steps0 = perf.counter("train.compiled_step")
        fast_hist = fast.add_class("zoom", new_flows, rank=2, steps=10)
        assert perf.counter("train.compiled_step") == steps0
        with eager_training():
            ref = TextToTrafficPipeline(
                _config(train_steps=16, controlnet_steps=8)).fit(_flows())
            ref_hist = ref.add_class("zoom", new_flows, rank=2, steps=10)
        assert fast_hist == ref_hist

    def test_training_loop_on_an_adapter_tree_raises(self):
        """No silent fallback: a compile rejection surfaces as an error."""
        pipeline = TextToTrafficPipeline(
            _config(train_steps=4, controlnet_steps=2)).fit(_flows())
        inject_lora(pipeline.denoiser, rank=2, rng=np.random.default_rng(1))
        optimizer = Adam(lora_parameters(pipeline.denoiser), lr=1e-3)
        latents = np.zeros((4, pipeline.codec.latent_dim))
        prompts = [pipeline.codebook.prompt_for("netflix")] * 4
        with pytest.raises(CompileError):
            pipeline._training_loop(
                latents, prompts, optimizer, 1,
                masks=None, verbose=False, tag="lora")
