"""Integration tests for the full text-to-traffic pipeline."""

import numpy as np
import pytest

from repro.core.controlnet import apply_structure_guidance, structure_mask
from repro.core.pipeline import (
    NULL_PROMPT,
    PipelineConfig,
    TextToTrafficPipeline,
)
from repro.core.postprocess import quantize_matrix, repair_matrix
from repro.core.serialization import load_pipeline, save_pipeline
from repro.net.flow import Flow
from repro.net.headers import IPProto
from repro.net.pcap import read_pcap, write_pcap
from repro.nprint.encoder import encode_flows
from repro.traffic.dataset import generate_app_flows

TRAIN_APPS = ("netflix", "teams", "other")


@pytest.fixture(scope="module")
def train_flows():
    flows = []
    for app in TRAIN_APPS:
        flows.extend(generate_app_flows(app, 25, seed=11))
    return flows


@pytest.fixture(scope="module")
def fitted(train_flows):
    config = PipelineConfig(
        max_packets=12, latent_dim=40, hidden=96, blocks=3,
        timesteps=150, train_steps=450, controlnet_steps=150,
        ddim_steps=15, seed=5,
    )
    return TextToTrafficPipeline(config).fit(train_flows)


class TestFit:
    def test_empty_flows_rejected(self):
        with pytest.raises(ValueError):
            TextToTrafficPipeline(PipelineConfig()).fit([])

    def test_unlabelled_flows_rejected(self, sample_flow):
        flow = Flow(packets=sample_flow.packets, label="")
        with pytest.raises(ValueError):
            TextToTrafficPipeline(PipelineConfig()).fit([flow])

    def test_codebook_covers_classes(self, fitted):
        assert fitted.codebook.classes == sorted(TRAIN_APPS)

    def test_training_loss_decreases(self, fitted):
        hist = fitted.training_history
        early = np.mean(hist[:50])
        late = np.mean(hist[-50:])
        assert late < early

    def test_class_templates_stored(self, fitted):
        assert set(fitted.class_masks) == set(TRAIN_APPS)
        for mask in fitted.class_masks.values():
            assert mask.shape == (1088,)
            assert 0 <= mask.min() and mask.max() <= 1

    def test_generate_before_fit_raises(self):
        pipe = TextToTrafficPipeline(PipelineConfig())
        with pytest.raises(RuntimeError):
            pipe.generate("netflix", 1)


class TestGeneration:
    def test_flows_nonempty_and_labelled(self, fitted):
        flows = fitted.generate("netflix", 6)
        assert len(flows) == 6
        assert all(f.label == "netflix" for f in flows)
        assert all(len(f) > 0 for f in flows)

    def test_unknown_class_raises(self, fitted):
        with pytest.raises(KeyError):
            fitted.generate("spotify", 1)

    def test_bad_n_raises(self, fitted):
        with pytest.raises(ValueError):
            fitted.generate("netflix", 0)

    def test_zero_steps_raises(self, fitted):
        """``steps=0`` is out of range, not a request for the default."""
        with pytest.raises(ValueError, match="steps"):
            fitted.generate_raw("netflix", 1, steps=0)
        with pytest.raises(ValueError, match="steps"):
            fitted.generate_coalesced(
                "netflix", [(1, np.random.default_rng(0))], steps=0)

    def test_protocol_compliance_tcp_class(self, fitted):
        flows = fitted.generate("netflix", 8)
        protos = [p.ip.proto for f in flows for p in f.packets]
        assert all(p == IPProto.TCP for p in protos)

    def test_protocol_compliance_udp_class(self, fitted):
        flows = fitted.generate("teams", 8)
        dominant = [f.dominant_protocol for f in flows if len(f)]
        assert all(p == IPProto.UDP for p in dominant)

    def test_generated_packets_serialise_to_pcap(self, fitted, tmp_path):
        flows = fitted.generate("netflix", 3)
        path = tmp_path / "synthetic.pcap"
        packets = [p for f in flows for p in f.packets]
        assert write_pcap(path, sorted(packets, key=lambda p: p.timestamp)) \
            == len(packets)
        assert len(read_pcap(path)) == len(packets)

    def test_reproducible_with_seeded_rng(self, fitted):
        a = fitted.generate_raw("netflix", 2, rng=np.random.default_rng(3))
        b = fitted.generate_raw("netflix", 2, rng=np.random.default_rng(3))
        assert np.array_equal(a.matrices, b.matrices)
        assert np.array_equal(a.gaps, b.gaps)

    def test_generation_result_artefacts(self, fitted):
        res = fitted.generate_raw("teams", 3)
        assert res.matrices.shape == (3, 12, 1088)
        assert res.gaps.shape == (3, 12)
        assert (res.gaps >= 0).all()
        assert res.label == "teams"

    def test_generate_balanced(self, fitted):
        flows = fitted.generate_balanced(4)
        labels = [f.label for f in flows]
        for app in TRAIN_APPS:
            assert labels.count(app) == 4

    def test_generate_returns_plain_flows(self, fitted):
        """Flows kept by a caller hold their packets, not the chunk's arrays."""
        rng = np.random.default_rng(5)
        flows = fitted.generate("netflix", 3, rng=rng)
        assert all(type(f.packets) is list for f in flows)
        batch = fitted.generate_raw("netflix", 3,
                                    rng=np.random.default_rng(5)).flows
        assert [f.packets for f in flows] == [list(f.packets) for f in batch]

    def test_sample_latents_shape(self, fitted):
        z = fitted.sample_latents("netflix", 5, steps=8)
        assert z.shape == (5, fitted.codec.latent_dim)
        assert np.isfinite(z).all()

    def test_guidance_weight_zero_works(self, fitted):
        flows = fitted.generate("netflix", 2, guidance_weight=0.0)
        assert all(len(f) > 0 for f in flows)

    def test_timestamps_monotone(self, fitted):
        for flow in fitted.generate("netflix", 4):
            ts = [p.timestamp for p in flow.packets]
            assert ts == sorted(ts)


def _guided_chain(pipe, class_name, n, seed, mask) -> np.ndarray:
    """The reference hard-guidance finalize of
    ``generate_raw(class_name, n, rng=default_rng(seed))``: the same
    latents, decoded to continuous matrices, then guidance, quantisation
    and repair as separate passes."""
    latents = pipe.sample_latents(class_name, n,
                                  rng=np.random.default_rng(seed))
    continuous, _ = pipe._devectorize(pipe.codec.decode(latents))
    return repair_matrix(quantize_matrix(
        apply_structure_guidance(continuous, mask)))


class TestMaskCompiledFinalize:
    """Generation follows the class's current mask: neither the column
    plan nor the sampler's ControlNet conditioning is ever one built from
    a mask the class no longer has."""

    def test_replaced_mask_is_followed(self, fitted):
        old = fitted.class_masks["netflix"]
        new = fitted.class_masks["teams"]
        dtypes = (None, np.float32)

        def latents(dtype):
            return fitted.sample_latents(
                "netflix", 3, rng=np.random.default_rng(0), dtype=dtype)

        first = fitted.generate_raw("netflix", 3,
                                    rng=np.random.default_rng(0))
        assert np.array_equal(first.matrices,
                              _guided_chain(fitted, "netflix", 3, 0, old))
        before = {dtype: latents(dtype) for dtype in dtypes}
        fitted.class_masks["netflix"] = new
        try:
            again = fitted.generate_raw("netflix", 3,
                                        rng=np.random.default_rng(0))
            follows_new = _guided_chain(fitted, "netflix", 3, 0, new)
            follows_old = _guided_chain(fitted, "netflix", 3, 0, old)
            swapped = {dtype: latents(dtype) for dtype in dtypes}
            fitted._invalidate_engines()
            fresh = {dtype: latents(dtype) for dtype in dtypes}
        finally:
            fitted.class_masks["netflix"] = old
        assert np.array_equal(again.matrices, follows_new)
        assert not np.array_equal(again.matrices, follows_old)
        for dtype in dtypes:
            # The swapped-in mask conditions the sampler exactly as it
            # does on a freshly compiled engine.
            assert np.array_equal(swapped[dtype], fresh[dtype]), dtype
            assert not np.array_equal(fresh[dtype], before[dtype]), dtype

    def test_loaded_archive_mask_is_followed(self, fitted, tmp_path):
        old = fitted.class_masks["netflix"]
        save_pipeline(fitted, tmp_path / "a.npz")
        fitted.class_masks["netflix"] = fitted.class_masks["teams"]
        try:
            save_pipeline(fitted, tmp_path / "b.npz")
        finally:
            fitted.class_masks["netflix"] = old
        before = load_pipeline(tmp_path / "a.npz")
        first = before.generate_raw("netflix", 3,
                                    rng=np.random.default_rng(0))
        assert np.array_equal(first.matrices,
                              _guided_chain(before, "netflix", 3, 0, old))
        loaded = load_pipeline(tmp_path / "b.npz")
        new = loaded.class_masks["netflix"]
        assert not np.array_equal(new, old)
        again = loaded.generate_raw("netflix", 3,
                                    rng=np.random.default_rng(0))
        assert np.array_equal(again.matrices,
                              _guided_chain(loaded, "netflix", 3, 0, new))
        assert not np.array_equal(again.matrices,
                                  _guided_chain(loaded, "netflix", 3, 0, old))


class TestAddClass:
    def test_lora_class_addition(self, fitted, train_flows):
        new_flows = generate_app_flows("zoom", 15, seed=13)
        before = {
            name: p.data.copy()
            for name, p in fitted.denoiser.named_parameters()
            if "lora" not in name
        }
        history = fitted.add_class("zoom", new_flows, rank=3, steps=120)
        assert len(history) == 120
        # The class mask is the mean structure mask of its flows.
        encoded = encode_flows(new_flows, fitted.config.max_packets)
        assert np.array_equal(
            fitted.class_masks["zoom"],
            np.stack([structure_mask(m) for m in encoded]).mean(axis=0),
        )
        # Base weights untouched (LoRA contract).
        for name, p in fitted.denoiser.named_parameters():
            if name in before:
                assert np.allclose(p.data, before[name]), name
        # The new class generates non-empty, correctly-labelled flows.
        flows = fitted.generate("zoom", 4)
        assert all(f.label == "zoom" for f in flows)
        assert all(len(f) > 0 for f in flows)
        # Its hard-guided output follows the mask add_class assigned.
        zoom = fitted.generate_raw("zoom", 3, rng=np.random.default_rng(0))
        assert np.array_equal(zoom.matrices, _guided_chain(
            fitted, "zoom", 3, 0, fitted.class_masks["zoom"]))
        # Old classes still work.
        old = fitted.generate("netflix", 2)
        assert all(len(f) > 0 for f in old)

    def test_add_class_requires_flows(self, fitted):
        with pytest.raises(ValueError):
            fitted.add_class("empty-class", [])


class TestNullPrompt:
    def test_null_prompt_in_vocab(self, fitted):
        assert NULL_PROMPT in fitted.vocab
