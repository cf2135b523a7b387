"""Tests for pipeline save/load and traffic deblurring (§4 extensions)."""

import json

import numpy as np
import pytest

from repro.core import (
    PipelineConfig,
    TextToTrafficPipeline,
    TrafficDeblurrer,
    field_mask,
    load_pipeline,
    save_pipeline,
)
from repro.core.lora import inject_lora, merge_lora
from repro.net.packet import render_flows
from repro.nprint.decoder import read_field
from repro.nprint.encoder import encode_flow, interarrival_channel
from repro.nprint.fields import FIELDS, NPRINT_BITS
from repro.traffic.dataset import generate_app_flows


def _rewrite_meta(src, dest, edit):
    """Copy the archive ``src`` to ``dest`` with ``edit(meta)`` applied."""
    with np.load(src) as archive:
        arrays = {k: archive[k] for k in archive.files}
    meta = json.loads(bytes(arrays["meta_json"]).decode())
    edit(meta)
    arrays["meta_json"] = np.frombuffer(
        json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(dest, **arrays)


@pytest.fixture(scope="module")
def fitted():
    flows = []
    for app in ("netflix", "teams"):
        flows.extend(generate_app_flows(app, 20, seed=19))
    config = PipelineConfig(
        max_packets=12, latent_dim=40, hidden=96, blocks=3,
        timesteps=150, train_steps=400, controlnet_steps=120,
        ddim_steps=12, seed=2,
    )
    return TextToTrafficPipeline(config).fit(flows)


class TestSerialization:
    def test_unfitted_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_pipeline(TextToTrafficPipeline(PipelineConfig()),
                          tmp_path / "x.npz")

    def test_roundtrip_identical_generation(self, fitted, tmp_path):
        path = tmp_path / "pipeline.npz"
        save_pipeline(fitted, path)
        loaded = load_pipeline(path)
        a = fitted.generate_raw("netflix", 3,
                                rng=np.random.default_rng(42))
        b = loaded.generate_raw("netflix", 3,
                                rng=np.random.default_rng(42))
        assert np.array_equal(a.matrices, b.matrices)
        assert [len(f) for f in a.flows] == [len(f) for f in b.flows]

    def test_roundtrip_preserves_metadata(self, fitted, tmp_path):
        path = tmp_path / "pipeline.npz"
        save_pipeline(fitted, path)
        loaded = load_pipeline(path)
        assert loaded.codebook.classes == fitted.codebook.classes
        assert set(loaded.class_masks) == set(fitted.class_masks)
        for name in fitted.class_masks:
            assert np.allclose(loaded.class_masks[name],
                               fitted.class_masks[name])
        assert loaded.config.max_packets == fitted.config.max_packets

    def test_unmerged_lora_rejected(self, fitted, tmp_path):
        import copy

        pipe = copy.deepcopy(fitted)
        inject_lora(pipe.denoiser, rank=2)
        with pytest.raises(ValueError):
            save_pipeline(pipe, tmp_path / "x.npz")
        # Merging makes it saveable again.
        merge_lora(pipe.denoiser)
        save_pipeline(pipe, tmp_path / "merged.npz")
        assert (tmp_path / "merged.npz").exists()

    def test_bad_version_rejected(self, fitted, tmp_path):
        path = tmp_path / "pipeline.npz"
        save_pipeline(fitted, path)
        _rewrite_meta(path, path,
                      lambda meta: meta.update(format_version=999))
        with pytest.raises(ValueError):
            load_pipeline(path)

    def test_retired_ema_config_keys_load_to_the_same_bytes(
        self, fitted, tmp_path
    ):
        """Archives from before the EMA tier was removed still carry
        ``use_ema``/``ema_decay`` in their config; their weights already
        are the sampled ones, so they load and generate byte-identically."""
        path = tmp_path / "pipeline.npz"
        older = tmp_path / "older.npz"
        save_pipeline(fitted, path)
        _rewrite_meta(path, older, lambda meta: meta["config"].update(
            use_ema=True, ema_decay=0.99))
        a = load_pipeline(path).generate_raw(
            "netflix", 3, rng=np.random.default_rng(42))
        b = load_pipeline(older).generate_raw(
            "netflix", 3, rng=np.random.default_rng(42))
        assert np.array_equal(a.matrices, b.matrices)
        datas_a, stamps_a = render_flows(a.flows)
        datas_b, stamps_b = render_flows(b.flows)
        assert list(datas_a) == list(datas_b)
        assert np.array_equal(stamps_a, stamps_b)

    def test_retired_schedule_key_loads_to_the_same_bytes(
        self, fitted, tmp_path
    ):
        """Archives from before the schedule knob was removed carry
        ``schedule: "cosine"`` in their config, the only schedule there
        is; they load and generate byte-identically."""
        path = tmp_path / "pipeline.npz"
        older = tmp_path / "older.npz"
        save_pipeline(fitted, path)
        _rewrite_meta(path, older, lambda meta: meta["config"].update(
            schedule="cosine"))
        a = load_pipeline(path).generate_raw(
            "netflix", 3, rng=np.random.default_rng(42))
        b = load_pipeline(older).generate_raw(
            "netflix", 3, rng=np.random.default_rng(42))
        datas_a, stamps_a = render_flows(a.flows)
        datas_b, stamps_b = render_flows(b.flows)
        assert list(datas_a) == list(datas_b)
        assert np.array_equal(stamps_a, stamps_b)

    def test_linear_schedule_archive_rejected(self, fitted, tmp_path):
        path = tmp_path / "pipeline.npz"
        save_pipeline(fitted, path)
        _rewrite_meta(path, path, lambda meta: meta["config"].update(
            schedule="linear"))
        with pytest.raises(ValueError, match="linear"):
            load_pipeline(path)

    def test_unknown_config_key_rejected(self, fitted, tmp_path):
        path = tmp_path / "pipeline.npz"
        save_pipeline(fitted, path)
        _rewrite_meta(path, path,
                      lambda meta: meta["config"].update(use_swa=True))
        with pytest.raises(TypeError, match="use_swa"):
            load_pipeline(path)


class TestFieldMask:
    def test_marks_named_fields_everywhere(self):
        mask = field_mask(["ipv4.ttl"], max_packets=4)
        fs = FIELDS["ipv4.ttl"]
        assert mask.shape == (4, NPRINT_BITS)
        assert mask[:, fs.start:fs.stop].all()
        assert mask.sum() == 4 * fs.width

    def test_unknown_field_raises(self):
        with pytest.raises(KeyError):
            field_mask(["ipv4.nope"], max_packets=2)


class TestDeblurring:
    def test_requires_fitted_pipeline(self):
        with pytest.raises(ValueError):
            TrafficDeblurrer(TextToTrafficPipeline(PipelineConfig()))

    def test_shape_validation(self, fitted):
        deblurrer = TrafficDeblurrer(fitted)
        with pytest.raises(ValueError):
            deblurrer.deblur(np.zeros((3, NPRINT_BITS), dtype=np.int8),
                             np.zeros((3, NPRINT_BITS), dtype=bool),
                             "netflix")
        good = np.zeros((12, NPRINT_BITS), dtype=np.int8)
        with pytest.raises(ValueError):
            deblurrer.deblur(good, np.zeros((3, NPRINT_BITS), dtype=bool),
                             "netflix")

    def test_zero_steps_rejected(self, fitted):
        matrix = np.zeros((12, NPRINT_BITS), dtype=np.int8)
        with pytest.raises(ValueError, match="steps"):
            TrafficDeblurrer(fitted).deblur(
                matrix, np.zeros(matrix.shape, dtype=bool), "netflix",
                steps=0)

    def test_observed_region_bit_exact(self, fitted):
        flow = generate_app_flows("netflix", 1, seed=77)[0]
        matrix = encode_flow(flow, fitted.config.max_packets)
        deblurrer = TrafficDeblurrer(fitted)
        result = deblurrer.deblur_fields(
            matrix, ["ipv4.ttl"], "netflix",
            rng=np.random.default_rng(0), steps=8,
        )
        missing = field_mask(["ipv4.ttl"], fitted.config.max_packets)
        assert (result.matrix[~missing] == matrix[~missing]).all()
        assert result.missing_fraction == pytest.approx(
            8 / NPRINT_BITS, rel=1e-6)

    def test_restores_class_consistent_ttl(self, fitted):
        """Masked TTL bits should be restored near the class's real TTLs."""
        flow = generate_app_flows("netflix", 1, seed=78)[0]
        matrix = encode_flow(flow, fitted.config.max_packets)
        gaps = interarrival_channel(flow, fitted.config.max_packets)
        true_ttls = [read_field(row, "ipv4.ttl")
                     for row in matrix if (row != -1).any()]
        deblurrer = TrafficDeblurrer(fitted)
        result = deblurrer.deblur_fields(
            matrix, ["ipv4.ttl"], "netflix", gaps=gaps,
            rng=np.random.default_rng(1), steps=10,
        )
        restored = [read_field(row, "ipv4.ttl")
                    for row in result.matrix if (row != -1).any()]
        # Chance level for an 8-bit field is ~128 mean absolute error;
        # the model must do much better than that on a near-constant
        # per-class field.
        errors = [abs(a - b) for a, b in zip(restored, true_ttls)]
        assert np.mean(errors) < 64

    def test_output_is_ternary(self, fitted):
        flow = generate_app_flows("teams", 1, seed=79)[0]
        matrix = encode_flow(flow, fitted.config.max_packets)
        result = TrafficDeblurrer(fitted).deblur_fields(
            matrix, ["udp.length"], "teams",
            rng=np.random.default_rng(2), steps=6,
        )
        assert set(np.unique(result.matrix)) <= {-1, 0, 1}
