"""Unit tests for the denoiser, ControlNet branch and LoRA adapters."""

import numpy as np
import pytest

from postprocess_oracle import protocol_mask
from repro.core.controlnet import (
    ControlNetBranch,
    apply_structure_guidance,
    structure_mask,
)
from repro.core.denoiser import ConditionalDenoiser, sinusoidal_time_embedding
from repro.core.lora import LoRALinear, inject_lora, lora_parameters, merge_lora
from repro.ml.nn import Adam, Linear, Tensor, mse_loss
from repro.nprint.encoder import encode_flow, encode_packet
from repro.nprint.fields import NPRINT_BITS, REGION_SLICES, TCP_OFFSET


class TestTimeEmbedding:
    def test_shape(self):
        emb = sinusoidal_time_embedding(np.array([0, 1, 50]), 32)
        assert emb.shape == (3, 32)

    def test_odd_dim_rejected(self):
        with pytest.raises(ValueError):
            sinusoidal_time_embedding(np.array([0]), 31)

    def test_distinct_timesteps_distinct(self):
        emb = sinusoidal_time_embedding(np.array([1, 2]), 16)
        assert not np.allclose(emb[0], emb[1])

    def test_bounded(self):
        emb = sinusoidal_time_embedding(np.arange(1000), 64)
        assert np.abs(emb).max() <= 1.0 + 1e-9


class TestConditionalDenoiser:
    @pytest.fixture
    def denoiser(self, rng):
        return ConditionalDenoiser(latent_dim=8, hidden=32, blocks=2,
                                   cond_dim=6, time_dim=8, rng=rng)

    def test_output_shape(self, denoiser, rng):
        z = Tensor(rng.normal(size=(4, 8)))
        cond = Tensor(rng.normal(size=(4, 6)))
        out = denoiser(z, np.zeros(4, dtype=int), cond)
        assert out.shape == (4, 8)

    def test_initial_output_zero(self, denoiser, rng):
        # Zero-init output projection -> unbiased initial prediction.
        z = Tensor(rng.normal(size=(2, 8)))
        cond = Tensor(rng.normal(size=(2, 6)))
        out = denoiser(z, np.zeros(2, dtype=int), cond)
        assert (out.data == 0).all()

    def test_conditioning_changes_output_after_training_step(self, denoiser, rng):
        z = Tensor(rng.normal(size=(2, 8)))
        target = rng.normal(size=(2, 8))
        opt = Adam(denoiser.parameters(), lr=1e-2)
        for _ in range(5):
            opt.zero_grad()
            out = denoiser(z, np.zeros(2, dtype=int),
                           Tensor(np.ones((2, 6))))
            mse_loss(out, target).backward()
            opt.step()
        a = denoiser(z, np.zeros(2, dtype=int), Tensor(np.ones((2, 6)))).data
        b = denoiser(z, np.zeros(2, dtype=int), Tensor(-np.ones((2, 6)))).data
        assert not np.allclose(a, b)

    def test_wrong_control_count_raises(self, denoiser, rng):
        z = Tensor(rng.normal(size=(2, 8)))
        cond = Tensor(rng.normal(size=(2, 6)))
        with pytest.raises(ValueError):
            denoiser(z, np.zeros(2, dtype=int), cond,
                     controls=[Tensor(np.zeros((2, 32)))])

    def test_needs_one_block(self, rng):
        with pytest.raises(ValueError):
            ConditionalDenoiser(latent_dim=4, blocks=0, rng=rng)

    def test_can_fit_conditional_noise(self, rng):
        """End-to-end sanity: the denoiser learns a cond-dependent target."""
        den = ConditionalDenoiser(latent_dim=4, hidden=64, blocks=2,
                                  cond_dim=2, time_dim=8, rng=rng)
        opt = Adam(den.parameters(), lr=3e-3)
        conds = np.array([[1.0, 0.0], [0.0, 1.0]])
        targets = np.array([[1.0] * 4, [-1.0] * 4])
        z = rng.normal(size=(64, 4))
        idx = rng.integers(0, 2, size=64)
        loss = None
        for _ in range(300):
            opt.zero_grad()
            out = den(Tensor(z), np.zeros(64, dtype=int),
                      Tensor(conds[idx]))
            loss = mse_loss(out, targets[idx])
            loss.backward()
            opt.step()
        assert float(loss.data) < 0.1


class TestStructureMask:
    def test_tcp_flow_mask(self, sample_flow):
        m = encode_flow(sample_flow, max_packets=8)
        mask = structure_mask(m)
        assert mask.shape == (NPRINT_BITS,)
        tcp = REGION_SLICES["tcp"]
        udp = REGION_SLICES["udp"]
        assert mask[tcp.start:tcp.start + 160].mean() == 1.0
        assert mask[udp.start:udp.stop].max() == 0.0

    def test_empty_matrix_zero_mask(self):
        m = np.full((4, NPRINT_BITS), -1, dtype=np.int8)
        assert (structure_mask(m) == 0).all()

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            structure_mask(np.zeros((4, 10), dtype=np.int8))


class TestControlNetBranch:
    def test_zero_init_identity(self, rng):
        branch = ControlNetBranch(hidden=32, blocks=3, rng=rng)
        assert branch.is_identity()
        controls = branch(np.ones((2, NPRINT_BITS)))
        assert len(controls) == 3
        for c in controls:
            assert (c.data == 0).all()

    def test_becomes_active_after_training(self, rng):
        branch = ControlNetBranch(hidden=16, blocks=2, rng=rng)
        opt = Adam(branch.parameters(), lr=1e-2)
        mask = np.ones((4, NPRINT_BITS))
        for _ in range(10):
            opt.zero_grad()
            controls = branch(mask)
            loss = mse_loss(controls[0], np.ones((4, 16)))
            loss.backward()
            opt.step()
        assert not branch.is_identity()
        assert np.abs(branch(mask)[0].data).max() > 0

    def test_mask_pooling_shape(self, rng):
        branch = ControlNetBranch(hidden=16, blocks=1, rng=rng)
        pooled = branch.pool_mask(np.ones(NPRINT_BITS))
        assert pooled.shape == (1, NPRINT_BITS // ControlNetBranch.POOL)

    def test_bad_mask_width_raises(self, rng):
        branch = ControlNetBranch(hidden=16, blocks=1, rng=rng)
        with pytest.raises(ValueError):
            branch.pool_mask(np.ones(100))


class TestStructureGuidance:
    def test_forces_masked_regions_vacant(self, sample_flow):
        m = encode_flow(sample_flow, max_packets=8).astype(np.float64)
        mask = protocol_mask("udp")  # wrong protocol on purpose
        guided = apply_structure_guidance(m, mask)
        tcp = REGION_SLICES["tcp"]
        assert (guided[:5, tcp.start:tcp.stop] == -1.0).all()
        udp = REGION_SLICES["udp"]
        assert (guided[:5, udp.start:udp.stop] >= 0.0).all()

    def test_preserves_padding_rows(self, sample_flow):
        m = encode_flow(sample_flow, max_packets=8).astype(np.float64)
        guided = apply_structure_guidance(m, protocol_mask("tcp"))
        assert (guided[5:] == -1.0).all()

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            apply_structure_guidance(np.zeros((2, 10)), np.zeros(11))


class TestLoRA:
    def test_injection_noop_before_training(self, rng):
        den = ConditionalDenoiser(latent_dim=4, hidden=16, blocks=1,
                                  cond_dim=4, time_dim=4, rng=rng)
        z = Tensor(rng.normal(size=(3, 4)))
        cond = Tensor(rng.normal(size=(3, 4)))
        before = den(z, np.zeros(3, dtype=int), cond).data.copy()
        adapters = inject_lora(den, rank=2, rng=rng)
        assert adapters
        after = den(z, np.zeros(3, dtype=int), cond).data
        assert np.allclose(before, after)

    def test_base_frozen_during_lora_training(self, rng):
        base = Linear(4, 4, rng=rng)
        wrapped = LoRALinear(base, rank=2, rng=rng)
        weight_before = base.weight.data.copy()
        opt = Adam(wrapped.parameters(), lr=1e-2)
        x = Tensor(rng.normal(size=(8, 4)))
        for _ in range(10):
            opt.zero_grad()
            mse_loss(wrapped(x), np.ones((8, 4))).backward()
            opt.step()
        assert np.allclose(base.weight.data, weight_before)
        assert np.abs(wrapped.lora_b.data).max() > 0

    def test_parameters_exclude_base(self, rng):
        wrapped = LoRALinear(Linear(4, 4, rng=rng), rank=2, rng=rng)
        params = wrapped.parameters()
        assert len(params) == 2  # lora_a, lora_b only

    def test_lora_parameters_collector(self, rng):
        den = ConditionalDenoiser(latent_dim=4, hidden=16, blocks=2,
                                  cond_dim=4, time_dim=4, rng=rng)
        adapters = inject_lora(den, rank=2, rng=rng)
        params = lora_parameters(den)
        assert len(params) == 2 * len(adapters)

    def test_merge_matches_adapter_output(self, rng):
        base = Linear(5, 3, rng=rng)
        wrapped = LoRALinear(base, rank=2, rng=rng)
        wrapped.lora_b.data = rng.normal(size=wrapped.lora_b.data.shape)
        x = Tensor(rng.normal(size=(4, 5)))
        adapted = wrapped(x).data
        merged = wrapped.merge()
        assert np.allclose(merged(x).data, adapted, atol=1e-9)

    def test_merge_lora_replaces_modules(self, rng):
        den = ConditionalDenoiser(latent_dim=4, hidden=16, blocks=1,
                                  cond_dim=4, time_dim=4, rng=rng)
        n = len(inject_lora(den, rank=2, rng=rng))
        z = Tensor(rng.normal(size=(2, 4)))
        cond = Tensor(rng.normal(size=(2, 4)))
        before = den(z, np.zeros(2, dtype=int), cond).data.copy()
        assert merge_lora(den) == n
        assert lora_parameters(den) == []
        after = den(z, np.zeros(2, dtype=int), cond).data
        assert np.allclose(before, after, atol=1e-9)

    def test_skip_list_honoured(self, rng):
        den = ConditionalDenoiser(latent_dim=4, hidden=16, blocks=1,
                                  cond_dim=4, time_dim=4, rng=rng)
        inject_lora(den, rank=2, rng=rng, skip=("output_proj",))
        assert isinstance(den.output_proj, Linear)
        assert not isinstance(den.output_proj, LoRALinear)

    def test_invalid_rank(self, rng):
        with pytest.raises(ValueError):
            LoRALinear(Linear(4, 4, rng=rng), rank=0)
