"""Unit tests for noise schedules, DDPM machinery and the DDIM sampler."""

import numpy as np
import pytest

from repro.core.ddim import DDIMSampler, ddim_timesteps
from repro.core.ddpm import GaussianDiffusion
from repro.core.schedule import NoiseSchedule, cosine_betas


def _linear(timesteps: int) -> NoiseSchedule:
    """The DDPM linear schedule (Ho et al., 2020) as an explicit beta list."""
    return NoiseSchedule(np.linspace(1e-4, 0.02, timesteps))


class TestSchedules:
    def test_cosine_in_range(self):
        betas = cosine_betas(100)
        assert (betas >= 0).all() and (betas <= 0.999).all()

    def test_invalid_timesteps(self):
        with pytest.raises(ValueError):
            cosine_betas(0)

    def test_alpha_bars_monotone_decreasing(self):
        for schedule in (_linear(50), NoiseSchedule.cosine(50)):
            diffs = np.diff(schedule.alpha_bars)
            assert (diffs < 0).all()
            assert 0 < schedule.alpha_bars[-1] < schedule.alpha_bars[0] < 1

    def test_derived_quantities_consistent(self):
        s = _linear(20)
        assert np.allclose(s.alphas, 1 - s.betas)
        assert np.allclose(s.sqrt_alpha_bars ** 2, s.alpha_bars)
        assert np.allclose(
            s.sqrt_one_minus_alpha_bars ** 2, 1 - s.alpha_bars)

    def test_invalid_betas_rejected(self):
        with pytest.raises(ValueError):
            NoiseSchedule(np.array([0.0, 0.5]))
        with pytest.raises(ValueError):
            NoiseSchedule(np.array([1.0]))
        with pytest.raises(ValueError):
            NoiseSchedule(np.zeros((2, 2)) + 0.1)


class TestGaussianDiffusion:
    @pytest.fixture
    def diffusion(self):
        return GaussianDiffusion(_linear(100))

    def test_q_sample_t0_close_to_x0(self, diffusion, rng):
        x0 = rng.normal(size=(8, 4))
        noise = rng.standard_normal(x0.shape)
        x_t = diffusion.q_sample(x0, np.zeros(8, dtype=int), noise)
        assert np.allclose(x_t, x0, atol=0.2)

    def test_q_sample_final_t_mostly_noise(self, diffusion, rng):
        x0 = np.full((2000, 1), 5.0)
        noise = rng.standard_normal(x0.shape)
        x_t = diffusion.q_sample(x0, np.full(2000, 99, dtype=int), noise)
        # At the end of a linear(100) schedule alpha_bar ~ 0.36.
        assert abs(x_t.mean()) < 5.0 * 0.8

    def test_q_sample_timestep_bounds(self, diffusion, rng):
        x0 = rng.normal(size=(2, 3))
        noise = rng.standard_normal(x0.shape)
        with pytest.raises(IndexError):
            diffusion.q_sample(x0, np.array([100, 0]), noise)
        with pytest.raises(IndexError):
            diffusion.q_sample(x0, np.array([-1, 0]), noise)

    def test_predict_x0_inverts_q_sample(self, diffusion, rng):
        x0 = rng.normal(size=(8, 4))
        t = rng.integers(0, 100, size=8)
        noise = rng.standard_normal(x0.shape)
        x_t = diffusion.q_sample(x0, t, noise)
        recovered = diffusion.predict_x0(x_t, t, noise)
        assert np.allclose(recovered, x0, atol=1e-9)

    def test_training_batch_shapes(self, diffusion, rng):
        x0 = rng.normal(size=(16, 4))
        x_t, t, noise = diffusion.sample_training_batch(x0, rng)
        assert x_t.shape == (16, 4)
        assert t.shape == (16,)
        assert noise.shape == (16, 4)
        assert (t >= 0).all() and (t < 100).all()


class TestDDIM:
    def test_timestep_subsequence(self):
        ts = ddim_timesteps(100, 10)
        assert ts[0] == 99
        assert ts[-1] == 0
        assert (np.diff(ts) < 0).all()

    def test_full_steps_identity(self):
        ts = ddim_timesteps(10, 10)
        assert ts.tolist() == list(range(9, -1, -1))

    def test_invalid_steps(self):
        with pytest.raises(ValueError):
            ddim_timesteps(10, 0)
        with pytest.raises(ValueError):
            ddim_timesteps(10, 11)

    def test_oracle_recovers_point_mass_few_steps(self, rng):
        mu = np.array([1.5, -0.5])
        schedule = _linear(200)
        diffusion = GaussianDiffusion(schedule)

        def oracle(x_t, t):
            ab = schedule.alpha_bars[t].reshape(-1, 1)
            return (x_t - np.sqrt(ab) * mu) / np.sqrt(1 - ab)

        sampler = DDIMSampler(diffusion)
        samples = sampler.sample(oracle, (100, 2), rng, steps=10)
        assert np.allclose(samples.mean(axis=0), mu, atol=0.2)

    def test_deterministic_with_eta_zero(self, rng):
        schedule = _linear(50)
        diffusion = GaussianDiffusion(schedule)
        eps = lambda x, t: x * 0.1
        sampler = DDIMSampler(diffusion)
        a = sampler.sample(eps, (4, 3), np.random.default_rng(7), steps=5)
        b = sampler.sample(eps, (4, 3), np.random.default_rng(7), steps=5)
        assert np.allclose(a, b)

    def test_fewer_steps_fewer_model_calls(self, rng):
        schedule = _linear(100)
        diffusion = GaussianDiffusion(schedule)
        calls = []

        def counting(x, t):
            calls.append(int(t[0]))
            return np.zeros_like(x)

        DDIMSampler(diffusion).sample(counting, (1, 2), rng, steps=7)
        assert len(calls) == 7
