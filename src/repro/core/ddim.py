"""DDIM accelerated sampling (Song et al., 2021).

§4 of the paper flags "generative speed" — the multi-step sampling
procedure of diffusion models — as an open challenge for high-throughput
trace generation.  DDIM is the canonical mitigation: a deterministic
(eta = 0) sampler over a strided subsequence of the training timesteps,
trading steps for fidelity.  The step-count sweep
in ``benchmarks/test_bench_speed.py`` regenerates that trade-off curve.
"""

from __future__ import annotations

import numpy as np

from repro.core.ddpm import EpsModel, GaussianDiffusion

#: bound on the predicted x0 at every DDIM step
CLIP_X0 = 3.0


def ddim_timesteps(train_steps: int, sample_steps: int) -> np.ndarray:
    """An evenly strided, strictly decreasing timestep subsequence."""
    if not 1 <= sample_steps <= train_steps:
        raise ValueError("need 1 <= sample_steps <= train_steps")
    steps = np.linspace(0, train_steps - 1, sample_steps)
    return np.unique(steps.astype(np.int64))[::-1]


class DDIMSampler:
    """Strided deterministic (eta = 0) sampler sharing a trained DDPM's schedule."""

    def __init__(self, diffusion: GaussianDiffusion):
        self.diffusion = diffusion

    def sample(
        self,
        eps_model: EpsModel,
        shape: tuple[int, ...],
        rng: np.random.Generator,
        steps: int = 50,
        dtype: np.dtype | None = None,
    ) -> np.ndarray:
        """Generate samples with ``steps`` network evaluations.

        ``dtype`` selects the working precision of the trajectory (e.g.
        ``np.float32`` for the fast inference tier).  Noise is always
        drawn in float64 and cast, so the RNG stream — and therefore the
        sample trajectory up to rounding — is independent of ``dtype``.
        """
        schedule = self.diffusion.schedule
        ts = ddim_timesteps(schedule.timesteps, steps)
        # Per-step update coefficients depend only on the schedule and the
        # strided timesteps — hoist them out of the (batched, repeated)
        # step loop.  Python floats keep the float64 math bit-identical
        # and, under NEP 50, do not promote a float32 trajectory.
        coeffs: list[tuple[float, float]] = []
        for i, t in enumerate(ts):
            prev_t = ts[i + 1] if i + 1 < len(ts) else -1
            alpha_bar_prev = (
                float(schedule.alpha_bars[prev_t]) if prev_t >= 0 else 1.0
            )
            coeffs.append((float(np.sqrt(alpha_bar_prev)),
                           float(np.sqrt(1 - alpha_bar_prev))))
        x = rng.standard_normal(shape)
        if dtype is not None:
            x = x.astype(dtype, copy=False)
        # One reusable timestep vector, refilled per step — eps models
        # read it synchronously and never retain it.
        t_vec = np.empty(shape[0], dtype=np.int64)
        for i, t in enumerate(ts):
            t_vec.fill(t)
            eps = eps_model(x, t_vec)
            x0_hat = self.diffusion.predict_x0(x, t_vec, eps)
            x0_hat = np.clip(x0_hat, -CLIP_X0, CLIP_X0)
            x0_coeff, dir_coeff = coeffs[i]
            x = x0_coeff * x0_hat + dir_coeff * eps
            # One discarded full-batch draw per step keeps the RNG stream
            # that the pinned output bytes were generated with.
            rng.standard_normal(shape)
        return x
