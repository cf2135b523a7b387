"""Gaussian diffusion: forward noising, x0 prediction, training objective.

Model-agnostic DDPM machinery (Ho et al., 2020).  The epsilon-model is any
callable ``eps(x_t, t) -> eps_hat`` over NumPy arrays; the trainable
wrapper lives in :mod:`repro.core.pipeline` and the sampler in
:mod:`repro.core.ddim`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.schedule import NoiseSchedule

EpsModel = Callable[[np.ndarray, np.ndarray], np.ndarray]


class GaussianDiffusion:
    """Forward/reverse diffusion over flat latent vectors."""

    def __init__(self, schedule: NoiseSchedule):
        self.schedule = schedule

    @property
    def timesteps(self) -> int:
        return self.schedule.timesteps

    # -- forward process -----------------------------------------------------
    def q_sample(
        self,
        x0: np.ndarray,
        t: np.ndarray,
        noise: np.ndarray,
        out: np.ndarray | None = None,
        scratch: np.ndarray | None = None,
    ) -> np.ndarray:
        """Sample ``x_t ~ q(x_t | x_0)`` in closed form.

        ``out=`` (with a same-shaped ``scratch``) writes the two products
        and their sum through preallocated buffers — bitwise the same
        values, no per-call allocations; the compiled training loop
        threads its step workspaces here.
        """
        x0 = np.asarray(x0, dtype=np.float64)
        t = np.asarray(t, dtype=np.int64)
        if (t < 0).any() or (t >= self.timesteps).any():
            raise IndexError("timestep out of range")
        sqrt_ab = self.schedule.sqrt_alpha_bars[t].reshape(-1, *([1] * (x0.ndim - 1)))
        sqrt_1mab = self.schedule.sqrt_one_minus_alpha_bars[t].reshape(
            -1, *([1] * (x0.ndim - 1))
        )
        if out is None:
            return sqrt_ab * x0 + sqrt_1mab * noise
        np.multiply(sqrt_ab, x0, out=out)
        np.multiply(sqrt_1mab, noise, out=scratch)
        np.add(out, scratch, out=out)
        return out

    def predict_x0(
        self, x_t: np.ndarray, t: np.ndarray, eps: np.ndarray
    ) -> np.ndarray:
        """Invert the forward process: estimate x0 from (x_t, eps)."""
        t = np.asarray(t, dtype=np.int64)
        if t.ndim == 0 or (t.size > 0 and bool(np.all(t == t.flat[0]))):
            # Constant-t fast path (every sampler batch): Python-float
            # coefficients skip the gather/reshape/astype allocations.
            # Scalar elementwise ops equal the broadcast (n, 1) ops
            # bitwise, and NEP-50 weak scalars match the gathered
            # ``astype(x_t.dtype)`` values at either precision.
            t0 = int(t.flat[0]) if t.ndim else int(t)
            sqrt_ab = float(self.schedule.sqrt_alpha_bars[t0])
            sqrt_1mab = float(self.schedule.sqrt_one_minus_alpha_bars[t0])
            return (x_t - sqrt_1mab * eps) / sqrt_ab
        # Schedule gathers follow x_t's dtype (identity for float64) so
        # float32 sampling does not promote back to float64 every step.
        sqrt_ab = self.schedule.sqrt_alpha_bars[t].reshape(
            -1, *([1] * (x_t.ndim - 1))
        ).astype(x_t.dtype, copy=False)
        sqrt_1mab = self.schedule.sqrt_one_minus_alpha_bars[t].reshape(
            -1, *([1] * (x_t.ndim - 1))
        ).astype(x_t.dtype, copy=False)
        return (x_t - sqrt_1mab * eps) / sqrt_ab

    # -- training -------------------------------------------------------------
    def sample_training_batch(
        self,
        x0: np.ndarray,
        rng: np.random.Generator,
        out: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Draw (x_t, t, eps) for the standard eps-prediction MSE loss.

        ``out=`` supplies an ``(x_t, noise, scratch)`` float64 buffer
        triple: the noise is drawn straight into its buffer (same RNG
        stream, same values) and ``q_sample`` writes through the other
        two, so steady-state training steps allocate nothing here.
        """
        x0 = np.asarray(x0, dtype=np.float64)
        batch = x0.shape[0]
        t = rng.integers(0, self.timesteps, size=batch)
        if out is None:
            noise = rng.standard_normal(x0.shape)
            x_t = self.q_sample(x0, t, noise)
            return x_t, t, noise
        x_t, noise, scratch = out
        rng.standard_normal(out=noise)
        self.q_sample(x0, t, noise, out=x_t, scratch=scratch)
        return x_t, t, noise
