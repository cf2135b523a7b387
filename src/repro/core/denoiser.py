"""The conditional denoising network (epsilon-predictor).

A residual MLP over latent vectors, conditioned on the diffusion timestep
(sinusoidal embedding -> MLP) and a prompt/condition vector, with optional
per-block injections from a ControlNet branch.  This is the NumPy-scale
stand-in for the paper's Stable Diffusion UNet: same role (predict the
noise added at step t, given text conditioning and control features),
laptop-sized capacity.
"""

from __future__ import annotations

import numpy as np

from repro import perf
from repro.ml.nn import LayerNorm, Linear, Module, SiLU, Tensor


def sinusoidal_freqs(dim: int) -> np.ndarray:
    """The constant frequency row of :func:`sinusoidal_time_embedding`.

    Callers that embed every step (the compiled trainer) compute this
    once and pass it back via ``freqs=``.
    """
    half = dim // 2
    return np.exp(-np.log(10000.0) * np.arange(half) / max(half - 1, 1))


def sinusoidal_time_embedding(
    t: np.ndarray,
    dim: int,
    out: np.ndarray | None = None,
    freqs: np.ndarray | None = None,
    angles: np.ndarray | None = None,
) -> np.ndarray:
    """Transformer-style sinusoidal embedding of integer timesteps.

    With ``out=`` the sin/cos halves are written directly into the given
    ``(len(t), dim)`` float64 buffer — same values bitwise, no output
    allocation; the compiled training engine threads its workspace here,
    along with a precomputed ``freqs`` row (:func:`sinusoidal_freqs`)
    and a ``(len(t), dim // 2)`` ``angles`` scratch.
    """
    if dim % 2:
        raise ValueError("embedding dim must be even")
    t = np.asarray(t, dtype=np.float64).reshape(-1, 1)
    half = dim // 2
    if freqs is None:
        freqs = sinusoidal_freqs(dim)
    if angles is None:
        angles = t * freqs[None, :]
    else:
        np.multiply(t, freqs[None, :], out=angles)
    if out is None:
        return np.concatenate([np.sin(angles), np.cos(angles)], axis=1)
    np.sin(angles, out=out[:, :half])
    np.cos(angles, out=out[:, half:])
    return out


class ResidualBlock(Module):
    """Pre-norm residual block with additive conditioning.

    ``h + W2 silu(W1 (LN(h) + t_emb + c_emb [+ control]))`` — conditioning
    enters additively before the block MLP, the standard adaptive pattern
    at this scale.
    """

    def __init__(self, hidden: int, rng: np.random.Generator):
        super().__init__()
        self.norm = LayerNorm(hidden)
        self.fc1 = Linear(hidden, hidden, rng=rng)
        self.fc2 = Linear(hidden, hidden, rng=rng)
        # Start the second projection small so deep stacks are stable.
        self.fc2.weight.data *= 0.1

    def forward(
        self,
        h: Tensor,
        t_emb: Tensor,
        c_emb: Tensor,
        control: Tensor | None = None,
    ) -> Tensor:
        x = self.norm(h) + t_emb + c_emb
        if control is not None:
            x = x + control
        return h + self.fc2(self.fc1(x).silu())


class ConditionalDenoiser(Module):
    """epsilon(z_t, t, condition) with optional ControlNet injections."""

    def __init__(
        self,
        latent_dim: int,
        hidden: int = 256,
        blocks: int = 4,
        cond_dim: int = 64,
        time_dim: int = 64,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if blocks < 1:
            raise ValueError("need at least one residual block")
        rng = rng or np.random.default_rng()
        self.latent_dim = latent_dim
        self.hidden = hidden
        self.time_dim = time_dim
        self.n_blocks = blocks

        self.input_proj = Linear(latent_dim, hidden, rng=rng)
        self.time_proj1 = Linear(time_dim, hidden, rng=rng)
        self.time_proj2 = Linear(hidden, hidden, rng=rng)
        self.cond_proj = Linear(cond_dim, hidden, rng=rng)
        self.blocks = [ResidualBlock(hidden, rng) for _ in range(blocks)]
        for i, block in enumerate(self.blocks):
            self.register_module(f"block{i}", block)
        self.out_norm = LayerNorm(hidden)
        self.output_proj = Linear(hidden, latent_dim, rng=rng)
        # Zero-init output so the initial prediction is unbiased noise.
        self.output_proj.weight.data[:] = 0.0

    def forward(
        self,
        z_t: Tensor,
        t: np.ndarray,
        cond: Tensor,
        controls: list[Tensor] | None = None,
    ) -> Tensor:
        """Predict the noise in ``z_t``.

        ``controls`` — one injection tensor per residual block, produced by
        :class:`repro.core.controlnet.ControlNetBranch`; None disables
        control (the base text-to-traffic path).
        """
        if controls is not None and len(controls) != self.n_blocks:
            raise ValueError(
                f"expected {self.n_blocks} control tensors, got {len(controls)}"
            )
        perf.incr("denoiser.forward")
        perf.incr("denoiser.rows", len(z_t.data))
        # The embedding is computed in float64 for accuracy, then cast to
        # the latent dtype (identity for the float64 path) so a float32
        # forward stays float32 end-to-end.
        emb = sinusoidal_time_embedding(t, self.time_dim).astype(
            z_t.data.dtype, copy=False
        )
        t_emb = Tensor(emb)
        t_hidden = self.time_proj2(self.time_proj1(t_emb).silu())
        c_hidden = self.cond_proj(cond)
        h = self.input_proj(z_t)
        for i, block in enumerate(self.blocks):
            control = controls[i] if controls is not None else None
            h = block(h, t_hidden, c_hidden, control)
        return self.output_proj(self.out_norm(h))
