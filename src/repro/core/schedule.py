"""The noise schedule of the diffusion process.

The cosine beta schedule (Nichol & Dhariwal, 2021), with every derived
quantity training and the sampler need precomputed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def cosine_betas(timesteps: int, s: float = 0.008) -> np.ndarray:
    """Cosine schedule: slower information destruction early on."""
    if timesteps < 1:
        raise ValueError("timesteps must be >= 1")
    steps = np.arange(timesteps + 1, dtype=np.float64)
    f = np.cos((steps / timesteps + s) / (1 + s) * np.pi / 2) ** 2
    alpha_bar = f / f[0]
    betas = 1.0 - alpha_bar[1:] / alpha_bar[:-1]
    return np.clip(betas, 0.0, 0.999)


@dataclass
class NoiseSchedule:
    """Precomputed diffusion constants for a beta sequence."""

    betas: np.ndarray
    alphas: np.ndarray = field(init=False)
    alpha_bars: np.ndarray = field(init=False)
    sqrt_alpha_bars: np.ndarray = field(init=False)
    sqrt_one_minus_alpha_bars: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        betas = np.asarray(self.betas, dtype=np.float64)
        if betas.ndim != 1 or betas.size < 1:
            raise ValueError("betas must be a non-empty 1-D array")
        if (betas <= 0).any() or (betas >= 1).any():
            raise ValueError("betas must lie strictly inside (0, 1)")
        self.betas = betas
        self.alphas = 1.0 - betas
        self.alpha_bars = np.cumprod(self.alphas)
        self.sqrt_alpha_bars = np.sqrt(self.alpha_bars)
        self.sqrt_one_minus_alpha_bars = np.sqrt(1.0 - self.alpha_bars)

    @property
    def timesteps(self) -> int:
        return len(self.betas)

    @classmethod
    def cosine(cls, timesteps: int = 1000, s: float = 0.008) -> "NoiseSchedule":
        return cls(cosine_betas(timesteps, s))
