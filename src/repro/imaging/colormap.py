"""Ternary nprint values <-> RGB image pixels.

The paper renders each flow's nprint matrix as an image: "We assign pixel
colors red for bits valued 1, green for 0, and grey for -1" (§3.1), and the
generated image is "color processed to restrict it to the aforementioned
distinct colors" before the back-transform.  This module implements both
directions: exact rendering, and nearest-color quantisation of arbitrary
float/uint8 RGB output from a generative model.
"""

from __future__ import annotations

import numpy as np

from repro.nprint.fields import VACANT

# Canonical colors, uint8 RGB.
COLOR_ONE = np.array([220, 50, 47], dtype=np.uint8)  # red   -> bit 1
COLOR_ZERO = np.array([60, 160, 60], dtype=np.uint8)  # green -> bit 0
COLOR_VACANT = np.array([128, 128, 128], dtype=np.uint8)  # grey -> -1

_PALETTE = np.stack([COLOR_ZERO, COLOR_ONE, COLOR_VACANT]).astype(np.float64)
_PALETTE_VALUES = np.array([0, 1, VACANT], dtype=np.int8)


def ternary_to_rgb(matrix: np.ndarray) -> np.ndarray:
    """Render a ternary matrix (values in {-1, 0, 1}) as an (H, W, 3) image."""
    matrix = np.asarray(matrix)
    if not np.isin(matrix, (-1, 0, 1)).all():
        raise ValueError("matrix must contain only {-1, 0, 1}")
    out = np.empty(matrix.shape + (3,), dtype=np.uint8)
    out[matrix == 1] = COLOR_ONE
    out[matrix == 0] = COLOR_ZERO
    out[matrix == VACANT] = COLOR_VACANT
    return out


def rgb_to_ternary(image: np.ndarray) -> np.ndarray:
    """Quantise an (H, W, 3) image back to ternary by nearest palette color.

    This is the paper's "color processing" step: synthetic images from the
    diffusion model land between the canonical colors, and each pixel snaps
    to whichever of red/green/grey is nearest in RGB space.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3 or image.shape[-1] != 3:
        raise ValueError(f"expected (H, W, 3) image, got {image.shape}")
    flat = image.reshape(-1, 3)
    # Squared distance to each of the 3 palette colors: (N, 3) matrix.
    d = ((flat[:, None, :] - _PALETTE[None, :, :]) ** 2).sum(axis=2)
    nearest = np.argmin(d, axis=1)
    return _PALETTE_VALUES[nearest].reshape(image.shape[:2])


def continuous_to_ternary(
    matrix: np.ndarray,
    vacant_threshold: float = 0.5,
) -> np.ndarray:
    """Quantise a continuous nprint-space matrix directly to {-1, 0, 1}.

    The latent diffusion pipeline works on matrices scaled so 1 -> 1.0,
    0 -> 0.0 and vacant -> -1.0; this rounds each value to the nearest of
    the three levels.  Values below ``-vacant_threshold`` become vacant.
    """
    matrix = np.asarray(matrix)
    if matrix.dtype != np.float32:
        matrix = np.asarray(matrix, dtype=np.float64)
    # float64 thresholds compare float32 input exactly, without a copy.
    out = (matrix >= np.float64(0.5)).view(np.int8)
    np.copyto(out, VACANT, where=matrix < np.float64(-vacant_threshold))
    return out


def compose_grid(
    images: list[np.ndarray],
    gap: int = 4,
    gap_color: tuple[int, int, int] = (255, 255, 255),
) -> np.ndarray:
    """Stack RGB images vertically with a separator band.

    Used by the Figure 2 harness to render real-vs-synthetic flow images
    side by side.  Images must share a width; heights may differ.
    """
    if not images:
        raise ValueError("need at least one image")
    prepared = []
    width = None
    for img in images:
        img = np.asarray(img)
        if img.ndim != 3 or img.shape[2] != 3:
            raise ValueError("compose_grid expects (H, W, 3) images")
        if width is None:
            width = img.shape[1]
        elif img.shape[1] != width:
            raise ValueError("images must share a width")
        prepared.append(img.astype(np.uint8))
    band = np.empty((gap, width, 3), dtype=np.uint8)
    band[:] = np.asarray(gap_color, dtype=np.uint8)
    rows: list[np.ndarray] = []
    for i, img in enumerate(prepared):
        if i:
            rows.append(band)
        rows.append(img)
    return np.concatenate(rows, axis=0)
