"""Image representation of nprint matrices (paper Fig. 2) + PNG codec."""

from repro.imaging.colormap import (
    COLOR_ONE,
    COLOR_VACANT,
    COLOR_ZERO,
    compose_grid,
    continuous_to_ternary,
    rgb_to_ternary,
    ternary_to_rgb,
)
from repro.imaging.png import PngError, read_png, write_png

__all__ = [
    "COLOR_ONE",
    "COLOR_ZERO",
    "COLOR_VACANT",
    "ternary_to_rgb",
    "rgb_to_ternary",
    "continuous_to_ternary",
    "compose_grid",
    "write_png",
    "read_png",
    "PngError",
]
