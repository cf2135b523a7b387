"""ControlNet-style conditioning branch for inter-packet constraints.

The paper's third tier: "a controlling element which governs the shape and
inter-packet dependencies within each class to ensure synthetic data
reflect realistic protocol usage patterns in flows.  ControlNet serves as
a strong example of this component, guiding the generation process via
one-shot controls" (§3.1).

This module reproduces the two ControlNet ideas at our scale:

* **Zero-initialised side branch** — a control signal (here: the flow's
  per-column protocol *structure mask*) is encoded by a trainable branch
  whose per-block output projections start at exactly zero
  (:class:`~repro.ml.nn.modules.ZeroLinear`), so attaching the branch to a
  pretrained denoiser is initially a no-op and influence grows with
  fine-tuning.
* **One-shot control at inference** — generation for a class is guided by
  a single reference mask (e.g. the class's canonical TCP/UDP occupancy
  pattern), optionally hard-projected onto the final sample
  (:func:`apply_structure_guidance`).
"""

from __future__ import annotations

import numpy as np

from repro import perf
from repro.ml.nn import Linear, Module, Tensor, ZeroLinear
from repro.nprint.fields import NPRINT_BITS, REGION_SLICES, VACANT


def structure_mask(matrix: np.ndarray) -> np.ndarray:
    """Per-column occupancy of a flow's nprint matrix, in [0, 1].

    ``matrix`` is ``(P, 1088)`` ternary; the mask is the fraction of
    non-padding packets in which each bit column is non-vacant.  The mask
    captures exactly the constraint the paper demonstrates in Fig. 2: for
    an all-TCP flow the TCP region is ~1 and the UDP/ICMP regions are 0.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[1] != NPRINT_BITS:
        raise ValueError(f"expected (P, {NPRINT_BITS}), got {matrix.shape}")
    packet_rows = ~np.all(matrix == VACANT, axis=1)
    if not packet_rows.any():
        return np.zeros(NPRINT_BITS)
    rows = matrix[packet_rows]
    return (rows != VACANT).mean(axis=0)


class ControlNetBranch(Module):
    """Encode a control mask into per-block injections for the denoiser.

    The mask (1088-d) is first pooled into a compact signature, encoded by
    a small MLP, then emitted through one :class:`ZeroLinear` per denoiser
    block — the "zero convolution" connections of ControlNet.
    """

    #: pooling factor from the 1088 mask columns to the branch input
    POOL = 16

    def __init__(self, hidden: int, blocks: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_dim = NPRINT_BITS // self.POOL  # 68 pooled mask features
        self.hidden = hidden
        self.n_blocks = blocks
        self.encoder1 = Linear(self.in_dim, hidden, rng=rng)
        self.encoder2 = Linear(hidden, hidden, rng=rng)
        self.zero_projections = [
            ZeroLinear(hidden, hidden, rng=rng) for _ in range(blocks)
        ]
        for i, proj in enumerate(self.zero_projections):
            self.register_module(f"zero{i}", proj)

    def pool_mask(
        self, mask: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Average-pool a (B, 1088) mask batch to (B, in_dim).

        float32 input is pooled in float32 (the inference tier); anything
        else is promoted to float64 as before.  ``out=`` threads a
        ``(B, in_dim)`` workspace (same values bitwise — ``mean`` writes
        through it) for the compiled training engine.
        """
        mask = np.asarray(mask)
        if mask.dtype != np.float32:
            mask = np.asarray(mask, dtype=np.float64)
        if mask.ndim == 1:
            mask = mask[None, :]
        if mask.shape[1] != NPRINT_BITS:
            raise ValueError(f"mask width must be {NPRINT_BITS}")
        b = mask.shape[0]
        pooled = mask.reshape(b, self.in_dim, self.POOL)
        if out is None:
            return pooled.mean(axis=2)
        return pooled.mean(axis=2, out=out)

    def forward(self, mask: np.ndarray) -> list[Tensor]:
        """Per-block control injections for a batch of masks."""
        perf.incr("controlnet.forward")
        pooled = Tensor(self.pool_mask(mask))
        h = self.encoder2(self.encoder1(pooled).silu()).silu()
        return [proj(h) for proj in self.zero_projections]

    def is_identity(self) -> bool:
        """True while every zero projection is still exactly zero."""
        return all(
            not proj.weight.data.any()
            and (proj.bias is None or not proj.bias.data.any())
            for proj in self.zero_projections
        )


def packet_rows(matrix: np.ndarray) -> np.ndarray:
    """Which rows of ``(..., P, 1088)`` matrices hard guidance keeps.

    Padding rows (trailing all-vacant rows of the fixed-height image)
    must stay padding.  Detection uses the *fixed* 20-byte IPv4 span:
    always present (mean ~0.2) on packet rows, all vacant (-1) on
    padding rows.  The full region would mislead — its 40 option bytes
    are usually vacant, dragging packet rows to ~-0.58.  The mean is
    taken in float64 whatever the input dtype: a float32 mean can land
    on the other side of -0.5.
    """
    ipv4 = REGION_SLICES["ipv4"]
    fixed = matrix[..., ipv4.start : ipv4.start + 160].astype(np.float64)
    return fixed.mean(axis=-1) > -0.5


def apply_structure_guidance(
    matrix: np.ndarray,
    mask: np.ndarray,
    threshold: float = 0.5,
) -> np.ndarray:
    """Project continuous generated matrices onto a structure mask.

    ``matrix`` is one flow ``(P, 1088)`` or a batch ``(..., P, 1088)``;
    the mask broadcasts over the leading axes.  Columns the mask marks
    unoccupied (< threshold) are forced vacant; columns it marks occupied
    have their values pulled out of the vacant range so quantisation
    keeps them.  Rows that are not :func:`packet_rows` become all vacant.
    This is the hard inference-time constraint that guarantees Fig. 2's
    "all packets strictly conform to the dominant protocol type".
    float32 input stays float32 (every output value is an input value,
    0, 1 or -1); anything else is promoted to float64.
    """
    matrix = np.asarray(matrix)
    if matrix.dtype != np.float32:
        matrix = np.asarray(matrix, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    if matrix.ndim < 2 or matrix.shape[-1] != mask.shape[0]:
        raise ValueError("matrix/mask shape mismatch")
    off = mask < threshold
    # Pull occupied columns of packet rows out of the vacant band.
    guided = np.clip(matrix, 0.0, 1.0)
    np.copyto(guided, -1.0, where=off)
    guided[~packet_rows(matrix)] = -1.0
    return guided
