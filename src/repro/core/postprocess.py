"""Post-processing: continuous model output -> valid packets -> pcap.

The paper's final stage: "This synthetic image is then color processed to
restrict it to the aforementioned distinct colors and back-transformed
into nprint and finally into pcap format" (§3.1).  Here that is:

1. quantise the continuous matrix to ternary (color processing),
2. repair each row's *structure* — exactly one transport region, fully
   populated fixed header parts, word-aligned options,
3. field-level repair and checksum recomputation in the nprint decoder,
   which emits each packet's wire bytes,
4. serialise through :mod:`repro.net.pcap`.

Each step runs once over a whole ``(n, P, 1088)`` batch of flows
(:func:`matrix_to_flow`); a single flow is a batch of one.  Under hard
structure guidance, steps 1 and 2 and the guidance before them reduce to
one per-mask column plan (:func:`repair_guided`).

The timing channel (per-packet inter-arrival gaps) travels alongside the
bit matrix through the codec; :func:`gaps_to_channel` and
:func:`channel_to_gaps` define the invertible log-scale transform.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.core.controlnet import apply_structure_guidance, packet_rows
from repro.imaging.colormap import continuous_to_ternary
from repro.nprint.decoder import DecodedFlow, FlowBatch, decode_flow
from repro.nprint.fields import (
    FIELDS,
    NPRINT_BITS,
    REGION_SLICES,
    VACANT,
)

# Fixed (option-free) bit spans of each header region.
_IPV4_FIXED_BITS = 160
_TCP_FIXED_BITS = 160

# log1p millisecond scale keeps sub-ms and multi-second gaps both
# representable in roughly [0, 2].
_GAP_SCALE = 5.0


def gaps_to_channel(gaps: np.ndarray) -> np.ndarray:
    """Inter-arrival seconds -> bounded log-scale channel values."""
    gaps = np.maximum(np.asarray(gaps, dtype=np.float64), 0.0)
    return np.log1p(gaps * 1000.0) / _GAP_SCALE


def channel_to_gaps(channel: np.ndarray) -> np.ndarray:
    """Inverse of :func:`gaps_to_channel` (clamped non-negative)."""
    channel = np.asarray(channel, dtype=np.float64)
    return np.maximum(np.expm1(np.clip(channel, 0.0, 4.0) * _GAP_SCALE)
                      / 1000.0, 0.0)


def quantize_matrix(continuous: np.ndarray) -> np.ndarray:
    """Color-process a continuous matrix into ternary {-1, 0, 1}."""
    return continuous_to_ternary(continuous)


def _align_options_rows(rows: np.ndarray, fs) -> None:
    """Keep whole 32-bit option words that are mostly present; drop the rest.

    A word is kept when >= 50% of its bits are present; the first failing
    word vacates itself and everything after it in the span, which is a
    prefix-AND along the word axis.  ``rows`` is C-contiguous, so the
    word reshape is a view written in place.
    """
    words = rows[:, fs.start : fs.stop].reshape(len(rows), fs.width // 32, 32)
    present = words != VACANT
    keep = np.logical_and.accumulate(present.sum(axis=2) >= 16, axis=1)
    # words * present turns vacant bits into 0 and keeps 0/1 bits.
    words[...] = np.where(keep[:, :, None], words * present, VACANT)


def _repair_rows(rows: np.ndarray) -> None:
    """Repair the structure of packet rows (see :func:`repair_matrix`), in place."""
    ipv4 = REGION_SLICES["ipv4"]
    fixed = rows[:, ipv4.start : ipv4.start + _IPV4_FIXED_BITS]
    np.copyto(fixed, 0, where=fixed == VACANT)
    _align_options_rows(rows, FIELDS["ipv4.options"])

    # Occupancy ties go to the first region in layout order.
    names = [n for n in REGION_SLICES if n != "ipv4"]
    occupancy = np.stack([
        (rows[:, REGION_SLICES[n].start : REGION_SLICES[n].stop] != VACANT)
        .mean(axis=1)
        for n in names
    ])
    winner = np.argmax(occupancy, axis=0)
    for idx, name in enumerate(names):
        fs = REGION_SLICES[name]
        span = rows[:, fs.start : fs.stop]
        won = (winner == idx)[:, None]
        np.copyto(span, VACANT, where=~won)
        filled = span[:, :_TCP_FIXED_BITS] if name == "tcp" else span
        np.copyto(filled, 0, where=won & (filled == VACANT))
    # Losing rows' TCP spans are all vacant already, so aligning every
    # row's options changes only the rows TCP won.
    _align_options_rows(rows, FIELDS["tcp.options"])


def repair_matrix(matrix: np.ndarray) -> np.ndarray:
    """Structure-repair every packet row; padding rows stay vacant.

    ``matrix`` is one flow ``(P, 1088)`` or a batch ``(n, P, 1088)``.  A
    packet row always carries the fixed 20-byte IPv4 header, so each flow
    is cut at its first row where that span is mostly vacant: rows from
    the cut on become padding (flows are contiguous, so later stray rows
    are padding too).  Every row before its flow's cut gets one
    row-batched repair: the dominant transport region by occupancy wins
    and the other two are vacated, vacant bits inside fixed header spans
    become 0, and option tails keep only whole, mostly-present 32-bit
    words.
    """
    matrix = np.asarray(matrix, dtype=np.int8)
    if matrix.ndim not in (2, 3) or matrix.shape[-1] != NPRINT_BITS:
        raise ValueError(
            f"expected ([n,] P, {NPRINT_BITS}), got {matrix.shape}"
        )
    out = matrix.copy()
    flows = out.reshape(-1, *out.shape[-2:])
    ipv4 = REGION_SLICES["ipv4"]
    fixed_occupancy = (
        flows[..., ipv4.start : ipv4.start + _IPV4_FIXED_BITS] != VACANT
    ).mean(axis=2)
    bad = fixed_occupancy < 0.5
    cut = np.where(bad.any(axis=1), bad.argmax(axis=1), flows.shape[1])
    live = np.arange(flows.shape[1]) < cut[:, None]
    flows[~live] = VACANT
    rows = flows[live]
    _repair_rows(rows)
    flows[live] = rows
    return out


@lru_cache(maxsize=64)
def _column_plan(mask_bytes: bytes) -> tuple[np.ndarray, tuple]:
    """``(template, runs)`` of a float64 mask given as its bytes.

    Two one-row flows, all 1.0 and all 0.0, go through the reference
    chain.  A column that comes out 1 and 0 copies its quantised bit
    (its runs are ``runs``); one that comes out equal is forced to that
    value, which ``template`` holds (copy columns hold 0).
    """
    mask = np.frombuffer(mask_bytes, dtype=np.float64)
    rows = np.array([1.0, 0.0])[:, None, None] * np.ones(NPRINT_BITS)
    ones, zeros = repair_matrix(
        quantize_matrix(apply_structure_guidance(rows, mask)))[:, 0]
    copy = ones != zeros
    edges = np.flatnonzero(np.diff(copy, prepend=False, append=False))
    runs = tuple(zip(edges[::2].tolist(), edges[1::2].tolist()))
    template = np.where(copy, 0, ones).astype(np.int8)
    template.flags.writeable = False  # shared by every caller of the cache
    return template, runs


def repair_guided(continuous: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``repair_matrix(quantize_matrix(apply_structure_guidance(continuous,
    mask)))`` in one pass over ``continuous``.

    Under hard guidance every present bit of a packet row sits in one of
    the mask's on-columns, and every decision :func:`repair_matrix`
    takes (the flow cut, the transport winner, which option words stay)
    reads presence only, never a bit's value.  So each column of a live
    row is fixed per mask: it copies the quantised bit (``x >= 0.5``),
    or it is forced to 0 or to vacant.  :func:`_column_plan` derives
    that plan once per mask content from the reference chain itself.  A
    row is live while it and every row before it in its flow pass
    guidance's :func:`~repro.core.controlnet.packet_rows` test; other
    rows are padding.  Bitwise equal to the chain for float32 and
    float64 input (pinned by a property test).
    """
    continuous = np.asarray(continuous)
    if continuous.dtype != np.float32:
        continuous = np.asarray(continuous, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    if continuous.ndim not in (2, 3) or continuous.shape[-1] != NPRINT_BITS \
            or mask.shape != (NPRINT_BITS,):
        raise ValueError(
            f"expected ([n,] P, {NPRINT_BITS}) and a ({NPRINT_BITS},) mask, "
            f"got {continuous.shape} and {mask.shape}"
        )
    template, runs = _column_plan(mask.tobytes())
    out = np.empty(continuous.shape, dtype=np.int8)
    out[...] = template
    bits = out.view(np.bool_)
    for start, stop in runs:
        np.greater_equal(continuous[..., start:stop], 0.5,
                         out=bits[..., start:stop])
    live = np.logical_and.accumulate(packet_rows(continuous), axis=-1)
    out[~live] = VACANT
    return out


def matrix_to_flow(
    continuous: np.ndarray,
    gaps_channel: np.ndarray | None = None,
    label: str = "",
    start_time: float = 0.0,
    *,
    mask: np.ndarray | None = None,
    gaps: np.ndarray | None = None,
) -> DecodedFlow | FlowBatch:
    """Full back-transform: continuous matrix (+ timing channel) -> flow.

    One ``(P, 1088)`` matrix gives a :class:`DecodedFlow`; a batch of
    ``(n, P, 1088)`` matrices with ``(n, P)`` channels gives a
    :class:`FlowBatch`, each step one array pass over the whole batch.
    ``mask`` applies hard structure guidance first, fused with
    quantisation and repair (:func:`repair_guided`).  ``gaps`` gives
    the inter-arrival seconds directly, in place of ``gaps_channel``.
    """
    if mask is None:
        repaired = repair_matrix(quantize_matrix(continuous))
    else:
        repaired = repair_guided(continuous, mask)
    if gaps_channel is not None:
        if gaps is not None:
            raise ValueError("pass gaps_channel or gaps, not both")
        gaps = channel_to_gaps(gaps_channel)
    return decode_flow(repaired, gaps=gaps, label=label, start_time=start_time)
