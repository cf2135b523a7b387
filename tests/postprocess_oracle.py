"""Per-flow, per-row oracle for the array-native finalize path.

The pipeline turns a whole chunk of continuous matrices into pcap records
in one array pass (``apply_structure_guidance`` -> ``quantize_matrix`` ->
``repair_matrix`` -> ``decode_batch``).  This module keeps the scalar
reference that pass must reproduce byte for byte, one flow and one row
at a time:

* :func:`guide_flow` — hard structure guidance of one ``(P, 1088)``
  matrix, in float64;
* :func:`quantize` — colour processing to ternary;
* :func:`repair_flow` — the flow cut plus :func:`repair_row_structure`
  per packet row (with :func:`_align_options`);
* :func:`decode_rows` — sequential ``clock += gap`` timestamps and one
  :func:`~repro.nprint.decoder.decode_packet` per live row;
* :func:`finalize_flow` — the whole chain; ``Packet.to_bytes()`` of its
  packets is the expected wire record of each packet;
* :func:`protocol_mask` — a canonical pure-protocol structure mask, the
  fixture the guidance tests project onto.
"""

from __future__ import annotations

import numpy as np

from repro.core.postprocess import channel_to_gaps
from repro.net.packet import Packet
from repro.nprint.decoder import decode_packet
from repro.nprint.fields import FIELDS, NPRINT_BITS, REGION_SLICES, VACANT

# Fixed (option-free) bit spans of the IPv4 and TCP header regions.
_IPV4_FIXED_BITS = 160
_TCP_FIXED_BITS = 160


def protocol_mask(proto: str, occupancy: float = 1.0) -> np.ndarray:
    """Canonical structure mask for a pure-``proto`` flow ('tcp'/'udp'/'icmp').

    Marks the IPv4 region and the named transport region occupied.
    """
    if proto not in ("tcp", "udp", "icmp"):
        raise ValueError(f"unknown protocol {proto!r}")
    mask = np.zeros(NPRINT_BITS)
    ipv4 = REGION_SLICES["ipv4"]
    mask[ipv4.start : ipv4.stop] = occupancy
    region = REGION_SLICES[proto]
    mask[region.start : region.stop] = occupancy
    return mask


def guide_flow(matrix: np.ndarray, mask: np.ndarray,
               threshold: float = 0.5) -> np.ndarray:
    """Project one continuous ``(P, 1088)`` matrix onto a structure mask."""
    matrix = np.asarray(matrix, dtype=np.float64).copy()
    mask = np.asarray(mask, dtype=np.float64)
    ipv4 = REGION_SLICES["ipv4"]
    row_mean = matrix[:, ipv4.start : ipv4.start + _IPV4_FIXED_BITS].mean(
        axis=1)
    packet_rows = row_mean > -0.5
    off = mask < threshold
    on = ~off
    matrix[np.ix_(packet_rows, off)] = -1.0
    matrix[np.ix_(packet_rows, on)] = np.clip(
        matrix[np.ix_(packet_rows, on)], 0.0, 1.0
    )
    matrix[~packet_rows, :] = -1.0
    return matrix


def quantize(continuous: np.ndarray) -> np.ndarray:
    """Round each value to the nearest of {-1, 0, 1} (vacant below -0.5)."""
    continuous = np.asarray(continuous, dtype=np.float64)
    out = np.where(continuous >= 0.5, 1, 0).astype(np.int8)
    out[continuous < -0.5] = VACANT
    return out


def repair_row_structure(row: np.ndarray) -> np.ndarray:
    """Make one ternary row structurally decodable.

    Chooses the dominant transport region by occupancy, vacates the other
    two, fills vacant bits inside fixed header spans with 0, and rounds
    option tails to whole 32-bit words (dropping mostly-vacant tails).
    """
    row = np.asarray(row, dtype=np.int8).copy()

    # IPv4 fixed header is always present.
    ipv4 = REGION_SLICES["ipv4"]
    fixed = row[ipv4.start : ipv4.start + _IPV4_FIXED_BITS]
    fixed[fixed == VACANT] = 0
    _align_options(row, FIELDS["ipv4.options"])

    occupancy = {
        name: float(np.mean(row[fs.start : fs.stop] != VACANT))
        for name, fs in REGION_SLICES.items()
        if name != "ipv4"
    }
    winner = max(occupancy, key=occupancy.get)
    for name, fs in REGION_SLICES.items():
        if name in ("ipv4", winner):
            continue
        row[fs.start : fs.stop] = VACANT

    region = REGION_SLICES[winner]
    if winner == "tcp":
        fixed = row[region.start : region.start + _TCP_FIXED_BITS]
        fixed[fixed == VACANT] = 0
        _align_options(row, FIELDS["tcp.options"])
    else:
        segment = row[region.start : region.stop]
        segment[segment == VACANT] = 0
    return row


def _align_options(row: np.ndarray, fs) -> None:
    """Keep whole 32-bit option words that are mostly present; drop the rest."""
    span = row[fs.start : fs.stop]
    n_words = len(span) // 32
    for w in range(n_words):
        word = span[w * 32 : (w + 1) * 32]
        if np.mean(word != VACANT) >= 0.5:
            word[word == VACANT] = 0
        else:
            span[w * 32 :] = VACANT
            break


def repair_flow(ternary: np.ndarray) -> np.ndarray:
    """Cut the flow at its first row without a fixed IPv4 header, then
    repair every row before the cut; rows from the cut on are vacant."""
    out = np.full_like(np.asarray(ternary, dtype=np.int8), VACANT)
    ipv4 = REGION_SLICES["ipv4"]
    for i, row in enumerate(ternary):
        fixed = row[ipv4.start : ipv4.start + _IPV4_FIXED_BITS]
        if np.mean(fixed != VACANT) < 0.5:
            break
        out[i] = repair_row_structure(row)
    return out


def decode_rows(matrix: np.ndarray, gaps: np.ndarray | None = None,
                start_time: float = 0.0) -> list[Packet]:
    """Decode rows up to the first all-vacant one, one packet at a time."""
    assert matrix.shape[1] == NPRINT_BITS
    packets = []
    clock = start_time
    for i, row in enumerate(matrix):
        if np.all(row == VACANT):
            break
        gap = float(gaps[i]) if gaps is not None and i < len(gaps) else 0.001
        if i > 0:
            clock += max(0.0, gap)
        packets.append(decode_packet(row, timestamp=clock))
    return packets


def finalize_flow(continuous: np.ndarray, mask: np.ndarray | None,
                  gaps_channel: np.ndarray) -> tuple[np.ndarray, list[Packet]]:
    """One flow through the whole back-transform: ``(repaired, packets)``.

    ``mask=None`` skips hard guidance.
    """
    if mask is not None:
        continuous = guide_flow(continuous, mask)
    repaired = repair_flow(quantize(continuous))
    return repaired, decode_rows(repaired, channel_to_gaps(gaps_channel))
