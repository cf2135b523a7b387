"""Feature extraction: flows -> NetFlow aggregates or raw nprint bits.

Two feature granularities, matching the paper's comparison:

* :func:`netflow_matrix` over :func:`netflow_record` — the coarse
  NetFlow-style aggregates a NetShare-like GAN generates (§2.3 lists ten
  fields).
* :func:`nprint_matrix_features` — flattened raw nprint bits ("raw packet
  bits", the fine-grained representation the paper advocates).

Both honour footnote 1: "dataset overfitting features like IP addresses,
port numbers, and flow start times are removed during preprocessing".  For
NetFlow this drops the address/port/start-time columns; for nprint it
blanks the corresponding bit columns (plus checksums, which are functions
of the addresses through the pseudo-header and would leak them).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.net.flow import Flow
from repro.nprint.encoder import encode_flow, encode_flows
from repro.nprint.fields import FIELDS, NPRINT_BITS

# The ten NetFlow fields NetShare produces (§2.3): 5-tuple, start time,
# duration, packets, bytes, label.  The label is the supervised target and
# is therefore not part of the feature matrix.
NETFLOW_FIELDS = (
    "src_ip",
    "dst_ip",
    "src_port",
    "dst_port",
    "proto",
    "start_time",
    "duration",
    "n_packets",
    "n_bytes",
)

# Footnote 1's "overfitting features".
OVERFIT_NETFLOW_FIELDS = ("src_ip", "dst_ip", "src_port", "dst_port", "start_time")

_OVERFIT_NPRINT_FIELDS = (
    "ipv4.src_ip",
    "ipv4.dst_ip",
    "ipv4.checksum",  # function of the addresses via the header sum
    "tcp.src_port",
    "tcp.dst_port",
    "tcp.checksum",  # pseudo-header includes the addresses
    "udp.src_port",
    "udp.dst_port",
    "udp.checksum",
)


@dataclass(frozen=True)
class NetFlowRecord:
    """One NetFlow-style record (all ten published fields + label)."""

    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    proto: int
    start_time: float
    duration: float
    n_packets: int
    n_bytes: int
    label: str


def netflow_feature_names(include_overfit: bool = False) -> list[str]:
    if include_overfit:
        return list(NETFLOW_FIELDS)
    return [f for f in NETFLOW_FIELDS if f not in OVERFIT_NETFLOW_FIELDS]


def netflow_record(flow: Flow) -> NetFlowRecord:
    """Aggregate one flow into a NetFlow record (client-side orientation)."""
    if not flow.packets:
        raise ValueError("cannot summarise an empty flow")
    first = flow.packets[0]
    return NetFlowRecord(
        src_ip=first.ip.src_ip,
        dst_ip=first.ip.dst_ip,
        src_port=first.src_port or 0,
        dst_port=first.dst_port or 0,
        proto=flow.dominant_protocol,
        start_time=flow.start_time,
        duration=flow.duration,
        n_packets=len(flow),
        n_bytes=flow.total_bytes,
        label=flow.label,
    )


def netflow_matrix(
    records: list[NetFlowRecord], include_overfit: bool = False
) -> np.ndarray:
    """Feature matrix from NetFlow records, one row per record.

    Real flows pass through :func:`netflow_record` first; GAN-generated
    NetFlow already is records.  Built column-wise, one array per field.
    """
    if not records:
        raise ValueError("cannot build features for an empty record list")
    n = len(records)
    names = netflow_feature_names(include_overfit)
    return np.column_stack(
        [np.fromiter((getattr(r, name) for r in records),
                     dtype=np.float64, count=n)
         for name in names]
    )


def overfit_bit_mask() -> np.ndarray:
    """Boolean mask over the 1088 nprint columns; True = keep the column."""
    keep = np.ones(NPRINT_BITS, dtype=bool)
    for name in _OVERFIT_NPRINT_FIELDS:
        fs = FIELDS[name]
        keep[fs.start : fs.stop] = False
    return keep


def nprint_matrix_features(
    matrices: np.ndarray,
    drop_overfit: bool = True,
) -> np.ndarray:
    """Flatten ``(n, P, 1088)`` nprint matrices into per-flow bit features.

    With ``drop_overfit`` (default) the address/port/checksum columns are
    removed from every packet row before flattening, implementing the
    paper's preprocessing footnote.
    """
    matrices = np.asarray(matrices)
    if matrices.ndim != 3 or matrices.shape[2] != NPRINT_BITS:
        raise ValueError(f"expected (n, P, {NPRINT_BITS}), got {matrices.shape}")
    if drop_overfit:
        matrices = matrices[:, :, overfit_bit_mask()]
    n = matrices.shape[0]
    return matrices.reshape(n, -1).astype(np.float32)


def nprint_features(
    flows: list[Flow],
    max_packets: int = 16,
    drop_overfit: bool = True,
) -> np.ndarray:
    """Encode flows to nprint and flatten (convenience wrapper)."""
    matrices = encode_flows(flows, max_packets)
    return nprint_matrix_features(matrices, drop_overfit=drop_overfit)
