"""Packets and flows -> nprint ternary bit matrices.

A packet becomes one row of 1088 values in {-1, 0, 1}: the bits of its IPv4
header and of whichever transport header it carries, with every bit the
packet does not carry set to −1 (vacant).  A flow becomes a
``(max_packets, 1088)`` int8 matrix, padded with all-vacant rows — exactly
the image rows in the paper's Fig. 2.

Two encoding paths share these semantics:

* :func:`encode_flow` / :func:`encode_packet` — the per-packet reference
  implementation;
* :func:`encode_flows` / :func:`encode_packets` — the batched fast path:
  header bytes for all packets are gathered once, grouped by header
  region, unpacked to bits with a single ``np.unpackbits`` per region and
  scattered into the output with fancy indexing — no per-packet NumPy
  calls.  ``tests/test_nprint_encoder.py`` asserts exact agreement with
  the reference path.
"""

from __future__ import annotations

import numpy as np

from repro import perf
from repro.net.flow import Flow
from repro.net.headers import ICMPHeader, IPProto, TCPHeader, UDPHeader
from repro.net.packet import Packet
from repro.nprint.fields import (
    ICMP_BITS,
    ICMP_OFFSET,
    IPV4_BITS,
    IPV4_OFFSET,
    NPRINT_BITS,
    TCP_BITS,
    TCP_OFFSET,
    UDP_BITS,
    UDP_OFFSET,
    VACANT,
)

DEFAULT_MAX_PACKETS = 1024  # the paper encodes up to 1024 packets per flow


def _bytes_to_bits(data: bytes) -> np.ndarray:
    """Expand bytes into an array of 0/1 bits, most-significant bit first."""
    if not data:
        return np.empty(0, dtype=np.int8)
    arr = np.frombuffer(data, dtype=np.uint8)
    return np.unpackbits(arr).astype(np.int8)


def _pack_packet(pkt: Packet) -> tuple[int | None, bytes, bytes]:
    """Wire bytes of one packet: (transport region offset, transport, ip)."""
    payload = pkt.payload
    transport_bytes = b""
    offset: int | None = None
    if isinstance(pkt.transport, TCPHeader):
        transport_bytes = pkt.transport.pack(pkt.ip.src_ip, pkt.ip.dst_ip,
                                             payload)
        offset = TCP_OFFSET
    elif isinstance(pkt.transport, UDPHeader):
        transport_bytes = pkt.transport.pack(pkt.ip.src_ip, pkt.ip.dst_ip,
                                             payload)
        offset = UDP_OFFSET
    elif isinstance(pkt.transport, ICMPHeader):
        transport_bytes = pkt.transport.pack(payload)
        offset = ICMP_OFFSET
    ip_bytes = pkt.ip.pack(len(transport_bytes) + len(payload))
    return offset, transport_bytes, ip_bytes


def encode_packet(pkt: Packet) -> np.ndarray:
    """Encode one packet into a 1088-wide ternary row.

    The wire bytes are produced by the header ``pack`` methods, so encoded
    checksums and length fields are valid — the representation is lossless
    back to a semantically identical packet (payload content excluded).
    """
    row = np.full(NPRINT_BITS, VACANT, dtype=np.int8)
    offset, transport_bytes, ip_bytes = _pack_packet(pkt)
    if offset is not None and transport_bytes:
        bits = _bytes_to_bits(transport_bytes)
        row[offset : offset + len(bits)] = bits
    ip_bits = _bytes_to_bits(ip_bytes)
    row[IPV4_OFFSET : IPV4_OFFSET + len(ip_bits)] = ip_bits
    return row


def _scatter_bits(
    rows: np.ndarray, idx: list[int], blobs: list[bytes], offset: int
) -> None:
    """Unpack ``blobs`` to bits in one shot and write them at ``offset``.

    All blobs share one header region, whose capacity bounds their length,
    so the padded rectangle never crosses into a neighbouring region.
    Positions past each blob's own length stay VACANT.
    """
    lens = np.fromiter((len(b) for b in blobs), dtype=np.int64,
                       count=len(blobs))
    max_len = int(lens.max())
    if max_len == 0:
        return
    byte_valid = np.arange(max_len)[None, :] < lens[:, None]
    buf = np.zeros((len(blobs), max_len), dtype=np.uint8)
    buf[byte_valid] = np.frombuffer(b"".join(blobs), dtype=np.uint8)
    bits = np.unpackbits(buf, axis=1).astype(np.int8)
    bit_valid = np.repeat(byte_valid, 8, axis=1)
    rows[
        np.asarray(idx, dtype=np.intp)[:, None],
        offset + np.arange(max_len * 8)[None, :],
    ] = np.where(bit_valid, bits, np.int8(VACANT))


def encode_packets(packets: list[Packet]) -> np.ndarray:
    """Encode a packet list into an ``(n, 1088)`` ternary matrix, batched.

    Wire bytes are still produced per packet (header ``pack`` is Python),
    but all bit expansion and placement happens in four region-grouped
    NumPy operations instead of one per packet.
    """
    rows = np.full((len(packets), NPRINT_BITS), VACANT, dtype=np.int8)
    if not packets:
        return rows
    groups: dict[int, tuple[list[int], list[bytes]]] = {}
    for i, pkt in enumerate(packets):
        offset, transport_bytes, ip_bytes = _pack_packet(pkt)
        ip_idx, ip_blobs = groups.setdefault(IPV4_OFFSET, ([], []))
        ip_idx.append(i)
        ip_blobs.append(ip_bytes)
        if offset is not None and transport_bytes:
            t_idx, t_blobs = groups.setdefault(offset, ([], []))
            t_idx.append(i)
            t_blobs.append(transport_bytes)
    for offset, (idx, blobs) in groups.items():
        _scatter_bits(rows, idx, blobs, offset)
    return rows


def encode_flow(
    flow: Flow,
    max_packets: int = DEFAULT_MAX_PACKETS,
) -> np.ndarray:
    """Encode the first ``max_packets`` packets of ``flow``.

    Returns a ``(max_packets, 1088)`` int8 matrix; rows past the end of the
    flow are entirely vacant (−1), matching the paper's fixed-height image
    representation.  This is the per-packet reference path; use
    :func:`encode_flows` for bulk work.
    """
    if max_packets <= 0:
        raise ValueError("max_packets must be positive")
    matrix = np.full((max_packets, NPRINT_BITS), VACANT, dtype=np.int8)
    for i, pkt in enumerate(flow.packets[:max_packets]):
        matrix[i] = encode_packet(pkt)
    return matrix


def encode_flows(
    flows: list[Flow],
    max_packets: int = DEFAULT_MAX_PACKETS,
) -> np.ndarray:
    """Stack per-flow matrices into ``(n_flows, max_packets, 1088)``.

    The batched fast path of :func:`encode_flow` — identical output,
    computed with region-grouped bit unpacking instead of a per-packet
    loop per flow.
    """
    if max_packets <= 0:
        raise ValueError("max_packets must be positive")
    if not flows:
        return np.empty((0, max_packets, NPRINT_BITS), dtype=np.int8)
    with perf.timer("nprint.encode_flows"):
        perf.incr("nprint.encoded_flows", len(flows))
        out = np.full((len(flows), max_packets, NPRINT_BITS), VACANT,
                      dtype=np.int8)
        packets: list[Packet] = []
        flow_idx: list[int] = []
        row_idx: list[int] = []
        for j, flow in enumerate(flows):
            head = flow.packets[:max_packets]
            packets.extend(head)
            flow_idx.extend([j] * len(head))
            row_idx.extend(range(len(head)))
        if packets:
            out[np.asarray(flow_idx, dtype=np.intp),
                np.asarray(row_idx, dtype=np.intp)] = encode_packets(packets)
        return out


def interarrival_channel(
    flow: Flow,
    max_packets: int = DEFAULT_MAX_PACKETS,
) -> np.ndarray:
    """Per-packet inter-arrival times aligned with the nprint rows.

    The paper's representation is header bits only; timestamps are carried
    out-of-band so the pcap back-transform can space packets realistically.
    Entry ``i`` is the gap before packet ``i`` (0 for the first packet and
    for padding rows); negative clock skew clamps to 0.
    """
    gaps = np.zeros(max_packets, dtype=np.float64)
    packets = flow.packets[:max_packets]
    if len(packets) > 1:
        ts = np.fromiter((p.timestamp for p in packets), dtype=np.float64,
                         count=len(packets))
        gaps[1 : len(packets)] = np.clip(np.diff(ts), 0.0, None)
    return gaps


def interarrival_channels(
    flows: list[Flow],
    max_packets: int = DEFAULT_MAX_PACKETS,
) -> np.ndarray:
    """Stack :func:`interarrival_channel` over flows: ``(n, max_packets)``."""
    out = np.zeros((len(flows), max_packets), dtype=np.float64)
    for j, flow in enumerate(flows):
        out[j] = interarrival_channel(flow, max_packets)
    return out
