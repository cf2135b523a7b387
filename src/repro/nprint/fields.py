"""The nprint bit layout: 1088 bit-level features per packet.

The paper (Fig. 2) uses the nprint representation with four header regions
laid out side by side; every packet occupies one row of the feature matrix:

====== ======= ===========================================
Region Bits    Source bytes
====== ======= ===========================================
IPv4   480     the full 60-byte maximal IPv4 header
TCP    480     the full 60-byte maximal TCP header
UDP    64      the 8-byte UDP header
ICMP   64      the 8-byte ICMP header
====== ======= ===========================================

Bits carried by the packet are encoded 0/1; regions (or option tail bytes)
the packet does not carry are encoded −1 ("vacant").  This module defines
the region offsets plus named *field slices* inside each region so the rest
of the library (repair pass, ControlNet masks, property tests)
can address individual protocol fields symbolically instead of by magic
bit index.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.headers import (
    ICMP_HEADER_BYTES,
    IPV4_MAX_HEADER_BYTES,
    TCP_MAX_HEADER_BYTES,
    UDP_HEADER_BYTES,
)

IPV4_BITS = IPV4_MAX_HEADER_BYTES * 8  # 480
TCP_BITS = TCP_MAX_HEADER_BYTES * 8  # 480
UDP_BITS = UDP_HEADER_BYTES * 8  # 64
ICMP_BITS = ICMP_HEADER_BYTES * 8  # 64

IPV4_OFFSET = 0
TCP_OFFSET = IPV4_OFFSET + IPV4_BITS  # 480
UDP_OFFSET = TCP_OFFSET + TCP_BITS  # 960
ICMP_OFFSET = UDP_OFFSET + UDP_BITS  # 1024

NPRINT_BITS = ICMP_OFFSET + ICMP_BITS  # 1088

VACANT = -1


@dataclass(frozen=True)
class FieldSlice:
    """A named, contiguous bit range inside the nprint row."""

    name: str
    start: int
    width: int

    @property
    def stop(self) -> int:
        return self.start + self.width

    def __iter__(self):
        return iter(range(self.start, self.stop))


def _build_fields() -> dict[str, FieldSlice]:
    fields: dict[str, FieldSlice] = {}

    def add(name: str, start: int, width: int) -> None:
        fields[name] = FieldSlice(name=name, start=start, width=width)

    # --- IPv4 region (bit offsets follow RFC 791 wire order) ---
    base = IPV4_OFFSET
    add("ipv4.version", base + 0, 4)
    add("ipv4.ihl", base + 4, 4)
    add("ipv4.dscp", base + 8, 6)
    add("ipv4.ecn", base + 14, 2)
    add("ipv4.total_length", base + 16, 16)
    add("ipv4.identification", base + 32, 16)
    add("ipv4.flags", base + 48, 3)
    add("ipv4.fragment_offset", base + 51, 13)
    add("ipv4.ttl", base + 64, 8)
    add("ipv4.proto", base + 72, 8)
    add("ipv4.checksum", base + 80, 16)
    add("ipv4.src_ip", base + 96, 32)
    add("ipv4.dst_ip", base + 128, 32)
    add("ipv4.options", base + 160, IPV4_BITS - 160)

    # --- TCP region (RFC 793) ---
    base = TCP_OFFSET
    add("tcp.src_port", base + 0, 16)
    add("tcp.dst_port", base + 16, 16)
    add("tcp.seq", base + 32, 32)
    add("tcp.ack", base + 64, 32)
    add("tcp.data_offset", base + 96, 4)
    add("tcp.reserved", base + 100, 4)
    add("tcp.flags", base + 104, 8)
    add("tcp.window", base + 112, 16)
    add("tcp.checksum", base + 128, 16)
    add("tcp.urgent_pointer", base + 144, 16)
    add("tcp.options", base + 160, TCP_BITS - 160)

    # --- UDP region (RFC 768) ---
    base = UDP_OFFSET
    add("udp.src_port", base + 0, 16)
    add("udp.dst_port", base + 16, 16)
    add("udp.length", base + 32, 16)
    add("udp.checksum", base + 48, 16)

    # --- ICMP region (RFC 792) ---
    base = ICMP_OFFSET
    add("icmp.type", base + 0, 8)
    add("icmp.code", base + 8, 8)
    add("icmp.checksum", base + 16, 16)
    add("icmp.rest", base + 32, 32)

    return fields


FIELDS: dict[str, FieldSlice] = _build_fields()

# Region slices, used by the protocol-compliance metric and ControlNet mask.
REGION_SLICES: dict[str, FieldSlice] = {
    "ipv4": FieldSlice("ipv4", IPV4_OFFSET, IPV4_BITS),
    "tcp": FieldSlice("tcp", TCP_OFFSET, TCP_BITS),
    "udp": FieldSlice("udp", UDP_OFFSET, UDP_BITS),
    "icmp": FieldSlice("icmp", ICMP_OFFSET, ICMP_BITS),
}

