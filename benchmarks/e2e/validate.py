"""Packet-level validity checks for the pcaps the benchmark emits.

Every record of a ``LINKTYPE_RAW`` pcap written by the benchmark must be a
well-formed IPv4 datagram that a capture tool would accept, and the flows
must respect the class constraint the paper's ControlNet enforces (Fig. 2:
Amazon all TCP, Teams all UDP).  For each record the validator checks:

* the record is complete (``caplen == origlen`` and the bytes are there)
  and re-parses through :func:`repro.net.packet.parse_packet`;
* the IPv4 total length equals the record length, and the UDP length
  equals the segment length;
* the IPv4 header checksum and the TCP/UDP checksum over the pseudo-header
  verify;
* the IP protocol is the single protocol of the class's training flows;
* timestamps never go backwards within a flow.

A pcap cannot delimit flows itself (every generated flow starts at t=0), so
the caller passes the packet count of each flow in write order.  The
validator runs outside the timed phase.
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass, field

from repro.net.checksum import pseudo_header, verify_checksum
from repro.net.headers import IPProto
from repro.net.packet import parse_packet
from repro.net.pcap import LINKTYPE_RAW, PCAP_MAGIC

_GLOBAL = struct.Struct("<IHHiIII")
_RECORD = struct.Struct("<IIII")


@dataclass
class Report:
    """Validation totals; a flow fails when any of its packets fails."""

    packets: int = 0
    failed_packets: int = 0
    flows: int = 0
    failed_flows: int = 0
    reasons: Counter = field(default_factory=Counter)

    def merge(self, other: "Report") -> None:
        self.packets += other.packets
        self.failed_packets += other.failed_packets
        self.flows += other.flows
        self.failed_flows += other.failed_flows
        self.reasons.update(other.reasons)

    @property
    def ok(self) -> bool:
        return self.failed_packets == 0 and self.failed_flows == 0


def check_packet(data: bytes, proto: int) -> str | None:
    """The first rule a raw IPv4 record breaks, or None when it is valid."""
    try:
        pkt = parse_packet(data)
    except ValueError:
        return "parse"
    ip = pkt.ip
    ihl = ip.header_length
    if ip.total_length != len(data):
        return "ip_length"
    if not verify_checksum(data[:ihl]):
        return "ip_checksum"
    if ip.proto != proto:
        return "class_protocol"
    segment = data[ihl:]
    if pkt.transport is None:
        return "parse"
    if proto == IPProto.UDP:
        if pkt.transport.length != len(segment):
            return "udp_length"
        if segment[6:8] == b"\x00\x00":  # RFC 768: no checksum
            return None
    pseudo = pseudo_header(ip.src_ip, ip.dst_ip, proto, len(segment))
    if not verify_checksum(pseudo + segment):
        return "transport_checksum"
    return None


def validate_pcap(data: bytes, flow_sizes: list[int], proto: int) -> Report:
    """Check every record of the pcap ``data`` against ``flow_sizes``.

    ``flow_sizes[i]`` is the packet count of the i-th flow written; the
    records must account for exactly that many packets.  Missing records
    count as failed packets, extra records as one failed flow.
    """
    report = Report()
    view = memoryview(data)
    if len(view) < _GLOBAL.size:
        raise ValueError("pcap shorter than its global header")
    magic, *_, linktype = _GLOBAL.unpack_from(view, 0)
    if magic != PCAP_MAGIC or linktype != LINKTYPE_RAW:
        raise ValueError(f"not a raw-IPv4 pcap (magic {magic:#x}, "
                         f"linktype {linktype})")
    pos = _GLOBAL.size
    for size in flow_sizes:
        report.flows += 1
        flow_failed = False
        last_stamp = -1
        for _ in range(size):
            report.packets += 1
            reason = None
            if pos + _RECORD.size > len(view):
                reason = "truncated"
            else:
                sec, usec, caplen, origlen = _RECORD.unpack_from(view, pos)
                body = bytes(view[pos + _RECORD.size:
                                  pos + _RECORD.size + caplen])
                pos += _RECORD.size + caplen
                stamp = sec * 1_000_000 + usec
                if caplen != origlen or len(body) != caplen:
                    reason = "truncated"
                elif stamp < last_stamp:
                    reason = "timestamp_order"
                else:
                    reason = check_packet(body, proto)
                last_stamp = max(last_stamp, stamp)
            if reason is not None:
                report.failed_packets += 1
                report.reasons[reason] += 1
                flow_failed = True
        report.failed_flows += flow_failed
    if pos < len(view):
        report.failed_flows += 1
        report.reasons["extra_records"] += 1
    return report
