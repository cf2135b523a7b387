"""Packet composition: an IPv4 header plus one transport header plus payload.

The reproduction works at the IP layer (the nprint layout in the paper covers
IPv4/TCP/UDP/ICMP headers only), so a :class:`Packet` is an IPv4 datagram.
Link-layer framing is added/stripped by the pcap layer, which uses
``LINKTYPE_RAW`` to avoid synthesising Ethernet headers the paper never
models.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.headers import (
    ICMPHeader,
    IPProto,
    IPv4Header,
    TCPHeader,
    TransportHeader,
    UDPHeader,
)


@dataclass
class Packet:
    """An IPv4 packet with timestamp, headers, and opaque payload bytes.

    ``timestamp`` is seconds since the epoch (float, microsecond precision
    survives the pcap round trip).  ``payload`` holds application bytes; the
    synthesis pipeline regenerates payload lengths but not payload content,
    matching the paper's header-only nprint representation.
    """

    ip: IPv4Header
    transport: TransportHeader | None = None
    payload: bytes = b""
    timestamp: float = 0.0

    @property
    def proto(self) -> int:
        return self.ip.proto

    @property
    def src_port(self) -> int | None:
        if isinstance(self.transport, (TCPHeader, UDPHeader)):
            return self.transport.src_port
        return None

    @property
    def dst_port(self) -> int | None:
        if isinstance(self.transport, (TCPHeader, UDPHeader)):
            return self.transport.dst_port
        return None

    @property
    def total_length(self) -> int:
        """On-wire IPv4 total length of this packet once packed."""
        return len(self.to_bytes())

    def to_bytes(self) -> bytes:
        """Serialise to wire bytes with valid checksums and lengths."""
        transport_bytes = b""
        if isinstance(self.transport, TCPHeader):
            transport_bytes = self.transport.pack(
                self.ip.src_ip, self.ip.dst_ip, self.payload
            )
        elif isinstance(self.transport, UDPHeader):
            transport_bytes = self.transport.pack(
                self.ip.src_ip, self.ip.dst_ip, self.payload
            )
        elif isinstance(self.transport, ICMPHeader):
            transport_bytes = self.transport.pack(self.payload)
        ip_bytes = self.ip.pack(len(transport_bytes) + len(self.payload))
        return ip_bytes + transport_bytes + self.payload

    @classmethod
    def from_bytes(cls, data: bytes, timestamp: float = 0.0) -> "Packet":
        """Parse wire bytes back into a structured packet."""
        return parse_packet(data, timestamp)


def build_packet(
    src_ip: int,
    dst_ip: int,
    transport: TransportHeader,
    payload: bytes = b"",
    ttl: int = 64,
    timestamp: float = 0.0,
    **ip_fields,
) -> Packet:
    """Construct a packet, inferring the IP protocol from the transport type.

    Extra keyword arguments are forwarded to :class:`IPv4Header` so callers
    can pin identification, DSCP, fragment flags, etc.
    """
    if isinstance(transport, TCPHeader):
        proto = int(IPProto.TCP)
    elif isinstance(transport, UDPHeader):
        proto = int(IPProto.UDP)
    elif isinstance(transport, ICMPHeader):
        proto = int(IPProto.ICMP)
    else:
        raise TypeError(f"unsupported transport header: {type(transport)!r}")
    ip = IPv4Header(src_ip=src_ip, dst_ip=dst_ip, proto=proto, ttl=ttl, **ip_fields)
    return Packet(ip=ip, transport=transport, payload=payload, timestamp=timestamp)


def parse_packet(data: bytes, timestamp: float = 0.0) -> Packet:
    """Parse an IPv4 datagram; unknown protocols keep the payload opaque."""
    ip = IPv4Header.unpack(data)
    rest = data[ip.header_length :]
    if ip.total_length is not None and ip.total_length <= len(data):
        # Honour the IP total length; trailing link padding is dropped.
        rest = data[ip.header_length : ip.total_length]

    transport: TransportHeader | None = None
    payload = rest
    if ip.proto == IPProto.TCP and len(rest) >= 20:
        transport = TCPHeader.unpack(rest)
        payload = rest[transport.header_length :]
    elif ip.proto == IPProto.UDP and len(rest) >= 8:
        transport = UDPHeader.unpack(rest)
        payload = rest[8:]
    elif ip.proto == IPProto.ICMP and len(rest) >= 8:
        transport = ICMPHeader.unpack(rest)
        payload = rest[8:]
    return Packet(ip=ip, transport=transport, payload=payload, timestamp=timestamp)


class PacketRenderer:
    """Stateless stand-in for the retired header-template renderer.

    :meth:`render` is :meth:`Packet.to_bytes`.  The class remains only
    because ``benchmarks/e2e/bench.py`` constructs one and passes it to
    :func:`render_flows`, and must keep measuring older commits too;
    new code calls ``render_flows(flows)``.
    """

    def render(self, pkt: Packet) -> bytes:
        return pkt.to_bytes()


def render_flows(flows, renderer: PacketRenderer | None = None):
    """Render every packet of ``flows`` to wire bytes, flow-major.

    Returns ``(datas, timestamps)`` ready for
    :meth:`repro.net.pcap.PcapWriter.write_many`.  A decoded batch
    (:class:`repro.nprint.decoder.FlowBatch`) already carries both and is
    returned as is; object flows are serialised with
    :meth:`Packet.to_bytes`.  ``renderer`` is accepted and ignored (see
    :class:`PacketRenderer`).
    """
    import numpy as np

    records = getattr(flows, "records", None)
    if records is not None:
        return records, flows.stamps
    packets = [pkt for flow in flows for pkt in flow.packets]
    stamps = np.fromiter((pkt.timestamp for pkt in packets),
                         dtype=np.float64, count=len(packets))
    return [pkt.to_bytes() for pkt in packets], stamps
