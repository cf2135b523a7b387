"""Packet composition: an IPv4 header plus one transport header plus payload.

The reproduction works at the IP layer (the nprint layout in the paper covers
IPv4/TCP/UDP/ICMP headers only), so a :class:`Packet` is an IPv4 datagram.
Link-layer framing is added/stripped by the pcap layer, which uses
``LINKTYPE_RAW`` to avoid synthesising Ethernet headers the paper never
models.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro import perf
from repro.net.checksum import _ones_complement_sum, pseudo_header
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


def _fold16(total: int) -> int:
    """Fold a ones-complement accumulator into 16 bits (RFC 1071)."""
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return total


class PacketRenderer:
    """Header-template cache for rendering many similar packets to bytes.

    Packets within a generated flow share almost every header field; only
    lengths, sequence numbers and checksums change packet to packet.  The
    renderer packs the constant portion of each header once per distinct
    field combination (with the varying fields zeroed) together with its
    folded ones-complement partial sum, then per packet patches the
    varying fields in place and finishes the checksum incrementally —
    RFC 1071 sums are word-order-independent, so ``fold(base + varying
    words)`` equals the checksum over the fully packed bytes.

    Output is byte-identical to :meth:`Packet.to_bytes` (pinned by the
    test suite).  The caches are bounded; on overflow they reset, which
    only costs re-packing.
    """

    #: per-cache entry bound; generated traffic uses a handful of entries
    MAX_ENTRIES = 4096

    def __init__(self) -> None:
        self._ip_cache: dict = {}
        self._transport_cache: dict = {}

    def render(self, pkt: Packet) -> bytes:
        """Wire bytes of ``pkt``, equal to ``pkt.to_bytes()``."""
        transport = pkt.transport
        if isinstance(transport, TCPHeader):
            transport_bytes = self._render_tcp(
                transport, pkt.ip.src_ip, pkt.ip.dst_ip, pkt.payload
            )
        elif isinstance(transport, UDPHeader):
            transport_bytes = self._render_udp(
                transport, pkt.ip.src_ip, pkt.ip.dst_ip, pkt.payload
            )
        elif isinstance(transport, ICMPHeader):
            transport_bytes = self._render_icmp(transport, pkt.payload)
        else:
            out = pkt.to_bytes()
            perf.incr("packet.bytes_rendered", len(out))
            return out
        ip_bytes = self._render_ip(
            pkt.ip, len(transport_bytes) + len(pkt.payload)
        )
        out = ip_bytes + transport_bytes + pkt.payload
        perf.incr("packet.bytes_rendered", len(out))
        return out

    # -- per-protocol templates ----------------------------------------------
    def _cached(self, cache: dict, key, build):
        hit = cache.get(key)
        if hit is None:
            if len(cache) >= self.MAX_ENTRIES:
                cache.clear()
            hit = cache[key] = build()
            perf.incr("packet.render_templates")
        return hit

    def _render_ip(self, ip: IPv4Header, payload_length: int) -> bytes:
        key = (
            ip.src_ip, ip.dst_ip, ip.proto, ip.dscp, ip.ecn,
            ip.flags, ip.fragment_offset, ip.options, ip.version,
        )

        def build():
            ip.validate()
            padded = ip.options + b"\x00" * (-len(ip.options) % 4)
            head = struct.pack(
                ">BBHHHBBHII",
                (ip.version << 4) | ip.ihl,
                (ip.dscp << 2) | ip.ecn,
                0,  # total_length, patched per packet
                0,  # identification, patched per packet
                (ip.flags << 13) | ip.fragment_offset,
                0,  # ttl, patched per packet
                ip.proto,
                0,  # checksum, patched per packet
                ip.src_ip,
                ip.dst_ip,
            ) + padded
            return bytearray(head), _ones_complement_sum(head)

        buf, base = self._cached(self._ip_cache, key, build)
        total = ip.total_length
        if total is None:
            total = len(buf) + payload_length
        # ttl shares its 16-bit checksum word with proto (already in base).
        varying = total + ip.identification + (ip.ttl << 8)
        csum = ~_fold16(base + varying) & 0xFFFF
        struct.pack_into(">HH", buf, 2, total, ip.identification)
        buf[8] = ip.ttl
        struct.pack_into(">H", buf, 10, csum)
        return bytes(buf)

    def _render_tcp(
        self, tcp: TCPHeader, src_ip: int, dst_ip: int, payload: bytes
    ) -> bytes:
        key = (
            "tcp", src_ip, dst_ip, tcp.src_port, tcp.dst_port,
            tcp.reserved, tcp.options,
        )

        def build():
            tcp.validate()
            padded = tcp.options + b"\x00" * (-len(tcp.options) % 4)
            head = struct.pack(
                ">HHIIHHHH",
                tcp.src_port,
                tcp.dst_port,
                0,  # seq, patched per packet
                0,  # ack, patched per packet
                # flags patched per packet; offset/reserved are key-stable
                (tcp.data_offset << 12) | (tcp.reserved << 8),
                0,  # window, patched per packet
                0,  # checksum, patched per packet
                0,  # urgent pointer, patched per packet
            ) + padded
            pseudo = pseudo_header(src_ip, dst_ip, int(IPProto.TCP), 0)
            return bytearray(head), _ones_complement_sum(pseudo + head)

        buf, base = self._cached(self._transport_cache, key, build)
        segment_len = len(buf) + len(payload)
        # flags occupy the low byte of the offset word already summed in
        # base (reserved sits in bits 8-11), so adding them cannot carry
        # into overlapping bits.
        total = (
            base + segment_len
            + (tcp.seq >> 16) + (tcp.seq & 0xFFFF)
            + (tcp.ack >> 16) + (tcp.ack & 0xFFFF)
            + tcp.flags + tcp.window + tcp.urgent_pointer
            + _ones_complement_sum(payload)
        )
        csum = ~_fold16(total) & 0xFFFF
        offset_word = (
            (tcp.data_offset << 12) | (tcp.reserved << 8) | tcp.flags
        )
        struct.pack_into(
            ">IIHHHH", buf, 4, tcp.seq, tcp.ack, offset_word,
            tcp.window, csum, tcp.urgent_pointer,
        )
        return bytes(buf)

    def _render_udp(
        self, udp: UDPHeader, src_ip: int, dst_ip: int, payload: bytes
    ) -> bytes:
        key = ("udp", src_ip, dst_ip, udp.src_port, udp.dst_port)

        def build():
            udp.validate()
            head = struct.pack(
                ">HHHH", udp.src_port, udp.dst_port, 0, 0
            )  # length and checksum patched per packet
            pseudo = pseudo_header(src_ip, dst_ip, int(IPProto.UDP), 0)
            return bytearray(head), _ones_complement_sum(pseudo + head)

        buf, base = self._cached(self._transport_cache, key, build)
        length = udp.length
        if length is None:
            length = len(buf) + len(payload)
        # The datagram length appears twice: pseudo-header and UDP header.
        total = base + length + length + _ones_complement_sum(payload)
        csum = ~_fold16(total) & 0xFFFF
        if csum == 0:
            csum = 0xFFFF  # RFC 768: zero means "no checksum"
        struct.pack_into(">HH", buf, 4, length, csum)
        return bytes(buf)

    def _render_icmp(self, icmp: ICMPHeader, payload: bytes) -> bytes:
        key = ("icmp", icmp.icmp_type, icmp.code)

        def build():
            icmp.validate()
            head = struct.pack(
                ">BBHI", icmp.icmp_type, icmp.code, 0, 0
            )  # rest patched per packet
            return bytearray(head), _ones_complement_sum(head)

        buf, base = self._cached(self._transport_cache, key, build)
        rest = icmp.rest
        total = base + (rest >> 16) + (rest & 0xFFFF)
        csum = ~_fold16(total + _ones_complement_sum(payload)) & 0xFFFF
        struct.pack_into(">HI", buf, 2, csum, rest)
        return bytes(buf)


def render_flows(flows, renderer: PacketRenderer | None = None):
    """Render every packet of ``flows`` to wire bytes, flow-major.

    Returns ``(datas, timestamps)`` ready for
    :meth:`repro.net.pcap.PcapWriter.write_many`.  A decoded batch
    (:class:`repro.nprint.decoder.FlowBatch`) already carries both and is
    returned as is; object flows go through ``renderer`` packet by packet.
    """
    import numpy as np

    records = getattr(flows, "records", None)
    if records is not None:
        return records, flows.stamps
    renderer = renderer or PacketRenderer()
    datas: list[bytes] = []
    stamps: list[float] = []
    for flow in flows:
        for pkt in flow.packets:
            datas.append(renderer.render(pkt))
            stamps.append(pkt.timestamp)
    return datas, np.asarray(stamps, dtype=np.float64)
