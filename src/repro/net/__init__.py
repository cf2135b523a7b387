"""Byte-accurate packet substrate: headers, packets, flows, pcap I/O, replay.

This package is the lowest layer of the reproduction.  Everything above it
(the nprint bit representation, the traffic workload generator, the diffusion
pipeline's pcap back-transform) builds and parses packets through these
classes, so header serialisation here is wire-accurate: checksums, network
byte order, option padding, and fragmentation fields all follow the RFCs.
"""

from repro.net.checksum import internet_checksum
from repro.net.headers import (
    ICMP_HEADER_BYTES,
    IPV4_MAX_HEADER_BYTES,
    IPV4_MIN_HEADER_BYTES,
    TCP_MAX_HEADER_BYTES,
    TCP_MIN_HEADER_BYTES,
    UDP_HEADER_BYTES,
    ICMPHeader,
    IPProto,
    IPv4Header,
    TCPFlags,
    TCPHeader,
    UDPHeader,
)
from repro.net.ipaddr import ip_to_str
from repro.net.packet import Packet, build_packet, parse_packet
from repro.net.flow import Flow, FlowKey, assemble_flows
from repro.net.pcap import PcapReader, PcapWriter, read_pcap, write_pcap
from repro.net.pcapng import PcapngReader, read_capture
from repro.net.tcpoptions import (
    TCPOption,
    TCPOptionKind,
    find_option,
    parse_tcp_options,
)
from repro.net.replay import (
    NetworkFunction,
    ProtocolConsistencyMonitor,
    ReplayEngine,
    ReplayReport,
    StatefulFirewall,
    TCPStateTracker,
)

__all__ = [
    "internet_checksum",
    "ip_to_str",
    "IPProto",
    "TCPFlags",
    "IPv4Header",
    "TCPHeader",
    "UDPHeader",
    "ICMPHeader",
    "IPV4_MIN_HEADER_BYTES",
    "IPV4_MAX_HEADER_BYTES",
    "TCP_MIN_HEADER_BYTES",
    "TCP_MAX_HEADER_BYTES",
    "UDP_HEADER_BYTES",
    "ICMP_HEADER_BYTES",
    "Packet",
    "build_packet",
    "parse_packet",
    "Flow",
    "FlowKey",
    "assemble_flows",
    "PcapReader",
    "PcapWriter",
    "read_pcap",
    "write_pcap",
    "PcapngReader",
    "read_capture",
    "TCPOption",
    "TCPOptionKind",
    "parse_tcp_options",
    "find_option",
    "ReplayEngine",
    "ReplayReport",
    "NetworkFunction",
    "StatefulFirewall",
    "TCPStateTracker",
    "ProtocolConsistencyMonitor",
]
