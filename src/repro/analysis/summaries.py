"""Statistical summaries of flows and traces.

The "traditionally performed network analysis" the paper says fine-grained
synthetic traces enable (§3.2, citing Wireshark-style tooling): per-flow
and per-trace summaries of sizes, timing, protocol mix and TCP behaviour,
computed directly from :class:`~repro.net.flow.Flow` objects.  The
comparison module builds real-vs-synthetic fidelity reports on top of
these summaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.net.flow import Flow
from repro.net.headers import IPProto, TCPFlags, TCPHeader


@dataclass
class FlowSummary:
    """Wireshark-conversation-style statistics for one flow."""

    label: str
    n_packets: int
    n_bytes: int
    duration: float
    dominant_protocol: int
    mean_packet_size: float
    std_packet_size: float
    mean_interarrival: float
    up_fraction: float  # share of packets from the flow initiator
    syn_count: int
    fin_count: int
    rst_count: int
    has_handshake: bool
    mss: int | None = None  # negotiated MSS from the initiator's SYN

    @classmethod
    def from_flow(cls, flow: Flow) -> "FlowSummary":
        if not flow.packets:
            raise ValueError("cannot summarise an empty flow")
        sizes = np.array([p.total_length for p in flow.packets], dtype=float)
        gaps = np.array(flow.interarrival_times(), dtype=float)
        client = flow.packets[0].ip.src_ip
        up = np.mean([p.ip.src_ip == client for p in flow.packets])
        flags = [
            p.transport.flags
            for p in flow.packets
            if isinstance(p.transport, TCPHeader)
        ]
        syn = sum(bool(f & TCPFlags.SYN) for f in flags)
        fin = sum(bool(f & TCPFlags.FIN) for f in flags)
        rst = sum(bool(f & TCPFlags.RST) for f in flags)
        handshake = (
            len(flags) >= 3
            and flags[0] == int(TCPFlags.SYN)
            and flags[1] == int(TCPFlags.SYN | TCPFlags.ACK)
            and bool(flags[2] & TCPFlags.ACK)
        )
        mss = None
        for p in flow.packets:
            if isinstance(p.transport, TCPHeader) \
                    and p.transport.flags & TCPFlags.SYN:
                from repro.net.tcpoptions import TCPOptionKind, find_option

                option = find_option(p.transport.options,
                                     TCPOptionKind.MSS)
                if option is not None:
                    mss = option.mss
                break
        return cls(
            label=flow.label,
            n_packets=len(flow),
            n_bytes=flow.total_bytes,
            duration=flow.duration,
            dominant_protocol=flow.dominant_protocol,
            mean_packet_size=float(sizes.mean()),
            std_packet_size=float(sizes.std()),
            mean_interarrival=float(gaps.mean()) if gaps.size else 0.0,
            up_fraction=float(up),
            syn_count=syn,
            fin_count=fin,
            rst_count=rst,
            has_handshake=handshake,
            mss=mss,
        )


@dataclass
class TraceSummary:
    """Aggregate view over a list of flows (one capture / one generator)."""

    n_flows: int
    n_packets: int
    n_bytes: int
    protocol_mix: dict[int, float]  # fraction of packets per IP protocol
    packet_sizes: np.ndarray = field(repr=False)
    interarrivals: np.ndarray = field(repr=False)
    flow_durations: np.ndarray = field(repr=False)
    flow_packet_counts: np.ndarray = field(repr=False)
    handshake_fraction: float = 0.0  # TCP flows starting with a handshake
    labels: dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_flows(cls, flows: list[Flow]) -> "TraceSummary":
        flows = [f for f in flows if len(f)]
        if not flows:
            raise ValueError("no non-empty flows to summarise")
        sizes: list[float] = []
        gaps: list[float] = []
        protocol_counts: dict[int, int] = {}
        labels: dict[str, int] = {}
        handshakes = 0
        tcp_flows = 0
        for flow in flows:
            summary = FlowSummary.from_flow(flow)
            sizes.extend(p.total_length for p in flow.packets)
            gaps.extend(flow.interarrival_times())
            labels[flow.label] = labels.get(flow.label, 0) + 1
            for p in flow.packets:
                protocol_counts[p.ip.proto] = \
                    protocol_counts.get(p.ip.proto, 0) + 1
            if summary.dominant_protocol == IPProto.TCP:
                tcp_flows += 1
                handshakes += summary.has_handshake
        n_packets = sum(len(f) for f in flows)
        return cls(
            n_flows=len(flows),
            n_packets=n_packets,
            n_bytes=sum(f.total_bytes for f in flows),
            protocol_mix={
                proto: count / n_packets
                for proto, count in sorted(protocol_counts.items())
            },
            packet_sizes=np.asarray(sizes, dtype=float),
            interarrivals=np.asarray(gaps, dtype=float),
            flow_durations=np.asarray(
                [f.duration for f in flows], dtype=float),
            flow_packet_counts=np.asarray(
                [len(f) for f in flows], dtype=float),
            handshake_fraction=handshakes / tcp_flows if tcp_flows else 0.0,
            labels=labels,
        )

