"""Network condition transform: throughput throttling.

Substrate for the paper's §4 "network condition transfers — transferring
across varying network conditions such as latency, throughput, and loss
rate".  :func:`apply_throttle` returns a flow as it would have been
captured behind a byte-per-second cap.

The transform never mutates its input; packet headers are shared (they
are not modified), only timestamps change.
"""

from __future__ import annotations

from repro.net.flow import Flow
from repro.net.packet import Packet


def apply_throttle(flow: Flow, bytes_per_second: float) -> Flow:
    """Re-pace the flow so throughput never exceeds ``bytes_per_second``.

    Packets keep their order; each packet is released no earlier than the
    time at which the token bucket has accumulated its size.
    """
    if bytes_per_second <= 0:
        raise ValueError("bytes_per_second must be positive")
    if not flow.packets:
        return Flow(label=flow.label)
    packets = []
    available_at = flow.packets[0].timestamp
    for pkt in flow.packets:
        release = max(pkt.timestamp, available_at)
        packets.append(Packet(ip=pkt.ip, transport=pkt.transport,
                              payload=pkt.payload, timestamp=release))
        available_at = release + pkt.total_length / bytes_per_second
    return Flow(packets=packets, label=flow.label)
