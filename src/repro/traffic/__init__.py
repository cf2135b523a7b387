"""Stateful synthetic workload generator (the Table 1 dataset substitute).

The paper's curated campus dataset is proprietary; this package generates
the closest synthetic equivalent: 11 micro applications across 4 macro
services, each with a behavioural profile (dominant transport, packet
sizes, pacing, TCP header idiosyncrasies) realised through protocol-correct
session builders.  See DESIGN.md, "Substitutions".
"""

from repro.traffic.profiles import (
    MACRO_OF,
    MICRO_LABELS,
    PROFILES,
    AppProfile,
    MacroService,
    SessionShape,
    macro_counts,
    macro_label,
    table1_counts,
)
from repro.traffic.sessions import (
    CLIENT,
    SERVER,
    DataEvent,
    Endpoints,
    ICMPSessionBuilder,
    TCPSessionBuilder,
    UDPSessionBuilder,
)
from repro.traffic.apps import generate_flow
from repro.traffic.vpn import VPNTunnel, tunnel_payload_length, vpn_dataset
from repro.traffic.conditions import apply_throttle
from repro.traffic.dataset import (
    TraceDataset,
    build_service_recognition_dataset,
    generate_app_flows,
    sample_endpoints,
    scaled_counts,
)

__all__ = [
    "AppProfile",
    "MacroService",
    "SessionShape",
    "PROFILES",
    "MICRO_LABELS",
    "MACRO_OF",
    "macro_label",
    "table1_counts",
    "macro_counts",
    "DataEvent",
    "Endpoints",
    "CLIENT",
    "SERVER",
    "TCPSessionBuilder",
    "UDPSessionBuilder",
    "ICMPSessionBuilder",
    "generate_flow",
    "TraceDataset",
    "build_service_recognition_dataset",
    "generate_app_flows",
    "sample_endpoints",
    "scaled_counts",
    "VPNTunnel",
    "vpn_dataset",
    "tunnel_payload_length",
    "apply_throttle",
]
