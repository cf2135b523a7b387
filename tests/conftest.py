"""Shared fixtures: representative packets, flows and a small dataset."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.net.headers import ICMPHeader, TCPFlags, TCPHeader, UDPHeader
from repro.net.packet import Packet, build_packet
from repro.net.flow import Flow
from repro.traffic.dataset import build_service_recognition_dataset

# Hypothesis examples for properties that leave ``max_examples`` to the
# profile (``TestArrayFinalizeProperties``): tier-1 runs "tier1"; CI
# reruns them with ``--hypothesis-profile thorough``.
settings.register_profile("tier1", max_examples=50)
settings.register_profile("thorough", max_examples=500)


def pytest_configure(config):
    if not config.getoption("hypothesis_profile", None):
        settings.load_profile("tier1")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def tcp_packet() -> Packet:
    header = TCPHeader(
        src_port=51000,
        dst_port=443,
        seq=1_000_000,
        ack=2_000_000,
        flags=int(TCPFlags.PSH | TCPFlags.ACK),
        window=64240,
        options=b"\x01\x01\x08\x0a\x00\x00\x00\x2a\x00\x00\x00\x00",
    )
    return build_packet(
        0x0A000001, 0x17000001, header, payload=b"GET / HTTP/1.1\r\n",
        ttl=64, timestamp=10.5,
    )


@pytest.fixture
def udp_packet() -> Packet:
    header = UDPHeader(src_port=50000, dst_port=3478)
    return build_packet(
        0x0A000002, 0x17010001, header, payload=b"\x00" * 120,
        ttl=64, timestamp=11.0,
    )


@pytest.fixture
def icmp_packet() -> Packet:
    header = ICMPHeader(icmp_type=8, code=0, rest=0x00010001)
    return build_packet(
        0x0A000003, 0x17020001, header, payload=b"\x00" * 16,
        ttl=255, timestamp=12.0,
    )


@pytest.fixture
def sample_flow(tcp_packet) -> Flow:
    """A tiny TCP conversation with coherent timestamps."""
    packets = []
    base = tcp_packet
    for i in range(5):
        header = TCPHeader(
            src_port=51000, dst_port=443, seq=1000 + i * 100,
            ack=2000, flags=int(TCPFlags.ACK), window=64240,
        )
        packets.append(
            build_packet(base.ip.src_ip, base.ip.dst_ip, header,
                         payload=b"x" * 100, timestamp=1.0 + i * 0.01)
        )
    return Flow(packets=packets, label="sample")


@pytest.fixture(scope="session")
def small_dataset():
    """A scaled Table 1 dataset shared by the heavier tests."""
    return build_service_recognition_dataset(scale=0.008, seed=42)
