"""Property-based tests over the traffic substrates and repair passes."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.staterepair import repair_flow_state
from repro.net.flow import Flow, FlowKey
from repro.net.headers import TCPFlags, TCPHeader, UDPHeader
from repro.net.packet import build_packet
from repro.net.replay import ReplayEngine
from repro.traffic.apps import generate_flow
from repro.traffic.conditions import apply_throttle
from repro.traffic.profiles import MICRO_LABELS, PROFILES
from repro.traffic.sessions import CLIENT, SERVER, DataEvent, Endpoints
from repro.traffic.vpn import VPNTunnel, tunnel_payload_length

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.function_scoped_fixture],
)


def _endpoints(seed: int) -> Endpoints:
    rng = np.random.default_rng(seed)
    return Endpoints(
        client_ip=0x0A000000 + int(rng.integers(1, 2**16)),
        client_port=int(rng.integers(49152, 65535)),
        server_ip=0x17000000 + int(rng.integers(1, 2**16)),
        server_port=443,
    )


class TestSessionProperties:
    @given(app=st.sampled_from(sorted(MICRO_LABELS)),
           seed=st.integers(0, 2**31 - 1))
    @SETTINGS
    def test_generated_flows_always_replay_clean(self, app, seed):
        """Every generated flow, any app, any seed: protocol-correct."""
        rng = np.random.default_rng(seed)
        flow = generate_flow(PROFILES[app], rng, _endpoints(seed))
        report = ReplayEngine().replay(flow.packets)
        assert report.compliance == 1.0

    @given(app=st.sampled_from(sorted(MICRO_LABELS)),
           seed=st.integers(0, 2**31 - 1))
    @SETTINGS
    def test_generated_flows_single_conversation(self, app, seed):
        rng = np.random.default_rng(seed)
        flow = generate_flow(PROFILES[app], rng, _endpoints(seed))
        keys = {FlowKey.from_packet(p) for p in flow.packets}
        assert len(keys) == 1
        ts = [p.timestamp for p in flow.packets]
        assert ts == sorted(ts)

    @given(events=st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=1.0, allow_nan=False),
            st.sampled_from([CLIENT, SERVER]),
            st.integers(min_value=1, max_value=5000),
        ),
        min_size=0, max_size=8,
    ), seed=st.integers(0, 2**31 - 1))
    @SETTINGS
    def test_tcp_builder_valid_for_arbitrary_schedules(self, events, seed):
        from repro.traffic.sessions import TCPSessionBuilder

        rng = np.random.default_rng(seed)
        builder = TCPSessionBuilder(PROFILES["netflix"], _endpoints(seed),
                                    rng)
        schedule = [DataEvent(gap=g, sender=s, payload_len=n, push=True)
                    for g, s, n in events]
        flow = builder.build(schedule)
        assert ReplayEngine().replay(flow.packets).compliance == 1.0
        total_payload = sum(len(p.payload) for p in flow.packets)
        assert total_payload == sum(n for _, _, n in events)


class TestStateRepairProperties:
    @given(seed=st.integers(0, 2**31 - 1),
           n=st.integers(min_value=1, max_value=12))
    @SETTINGS
    def test_repaired_stateless_tcp_always_replays(self, seed, n):
        rng = np.random.default_rng(seed)
        packets = []
        for i in range(n):
            header = TCPHeader(
                src_port=int(rng.integers(1, 65535)),
                dst_port=int(rng.integers(1, 65535)),
                seq=int(rng.integers(0, 2**32)),
                flags=int(TCPFlags.ACK),
            )
            packets.append(build_packet(
                int(rng.integers(1, 2**32)), int(rng.integers(1, 2**32)),
                header, payload=b"x" * int(rng.integers(0, 1400)),
                timestamp=i * 0.01,
            ))
        repaired = repair_flow_state(Flow(packets=packets), rng)
        assert ReplayEngine().replay(repaired.packets).compliance == 1.0


class TestConditionProperties:
    @given(seed=st.integers(0, 100),
           cap=st.floats(min_value=1e4, max_value=1e8, allow_nan=False))
    @SETTINGS
    def test_throttle_never_speeds_up(self, seed, cap):
        rng = np.random.default_rng(seed)
        flow = generate_flow(PROFILES["twitter"], rng, _endpoints(seed))
        out = apply_throttle(flow, cap)
        for a, b in zip(flow.packets, out.packets):
            assert b.timestamp >= a.timestamp - 1e-12


class TestVPNProperties:
    @given(length=st.integers(min_value=20, max_value=65000))
    @SETTINGS
    def test_padding_monotone_and_aligned(self, length):
        padded = tunnel_payload_length(length)
        assert padded >= length
        assert (padded - 32) % 16 == 0

    @given(seed=st.integers(0, 100))
    @SETTINGS
    def test_tunnel_hides_inner_endpoints(self, seed):
        rng = np.random.default_rng(seed)
        flow = generate_flow(PROFILES["facebook"], rng, _endpoints(seed))
        tunnel = VPNTunnel()
        outer = tunnel.encapsulate(flow)
        inner_ips = {p.ip.src_ip for p in flow.packets} | \
            {p.ip.dst_ip for p in flow.packets}
        outer_ips = {p.ip.src_ip for p in outer.packets} | \
            {p.ip.dst_ip for p in outer.packets}
        assert outer_ips == {tunnel.client_ip, tunnel.gateway_ip}
        assert not (outer_ips & inner_ips)
