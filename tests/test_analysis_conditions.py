"""Tests for the analysis toolkit and network-condition transforms."""

import pytest

from repro.analysis import (
    FlowSummary,
    TraceSummary,
    compare_generators,
    compare_traces,
)
from repro.net.flow import Flow
from repro.net.headers import IPProto
from repro.traffic import generate_app_flows
from repro.traffic.conditions import apply_throttle


@pytest.fixture(scope="module")
def netflix_flows():
    return generate_app_flows("netflix", 8, seed=91)


@pytest.fixture(scope="module")
def teams_flows():
    return generate_app_flows("teams", 8, seed=92)


class TestFlowSummary:
    def test_basic_fields(self, netflix_flows):
        summary = FlowSummary.from_flow(netflix_flows[0])
        assert summary.label == "netflix"
        assert summary.n_packets == len(netflix_flows[0])
        assert summary.dominant_protocol == IPProto.TCP
        assert summary.mean_packet_size > 0
        assert 0 <= summary.up_fraction <= 1

    def test_handshake_detected(self, netflix_flows):
        summary = FlowSummary.from_flow(netflix_flows[0])
        assert summary.has_handshake
        assert summary.syn_count == 2  # SYN + SYN/ACK
        assert summary.fin_count == 2

    def test_mss_from_syn(self, netflix_flows, teams_flows):
        summary = FlowSummary.from_flow(netflix_flows[0])
        assert summary.mss == 1460  # netflix profile MSS
        from repro.net.headers import IPProto
        udp = next(f for f in teams_flows
                   if f.dominant_protocol == IPProto.UDP)
        assert FlowSummary.from_flow(udp).mss is None

    def test_udp_flow_no_tcp_counters(self, teams_flows):
        udp = next(f for f in teams_flows
                   if f.dominant_protocol == IPProto.UDP)
        summary = FlowSummary.from_flow(udp)
        assert summary.syn_count == 0
        assert not summary.has_handshake

    def test_empty_flow_raises(self):
        with pytest.raises(ValueError):
            FlowSummary.from_flow(Flow())


class TestTraceSummary:
    def test_aggregates(self, netflix_flows, teams_flows):
        summary = TraceSummary.from_flows(netflix_flows + teams_flows)
        assert summary.n_flows == 16
        assert summary.n_packets == sum(
            len(f) for f in netflix_flows + teams_flows)
        assert abs(sum(summary.protocol_mix.values()) - 1.0) < 1e-9
        assert summary.labels == {"netflix": 8, "teams": 8}
        assert summary.handshake_fraction == 1.0  # all TCP flows clean

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            TraceSummary.from_flows([Flow()])


class TestCompare:
    def test_self_comparison_near_zero(self, netflix_flows):
        report = compare_traces(netflix_flows, netflix_flows,
                                nprint_packets=8)
        for d in report.distances:
            assert d.value == pytest.approx(0.0, abs=1e-9), d.quantity
        assert report.nprint_bit_fidelity == pytest.approx(1.0)

    def test_different_apps_nonzero(self, netflix_flows, teams_flows):
        report = compare_traces(netflix_flows, teams_flows,
                                nprint_packets=8)
        assert report.value("protocol mix") > 0.1
        assert report.value("class coverage") > 0.5
        assert report.nprint_bit_fidelity < 0.95

    def test_render(self, netflix_flows, teams_flows):
        text = compare_traces(netflix_flows, teams_flows,
                              nprint_packets=None).render()
        assert "packet sizes" in text
        assert "protocol mix" in text

    def test_compare_generators(self, netflix_flows, teams_flows):
        reports = compare_generators(
            netflix_flows,
            {"identity": netflix_flows, "wrong-app": teams_flows},
            nprint_packets=None,
        )
        assert reports["identity"].value("packet sizes") < \
            reports["wrong-app"].value("packet sizes") + 1e-9

    def test_unknown_quantity_raises(self, netflix_flows):
        report = compare_traces(netflix_flows, netflix_flows,
                                nprint_packets=None)
        with pytest.raises(KeyError):
            report.value("nope")


class TestJitterLossThrottle:
    def test_throttle_caps_rate(self, netflix_flows):
        flow = netflix_flows[0]
        cap = 50_000.0  # bytes/s, well below a burst's instantaneous rate
        out = apply_throttle(flow, cap)
        assert out.duration >= flow.duration
        # Average rate after throttling respects the cap (within one MTU).
        if out.duration > 0:
            rate = out.total_bytes / out.duration
            assert rate <= cap * 1.1 + 1500

    def test_throttle_validation(self, netflix_flows):
        with pytest.raises(ValueError):
            apply_throttle(netflix_flows[0], 0)
