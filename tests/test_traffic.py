"""Unit tests for profiles, session builders and the dataset generator."""

import numpy as np
import pytest

from repro.net.headers import IPProto, TCPFlags, TCPHeader
from repro.net.replay import ReplayEngine
from repro.traffic.apps import generate_flow
from repro.traffic.dataset import (
    build_service_recognition_dataset,
    generate_app_flows,
    sample_endpoints,
    scaled_counts,
)
from repro.traffic.profiles import (
    MICRO_LABELS,
    PROFILES,
    MacroService,
    macro_counts,
    macro_label,
    table1_counts,
)
from repro.traffic.sessions import (
    CLIENT,
    SERVER,
    DataEvent,
    Endpoints,
    TCPSessionBuilder,
    UDPSessionBuilder,
)


@pytest.fixture
def endpoints():
    return Endpoints(client_ip=0x0A000001, client_port=40000,
                     server_ip=0x17000001, server_port=443)


class TestProfiles:
    def test_eleven_micro_labels(self):
        assert len(MICRO_LABELS) == 11

    def test_four_macro_services(self):
        assert len({PROFILES[m].macro for m in MICRO_LABELS}) == 4

    def test_table1_counts_match_paper(self):
        counts = table1_counts()
        assert counts["netflix"] == 4104
        assert counts["youtube"] == 2702
        assert counts["amazon"] == 1509
        assert counts["twitch"] == 1150
        assert counts["teams"] == 3886
        assert counts["meet"] == 1313
        assert counts["zoom"] == 1312
        assert counts["facebook"] == 1477
        assert counts["twitter"] == 1260
        assert counts["instagram"] == 873
        assert counts["other"] == 3901
        assert sum(counts.values()) == 23487

    def test_macro_totals_match_paper(self):
        totals = macro_counts()
        assert totals["video-streaming"] == 9465
        assert totals["video-conferencing"] == 6511
        assert totals["social-media"] == 3610
        assert totals["iot-device"] == 3901

    def test_macro_label_mapping(self):
        assert macro_label("netflix") == "video-streaming"
        assert macro_label("teams") == "video-conferencing"
        assert macro_label("facebook") == "social-media"
        assert macro_label("other") == "iot-device"

    def test_transport_mix(self):
        p = PROFILES["netflix"]
        assert p.transport_for(0.5) == "tcp"
        teams = PROFILES["teams"]
        assert teams.transport_for(0.99) == "udp"
        other = PROFILES["other"]
        assert other.transport_for(0.0) == "icmp"


class TestTCPSessionBuilder:
    def test_handshake_structure(self, endpoints):
        builder = TCPSessionBuilder(PROFILES["netflix"], endpoints,
                                    np.random.default_rng(0))
        flow = builder.build([])
        flags = [p.transport.flags for p in flow.packets]
        assert flags[0] == int(TCPFlags.SYN)
        assert flags[1] == int(TCPFlags.SYN | TCPFlags.ACK)
        assert flags[2] == int(TCPFlags.ACK)
        # Teardown: FIN/ACK, FIN/ACK, ACK.
        assert flags[-3] == int(TCPFlags.FIN | TCPFlags.ACK)
        assert flags[-2] == int(TCPFlags.FIN | TCPFlags.ACK)
        assert flags[-1] == int(TCPFlags.ACK)

    def test_syn_carries_mss_option(self, endpoints):
        builder = TCPSessionBuilder(PROFILES["netflix"], endpoints,
                                    np.random.default_rng(0))
        flow = builder.build([])
        syn = flow.packets[0].transport
        assert syn.options[:2] == b"\x02\x04"
        mss = int.from_bytes(syn.options[2:4], "big")
        assert mss == PROFILES["netflix"].mss

    def test_sequence_numbers_advance_with_payload(self, endpoints):
        profile = PROFILES["netflix"]
        builder = TCPSessionBuilder(profile, endpoints,
                                    np.random.default_rng(0))
        flow = builder.build([
            DataEvent(gap=0.0, sender=SERVER, payload_len=profile.mss * 3,
                      push=True),
        ])
        server_data = [
            p for p in flow.packets
            if p.ip.src_ip == endpoints.server_ip and len(p.payload) > 0
        ]
        assert len(server_data) == 3
        for a, b in zip(server_data, server_data[1:]):
            assert b.transport.seq == (a.transport.seq + len(a.payload)) \
                % 2**32

    def test_segmentation_respects_mss(self, endpoints):
        profile = PROFILES["netflix"]
        builder = TCPSessionBuilder(profile, endpoints,
                                    np.random.default_rng(0))
        flow = builder.build([
            DataEvent(gap=0.0, sender=SERVER, payload_len=10_000, push=True)
        ])
        assert all(len(p.payload) <= profile.mss for p in flow.packets)

    def test_send_before_handshake_raises(self, endpoints):
        builder = TCPSessionBuilder(PROFILES["netflix"], endpoints,
                                    np.random.default_rng(0))
        with pytest.raises(RuntimeError):
            builder.send(DataEvent(gap=0.0, sender=CLIENT, payload_len=10))

    def test_timestamps_monotone(self, endpoints):
        builder = TCPSessionBuilder(PROFILES["netflix"], endpoints,
                                    np.random.default_rng(0))
        flow = builder.build([
            DataEvent(gap=0.5, sender=CLIENT, payload_len=100),
            DataEvent(gap=1.0, sender=SERVER, payload_len=5000),
        ])
        ts = [p.timestamp for p in flow.packets]
        assert ts == sorted(ts)

    def test_replay_compliant(self, endpoints):
        builder = TCPSessionBuilder(PROFILES["amazon"], endpoints,
                                    np.random.default_rng(1))
        flow = builder.build([
            DataEvent(gap=0.1, sender=CLIENT, payload_len=200, push=True),
            DataEvent(gap=0.1, sender=SERVER, payload_len=8000, push=True),
        ])
        assert ReplayEngine().replay(flow.packets).compliance == 1.0

    def test_dscp_marking(self, endpoints):
        builder = TCPSessionBuilder(PROFILES["teams"], endpoints,
                                    np.random.default_rng(0))
        flow = builder.build([])
        assert all(p.ip.dscp == 46 for p in flow.packets)


class TestUDPSessionBuilder:
    def test_stun_opener(self, endpoints):
        builder = UDPSessionBuilder(PROFILES["teams"], endpoints,
                                    np.random.default_rng(0),
                                    stun_opener=True)
        flow = builder.build([])
        assert len(flow.packets) == 2
        assert flow.packets[0].ip.src_ip == endpoints.client_ip
        assert flow.packets[1].ip.src_ip == endpoints.server_ip

    def test_large_event_segmented(self, endpoints):
        builder = UDPSessionBuilder(PROFILES["youtube"], endpoints,
                                    np.random.default_rng(0),
                                    stun_opener=False)
        flow = builder.build([
            DataEvent(gap=0.0, sender=SERVER, payload_len=10_000)
        ])
        assert len(flow.packets) > 1
        assert all(len(p.payload) <= 1350 for p in flow.packets)

    def test_all_udp(self, endpoints):
        builder = UDPSessionBuilder(PROFILES["teams"], endpoints,
                                    np.random.default_rng(0))
        flow = builder.build([
            DataEvent(gap=0.02, sender=CLIENT, payload_len=700),
            DataEvent(gap=0.02, sender=SERVER, payload_len=900),
        ])
        assert all(p.ip.proto == IPProto.UDP for p in flow.packets)


class TestGenerateFlow:
    @pytest.mark.parametrize("app", list(MICRO_LABELS))
    def test_every_app_generates_valid_flows(self, app, endpoints):
        rng = np.random.default_rng(7)
        flow = generate_flow(PROFILES[app], rng, endpoints)
        assert len(flow) >= PROFILES[app].flow_packets_min
        assert flow.label == app
        ts = [p.timestamp for p in flow.packets]
        assert ts == sorted(ts)
        # Every packet serialises to valid wire bytes.
        for p in flow.packets[:20]:
            assert len(p.to_bytes()) >= 28

    def test_netflix_is_tcp(self, endpoints):
        rng = np.random.default_rng(1)
        for _ in range(5):
            flow = generate_flow(PROFILES["netflix"], rng, endpoints)
            assert flow.dominant_protocol == IPProto.TCP

    def test_teams_is_mostly_udp(self, endpoints):
        rng = np.random.default_rng(1)
        protos = [
            generate_flow(PROFILES["teams"], rng, endpoints).dominant_protocol
            for _ in range(20)
        ]
        assert protos.count(int(IPProto.UDP)) >= 15


class TestDataset:
    def test_scaled_counts_proportional(self):
        counts = scaled_counts(0.01)
        assert counts["netflix"] == 42  # ceil(4104 * 0.01)
        assert all(v >= 2 for v in counts.values())

    def test_scaled_counts_rejects_non_positive(self):
        with pytest.raises(ValueError):
            scaled_counts(0)

    def test_full_scale_counts(self):
        assert scaled_counts(1.0) == table1_counts()

    def test_dataset_composition(self, small_dataset):
        counts = small_dataset.counts()
        assert set(counts) == set(MICRO_LABELS)
        expected = scaled_counts(small_dataset.scale)
        assert counts == expected

    def test_dataset_deterministic(self):
        a = build_service_recognition_dataset(scale=0.005, seed=9)
        b = build_service_recognition_dataset(scale=0.005, seed=9)
        assert a.counts() == b.counts()
        assert len(a.flows[0]) == len(b.flows[0])
        assert a.flows[0].packets[0].to_bytes() == \
            b.flows[0].packets[0].to_bytes()

    def test_dataset_seed_changes_data(self):
        a = build_service_recognition_dataset(scale=0.005, seed=1)
        b = build_service_recognition_dataset(scale=0.005, seed=2)
        assert a.flows[0].packets[0].to_bytes() != \
            b.flows[0].packets[0].to_bytes()

    def test_sorted_by_start_time(self, small_dataset):
        starts = [f.start_time for f in small_dataset.flows]
        assert starts == sorted(starts)

    def test_subset(self, small_dataset):
        sub = small_dataset.subset(["netflix", "youtube"])
        assert set(sub.counts()) == {"netflix", "youtube"}

    def test_subset_unknown_label_raises(self, small_dataset):
        with pytest.raises(KeyError):
            build_service_recognition_dataset(scale=0.004, apps=["nope"])

    def test_clients_inside_ten_slash_eight(self, small_dataset):
        for flow in small_dataset.flows[:50]:
            first = flow.packets[0]
            ips = {first.ip.src_ip, first.ip.dst_ip}
            assert any((ip & 0xFF000000) == 0x0A000000 for ip in ips)

    def test_generate_app_flows_label(self):
        flows = generate_app_flows("zoom", 3, seed=0)
        assert len(flows) == 3
        assert all(f.label == "zoom" for f in flows)

    def test_sample_endpoints_ranges(self):
        rng = np.random.default_rng(0)
        ep = sample_endpoints(PROFILES["teams"], rng)
        assert (ep.client_ip & 0xFF000000) == 0x0A000000
        assert 49152 <= ep.client_port <= 65535
        assert ep.server_port in PROFILES["teams"].server_ports
