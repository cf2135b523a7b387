"""Unit tests for the nprint encoder (packets/flows -> ternary matrices)."""

import numpy as np
import pytest

from repro.net.flow import Flow
from repro.nprint.encoder import (
    encode_flow,
    encode_flows,
    encode_packet,
    encode_packets,
    interarrival_channel,
    interarrival_channels,
)
from repro.nprint.fields import (
    FIELDS,
    ICMP_OFFSET,
    NPRINT_BITS,
    TCP_OFFSET,
    UDP_OFFSET,
    VACANT,
)


def _field_value(row, name):
    fs = FIELDS[name]
    value = 0
    for bit in row[fs.start:fs.stop]:
        value = (value << 1) | max(int(bit), 0)
    return value


class TestEncodePacket:
    def test_shape_and_dtype(self, tcp_packet):
        row = encode_packet(tcp_packet)
        assert row.shape == (NPRINT_BITS,)
        assert row.dtype == np.int8

    def test_values_ternary(self, tcp_packet):
        row = encode_packet(tcp_packet)
        assert set(np.unique(row)) <= {-1, 0, 1}

    def test_tcp_regions(self, tcp_packet):
        row = encode_packet(tcp_packet)
        # TCP fixed header present; UDP/ICMP entirely vacant.
        assert (row[TCP_OFFSET:TCP_OFFSET + 160] != VACANT).all()
        assert (row[UDP_OFFSET:UDP_OFFSET + 64] == VACANT).all()
        assert (row[ICMP_OFFSET:ICMP_OFFSET + 64] == VACANT).all()

    def test_udp_regions(self, udp_packet):
        row = encode_packet(udp_packet)
        assert (row[UDP_OFFSET:UDP_OFFSET + 64] != VACANT).all()
        assert (row[TCP_OFFSET:TCP_OFFSET + 480] == VACANT).all()

    def test_icmp_regions(self, icmp_packet):
        row = encode_packet(icmp_packet)
        assert (row[ICMP_OFFSET:ICMP_OFFSET + 64] != VACANT).all()
        assert (row[UDP_OFFSET:UDP_OFFSET + 64] == VACANT).all()

    def test_field_values_encoded_msb_first(self, tcp_packet):
        row = encode_packet(tcp_packet)
        assert _field_value(row, "ipv4.version") == 4
        assert _field_value(row, "ipv4.ttl") == 64
        assert _field_value(row, "ipv4.proto") == 6
        assert _field_value(row, "tcp.src_port") == 51000
        assert _field_value(row, "tcp.dst_port") == 443
        assert _field_value(row, "tcp.seq") == 1_000_000

    def test_option_bits_present(self, tcp_packet):
        row = encode_packet(tcp_packet)
        fs = FIELDS["tcp.options"]
        n_option_bits = len(tcp_packet.transport.options) * 8
        present = row[fs.start:fs.start + n_option_bits]
        assert (present != VACANT).all()
        # Tail of the option space stays vacant.
        assert (row[fs.start + n_option_bits:fs.stop] == VACANT).all()

    def test_no_options_vacant_option_region(self, udp_packet):
        row = encode_packet(udp_packet)
        fs = FIELDS["ipv4.options"]
        assert (row[fs.start:fs.stop] == VACANT).all()


class TestEncodeFlow:
    def test_padding_rows_vacant(self, sample_flow):
        m = encode_flow(sample_flow, max_packets=8)
        assert m.shape == (8, NPRINT_BITS)
        assert (m[5:] == VACANT).all()
        assert (m[0] != VACANT).any()

    def test_truncates_long_flow(self, sample_flow):
        m = encode_flow(sample_flow, max_packets=2)
        assert m.shape == (2, NPRINT_BITS)
        assert (m[1] != VACANT).any()

    def test_invalid_max_packets(self, sample_flow):
        with pytest.raises(ValueError):
            encode_flow(sample_flow, max_packets=0)

    def test_encode_flows_stack(self, sample_flow):
        out = encode_flows([sample_flow, sample_flow], max_packets=4)
        assert out.shape == (2, 4, NPRINT_BITS)

    def test_encode_flows_empty(self):
        out = encode_flows([], max_packets=4)
        assert out.shape == (0, 4, NPRINT_BITS)


class TestBatchedEncoding:
    """The vectorized fast path must match the reference path exactly."""

    @pytest.fixture(scope="class")
    def mixed_flows(self):
        from repro.traffic.dataset import build_service_recognition_dataset

        return build_service_recognition_dataset(scale=0.008, seed=7).flows

    def test_encode_packets_matches_encode_packet(
        self, tcp_packet, udp_packet, icmp_packet
    ):
        packets = [tcp_packet, udp_packet, icmp_packet, tcp_packet]
        batched = encode_packets(packets)
        reference = np.stack([encode_packet(p) for p in packets])
        assert np.array_equal(batched, reference)

    def test_encode_packets_empty(self):
        assert encode_packets([]).shape == (0, NPRINT_BITS)

    def test_encode_flows_matches_per_flow(self, mixed_flows):
        batched = encode_flows(mixed_flows, max_packets=16)
        reference = np.stack(
            [encode_flow(f, max_packets=16) for f in mixed_flows]
        )
        assert np.array_equal(batched, reference)

    def test_encode_flows_invalid_max_packets(self, sample_flow):
        with pytest.raises(ValueError):
            encode_flows([sample_flow], max_packets=0)

    def test_interarrival_channels_match_per_flow(self, mixed_flows):
        batched = interarrival_channels(mixed_flows, max_packets=16)
        reference = np.stack(
            [interarrival_channel(f, max_packets=16) for f in mixed_flows]
        )
        assert np.array_equal(batched, reference)

    def test_interarrival_channels_empty(self):
        assert interarrival_channels([], max_packets=4).shape == (0, 4)


class TestInterarrivalChannel:
    def test_gaps(self, sample_flow):
        gaps = interarrival_channel(sample_flow, max_packets=8)
        assert gaps.shape == (8,)
        assert gaps[0] == 0.0
        assert gaps[1] == pytest.approx(0.01)
        assert (gaps[5:] == 0.0).all()

    def test_non_negative_even_for_disordered_input(self, sample_flow):
        flow = Flow(packets=list(reversed(sample_flow.packets)))
        gaps = interarrival_channel(flow, max_packets=8)
        assert (gaps >= 0).all()
