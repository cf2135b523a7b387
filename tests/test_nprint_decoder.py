"""Unit tests for the nprint decoder and repair pass."""

import numpy as np
import pytest

from repro import perf
from repro.net.flow import Flow
from repro.net.headers import TCPFlags, UDPHeader
from repro.net.packet import build_packet, render_flows
from repro.nprint.decoder import (
    FlowBatch,
    NprintDecodeError,
    decode_batch,
    decode_flow,
    decode_packet,
    infer_transport,
    is_vacant_row,
    read_field,
    region_occupancy,
)
from repro.nprint.encoder import encode_flow, encode_packet
from repro.nprint.fields import FIELDS, NPRINT_BITS, VACANT


class TestRoundtrip:
    def test_tcp_fields_survive(self, tcp_packet):
        dec = decode_packet(encode_packet(tcp_packet))
        assert dec.ip.src_ip == tcp_packet.ip.src_ip
        assert dec.ip.ttl == tcp_packet.ip.ttl
        assert dec.transport.src_port == tcp_packet.transport.src_port
        assert dec.transport.seq == tcp_packet.transport.seq
        assert dec.transport.flags == tcp_packet.transport.flags
        assert dec.transport.window == tcp_packet.transport.window
        assert dec.transport.options == tcp_packet.transport.options

    def test_payload_length_preserved(self, tcp_packet):
        dec = decode_packet(encode_packet(tcp_packet))
        assert len(dec.payload) == len(tcp_packet.payload)

    def test_udp_roundtrip(self, udp_packet):
        dec = decode_packet(encode_packet(udp_packet))
        assert dec.transport.dst_port == 3478
        assert len(dec.payload) == 120

    def test_icmp_roundtrip(self, icmp_packet):
        dec = decode_packet(encode_packet(icmp_packet))
        assert dec.transport.icmp_type == 8
        assert dec.transport.rest == 0x00010001

    def test_strict_mode_accepts_clean_rows(self, tcp_packet):
        decode_packet(encode_packet(tcp_packet), strict=True)

    def test_decoded_packet_serialises(self, tcp_packet):
        dec = decode_packet(encode_packet(tcp_packet))
        wire = dec.to_bytes()
        assert len(wire) == dec.total_length


class TestRepairSemantics:
    def test_proto_field_contradiction_repaired(self, tcp_packet):
        row = encode_packet(tcp_packet)
        fs = FIELDS["ipv4.proto"]
        row[fs.start:fs.stop] = 0  # declared proto 0, TCP region populated
        dec = decode_packet(row)
        assert dec.ip.proto == 6  # region vote wins

    def test_proto_field_contradiction_strict_raises(self, tcp_packet):
        row = encode_packet(tcp_packet)
        fs = FIELDS["ipv4.proto"]
        row[fs.start:fs.stop] = 0
        with pytest.raises(NprintDecodeError):
            decode_packet(row, strict=True)

    def test_bad_version_strict_raises(self, tcp_packet):
        row = encode_packet(tcp_packet)
        fs = FIELDS["ipv4.version"]
        row[fs.start:fs.stop] = np.array([0, 1, 1, 0], dtype=np.int8)
        with pytest.raises(NprintDecodeError):
            decode_packet(row, strict=True)
        # Non-strict repairs to version 4.
        assert decode_packet(row).ip.version == 4

    def test_all_vacant_raises(self):
        with pytest.raises(NprintDecodeError):
            decode_packet(np.full(NPRINT_BITS, VACANT, dtype=np.int8))

    def test_wrong_shape_raises(self):
        with pytest.raises(ValueError):
            decode_packet(np.zeros(100, dtype=np.int8))

    def test_total_length_clamped(self, tcp_packet):
        row = encode_packet(tcp_packet)
        fs = FIELDS["ipv4.total_length"]
        row[fs.start:fs.stop] = 1  # declared 65535
        dec = decode_packet(row)
        assert dec.total_length <= 65535

    def test_checksums_recomputed(self, tcp_packet):
        row = encode_packet(tcp_packet)
        fs = FIELDS["ipv4.checksum"]
        row[fs.start:fs.stop] = 1  # garbage checksum bits
        dec = decode_packet(row)
        from repro.net.checksum import verify_checksum
        wire = dec.to_bytes()
        assert verify_checksum(wire[:20])


class TestHelpers:
    def test_read_field(self, tcp_packet):
        row = encode_packet(tcp_packet)
        assert read_field(row, "tcp.dst_port") == 443
        assert read_field(row, "ipv4.ttl") == 64

    def test_region_occupancy(self, udp_packet):
        occ = region_occupancy(encode_packet(udp_packet))
        assert occ["udp"] == 1.0
        assert occ["tcp"] == 0.0
        assert 0 < occ["ipv4"] <= 1.0

    def test_infer_transport(self, tcp_packet, udp_packet, icmp_packet):
        assert infer_transport(encode_packet(tcp_packet)) == 6
        assert infer_transport(encode_packet(udp_packet)) == 17
        assert infer_transport(encode_packet(icmp_packet)) == 1

    def test_infer_transport_none_for_bare_ip(self):
        row = np.full(NPRINT_BITS, VACANT, dtype=np.int8)
        row[:160] = 0  # only the IPv4 fixed header
        assert infer_transport(row) is None

    def test_is_vacant_row(self, tcp_packet):
        assert is_vacant_row(np.full(NPRINT_BITS, VACANT, dtype=np.int8))
        assert not is_vacant_row(encode_packet(tcp_packet))


class TestDecodeFlow:
    def test_roundtrip_flow(self, sample_flow):
        m = encode_flow(sample_flow, max_packets=8)
        result = decode_flow(m, label="sample")
        assert isinstance(result, Flow)
        assert len(result) == 5
        assert result.label == "sample"

    def test_gaps_applied(self, sample_flow):
        m = encode_flow(sample_flow, max_packets=8)
        gaps = np.array([0, 1, 1, 1, 1, 0, 0, 0], dtype=float)
        result = decode_flow(m, gaps=gaps, start_time=100.0)
        ts = [p.timestamp for p in result.packets]
        assert ts[0] == 100.0
        assert ts[1] == pytest.approx(101.0)
        assert ts[4] == pytest.approx(104.0)

    def test_default_spacing(self, sample_flow):
        m = encode_flow(sample_flow, max_packets=8)
        result = decode_flow(m)
        gaps = result.interarrival_times()
        assert all(g == pytest.approx(0.001) for g in gaps)

    def test_padding_terminates(self, sample_flow):
        m = encode_flow(sample_flow, max_packets=8)
        # A stray packet row after padding must not be decoded.
        m[7] = m[0]
        result = decode_flow(m)
        assert len(result) == 5

    def test_wrong_shape_raises(self):
        with pytest.raises(ValueError):
            decode_flow(np.zeros((4, 10), dtype=np.int8))

    def test_strict_propagates(self, sample_flow):
        m = encode_flow(sample_flow, max_packets=8)
        fs = FIELDS["ipv4.version"]
        m[2, fs.start:fs.stop] = np.array([0, 0, 0, 1], dtype=np.int8)
        with pytest.raises(NprintDecodeError):
            decode_flow(m, strict=True)
        lenient = decode_flow(m)
        assert len(lenient) == 5


def _set_field(row: np.ndarray, name: str, value: int) -> None:
    fs = FIELDS[name]
    row[fs.start:fs.stop] = [(value >> (fs.width - 1 - b)) & 1
                             for b in range(fs.width)]


class TestDecodeBatch:
    def _matrix(self, tcp_packet, udp_packet):
        """One flow of four packet rows and a padding row."""
        clean = encode_packet(tcp_packet)
        rewritten = encode_packet(tcp_packet)
        _set_field(rewritten, "ipv4.proto", 17)  # TCP region populated
        bare = np.full(NPRINT_BITS, VACANT, dtype=np.int8)
        bare[:160] = encode_packet(tcp_packet)[:160]
        _set_field(bare, "ipv4.proto", 99)  # no transport region at all
        short = encode_packet(udp_packet)
        _set_field(short, "ipv4.total_length", 10)  # shorter than headers
        padding = np.full(NPRINT_BITS, VACANT, dtype=np.int8)
        return np.stack([clean, rewritten, bare, short, padding])[None]

    def test_validity_counters(self, tcp_packet, udp_packet):
        names = ("packets", "fallback_proto", "proto_rewritten",
                 "payload_clamped")
        before = {n: perf.counter(f"nprint.decode.{n}") for n in names}
        decode_batch(self._matrix(tcp_packet, udp_packet))
        delta = {n: perf.counter(f"nprint.decode.{n}") - before[n]
                 for n in names}
        # bare: no vote, falls back to TCP; rewritten: 17 -> 6; bare: 99 -> 6
        assert delta == {"packets": 4, "fallback_proto": 1,
                         "proto_rewritten": 2, "payload_clamped": 1}

    def test_records_match_packets(self, tcp_packet, udp_packet):
        matrix = self._matrix(tcp_packet, udp_packet)
        batch = decode_batch(matrix, gaps=np.full((1, 5), 0.25),
                             start_time=3.0)
        rows = matrix[0, :4]
        assert isinstance(batch, FlowBatch)
        assert batch.counts.tolist() == [4]
        assert batch.records == [decode_packet(r).to_bytes() for r in rows]
        assert batch.stamps.tolist() == [3.0, 3.25, 3.5, 3.75]
        flow = batch[0]
        assert [p.ip.proto for p in flow.packets] == [6, 6, 6, 17]
        assert flow.packets[2] == decode_packet(rows[2], timestamp=3.5)
        assert render_flows(batch) == (batch.records, batch.stamps)

    def test_packets_built_on_first_access(self, sample_flow):
        batch = decode_batch(encode_flow(sample_flow, max_packets=8)[None])
        packets = batch[0].packets
        assert len(packets) == 5
        assert packets._packets is None  # len() decodes nothing
        assert batch[0] is batch[0]
        assert [p.transport.seq for p in packets] == \
            [p.transport.seq for p in sample_flow.packets]
        assert packets._rows is None  # decoded: the batch rows are let go
        assert len(packets) == 5

    def test_to_flows_equals_lazy_flows(self, sample_flow):
        m = encode_flow(sample_flow, max_packets=8)
        batch = decode_batch(np.stack([m, m[::-1], m]),
                             gaps=np.full((3, 8), 0.5), label="x")
        flows = batch.to_flows()
        assert [type(f.packets) for f in flows] == [list] * 3
        assert [f.label for f in flows] == ["x"] * 3
        assert [f.packets for f in flows] == [list(f.packets) for f in batch]

    def test_without_matrices_keeps_flows(self, sample_flow):
        m = encode_flow(sample_flow, max_packets=8)
        batch = decode_batch(np.stack([m, m]))
        slim = batch.without_matrices()
        assert slim.matrices is None and slim[1:].matrices is None
        assert slim.records == batch.records
        assert list(slim[1].packets) == list(batch[1].packets)

    def test_decode_flow_of_a_batch_is_decode_batch(self, sample_flow):
        m = encode_flow(sample_flow, max_packets=8)
        batch = decode_flow(np.stack([m, m]), gaps=np.full((2, 8), 0.5))
        assert isinstance(batch, FlowBatch)
        one = decode_flow(m, gaps=np.full(8, 0.5))
        assert batch.records == 2 * [p.to_bytes() for p in one.packets]
        with pytest.raises(ValueError):
            decode_flow(np.stack([m, m]), strict=True)

    def test_slice_is_view(self, sample_flow):
        m = encode_flow(sample_flow, max_packets=8)
        batch = decode_batch(np.stack([m, m[::-1], m]))
        part = batch[1:]
        assert isinstance(part, FlowBatch)
        assert np.shares_memory(part.matrices, batch.matrices)
        assert np.shares_memory(part.rows, batch.rows)
        assert part.counts.tolist() == [0, 5]  # reversed: padding first
        assert part.records == batch.records[5:]
        assert len(part[0]) == 0 and len(part[1]) == 5

    def test_udp_checksum_folding_to_zero_is_ffff(self):
        pkt = build_packet(0x0A000001, 0x0A000002,
                           UDPHeader(src_port=1000, dst_port=0),
                           payload=b"\x00" * 4)
        wire = pkt.to_bytes()
        # The checksum with port 0 as the port makes the sum fold to zero.
        pkt.transport.dst_port = int.from_bytes(wire[26:28], "big")
        record = decode_batch(encode_packet(pkt)[None, None]).records[0]
        assert record[26:28] == b"\xff\xff"
        assert record == pkt.to_bytes()
