"""Unit tests for the pcap back-transform (quantise / repair / decode)."""

import numpy as np
import pytest

from repro.core.controlnet import apply_structure_guidance, protocol_mask
from repro.core.postprocess import (
    channel_to_gaps,
    gaps_to_channel,
    matrix_to_flow,
    quantize_matrix,
    repair_guided,
    repair_matrix,
)
from repro.nprint.decoder import decode_packet, infer_transport
from repro.nprint.encoder import encode_flow, encode_packet
from repro.nprint.fields import NPRINT_BITS, REGION_SLICES, VACANT

from postprocess_oracle import repair_row_structure


class TestGapChannel:
    def test_roundtrip(self):
        gaps = np.array([0.0, 0.001, 0.02, 0.5, 3.0])
        back = channel_to_gaps(gaps_to_channel(gaps))
        assert np.allclose(back, gaps, rtol=1e-6)

    def test_negative_clamped(self):
        assert (gaps_to_channel(np.array([-1.0])) == 0).all()
        assert (channel_to_gaps(np.array([-5.0])) == 0).all()

    def test_bounded_range(self):
        # Sub-second to multi-second gaps stay in a small channel range.
        channel = gaps_to_channel(np.array([0.0001, 10.0]))
        assert channel.min() >= 0
        assert channel.max() < 3.0


class TestRepairRowStructure:
    def test_clean_tcp_row_preserved(self, tcp_packet):
        row = encode_packet(tcp_packet)
        repaired = repair_row_structure(row)
        dec = decode_packet(repaired)
        assert dec.transport.src_port == tcp_packet.transport.src_port
        assert dec.transport.seq == tcp_packet.transport.seq

    def test_two_populated_regions_resolved(self, tcp_packet, udp_packet):
        tcp_row = encode_packet(tcp_packet)
        udp_row = encode_packet(udp_packet)
        hybrid = tcp_row.copy()
        udp = REGION_SLICES["udp"]
        # Copy a *partial* UDP region so TCP stays the occupancy winner.
        hybrid[udp.start:udp.start + 16] = udp_row[udp.start:udp.start + 16]
        repaired = repair_row_structure(hybrid)
        assert infer_transport(repaired) == 6
        assert (repaired[udp.start:udp.stop] == VACANT).all()

    def test_vacant_bits_in_fixed_header_filled(self, tcp_packet):
        row = encode_packet(tcp_packet)
        row[10] = VACANT  # poke a hole in the IPv4 fixed header
        repaired = repair_row_structure(row)
        assert repaired[10] in (0, 1)

    def test_partial_option_word_dropped(self, tcp_packet):
        row = encode_packet(tcp_packet)
        from repro.nprint.fields import FIELDS
        fs = FIELDS["tcp.options"]
        # Corrupt most of the first option word to vacant.
        row[fs.start:fs.start + 20] = VACANT
        repaired = repair_row_structure(row)
        # The word is < 50% present -> entire option tail vacated.
        assert (repaired[fs.start:fs.stop] == VACANT).all()


class TestRepairMatrix:
    def test_flow_roundtrip(self, sample_flow):
        m = encode_flow(sample_flow, max_packets=8)
        repaired = repair_matrix(m)
        assert (repaired[:5] != VACANT).any(axis=1).all()
        assert (repaired[5:] == VACANT).all()

    def test_noisy_padding_terminated(self, sample_flow):
        m = encode_flow(sample_flow, max_packets=8)
        # Sprinkle noise into a padding row far from the IPv4 fixed span.
        m[6, 600:620] = 1
        repaired = repair_matrix(m)
        assert (repaired[6] == VACANT).all()

    def test_no_resurrection_after_gap(self, sample_flow):
        m = encode_flow(sample_flow, max_packets=8)
        m[6] = m[0]  # stray packet after padding row 5
        repaired = repair_matrix(m)
        assert (repaired[6] == VACANT).all()

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            repair_matrix(np.zeros((4, 7), dtype=np.int8))


class TestMatrixToFlow:
    def test_clean_roundtrip(self, sample_flow):
        cont = encode_flow(sample_flow, max_packets=8).astype(np.float64)
        result = matrix_to_flow(cont, label="x")
        assert len(result) == 5
        assert result.label == "x"
        # Every decoded packet serialises.
        for p in result.packets:
            assert len(p.to_bytes()) >= 28

    def test_noisy_matrix_still_decodes(self, sample_flow, rng):
        cont = encode_flow(sample_flow, max_packets=8).astype(np.float64)
        noisy = cont + rng.normal(0, 0.15, size=cont.shape)
        result = matrix_to_flow(noisy)
        assert len(result) >= 4

    def test_gaps_channel_applied(self, sample_flow):
        cont = encode_flow(sample_flow, max_packets=8).astype(np.float64)
        gaps = np.array([0.0, 0.5, 0.5, 0.5, 0.5, 0, 0, 0])
        result = matrix_to_flow(cont, gaps_channel=gaps_to_channel(gaps))
        iats = result.interarrival_times()
        assert all(g == pytest.approx(0.5, rel=1e-3) for g in iats)

    def test_gaps_given_directly(self, sample_flow):
        cont = encode_flow(sample_flow, max_packets=8).astype(np.float64)
        gaps = np.array([0.0, 0.5, 0.25, 0.5, 0.5, 0, 0, 0])
        channel = gaps_to_channel(gaps)
        via_channel = matrix_to_flow(cont, gaps_channel=channel)
        direct = matrix_to_flow(cont, gaps=channel_to_gaps(channel))
        assert direct.packets == via_channel.packets
        with pytest.raises(ValueError, match="not both"):
            matrix_to_flow(cont, gaps_channel=channel, gaps=gaps)

    def test_mask_guides_first(self, sample_flow):
        cont = encode_flow(sample_flow, max_packets=8).astype(np.float64)
        mask = protocol_mask("udp")
        guided = matrix_to_flow(cont, mask=mask)
        chain = matrix_to_flow(apply_structure_guidance(cont, mask))
        assert guided.packets == chain.packets
        assert len(guided) == 5
        assert all(p.proto == 17 for p in guided.packets)

    def test_repair_guided_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            repair_guided(np.zeros((4, 7)), np.zeros(7))
        with pytest.raises(ValueError):
            repair_guided(np.zeros((4, NPRINT_BITS)), np.zeros(7))

    def test_quantize_matrix_ternary(self, rng):
        cont = rng.normal(size=(4, NPRINT_BITS))
        out = quantize_matrix(cont)
        assert set(np.unique(out)) <= {-1, 0, 1}
