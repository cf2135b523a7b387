"""Unit tests for nprint CSV interoperability."""

import numpy as np
import pytest

from repro.nprint.encoder import encode_flow
from repro.nprint.fields import NPRINT_BITS
from repro.nprint.textio import (
    NprintTextError,
    read_nprint_csv,
    write_nprint_csv,
)


class TestWrite:
    def test_roundtrip(self, sample_flow, tmp_path):
        matrix = encode_flow(sample_flow, max_packets=8)
        path = tmp_path / "flow.npt"
        n = write_nprint_csv(path, matrix)
        assert n == 5  # padding rows omitted
        back = read_nprint_csv(path, max_packets=8)
        assert (back == matrix).all()

    def test_roundtrip_without_padding(self, sample_flow, tmp_path):
        matrix = encode_flow(sample_flow, max_packets=8)
        path = tmp_path / "flow.npt"
        write_nprint_csv(path, matrix)
        back = read_nprint_csv(path)
        assert back.shape == (5, NPRINT_BITS)
        assert (back == matrix[:5]).all()

    def test_no_header_mode(self, sample_flow, tmp_path):
        matrix = encode_flow(sample_flow, max_packets=4)
        path = tmp_path / "nh.npt"
        write_nprint_csv(path, matrix, include_header=False)
        back = read_nprint_csv(path)
        assert (back == matrix[:4]).all()

    def test_header_line_names(self, sample_flow, tmp_path):
        matrix = encode_flow(sample_flow, max_packets=2)
        path = tmp_path / "h.npt"
        write_nprint_csv(path, matrix)
        header = path.read_text().splitlines()[0]
        assert header.startswith("ipv4.version_bit0,")
        assert len(header.split(",")) == NPRINT_BITS

    def test_rejects_bad_shape(self, tmp_path):
        with pytest.raises(NprintTextError):
            write_nprint_csv(tmp_path / "x", np.zeros((2, 7), dtype=np.int8))

    def test_rejects_non_ternary(self, tmp_path):
        m = np.zeros((1, NPRINT_BITS), dtype=np.int8)
        m[0, 0] = 5
        with pytest.raises(NprintTextError):
            write_nprint_csv(tmp_path / "x", m)


class TestRead:
    def test_truncates_to_max_packets(self, sample_flow, tmp_path):
        matrix = encode_flow(sample_flow, max_packets=8)
        path = tmp_path / "t.npt"
        write_nprint_csv(path, matrix)
        back = read_nprint_csv(path, max_packets=3)
        assert back.shape == (3, NPRINT_BITS)
        assert (back == matrix[:3]).all()

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.npt"
        path.write_text("")
        with pytest.raises(NprintTextError):
            read_nprint_csv(path)

    def test_header_only_rejected(self, tmp_path):
        from repro.nprint.fields import bit_feature_names
        path = tmp_path / "ho.npt"
        path.write_text(",".join(bit_feature_names()) + "\n")
        with pytest.raises(NprintTextError):
            read_nprint_csv(path)

    def test_wrong_column_count_rejected(self, tmp_path):
        path = tmp_path / "wc.npt"
        path.write_text("1,0,-1\n")
        with pytest.raises(NprintTextError):
            read_nprint_csv(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "bv.npt"
        path.write_text(",".join(["0"] * (NPRINT_BITS - 1) + ["7"]) + "\n")
        with pytest.raises(NprintTextError):
            read_nprint_csv(path)

    def test_decodable_after_roundtrip(self, sample_flow, tmp_path):
        from repro.nprint.decoder import decode_flow
        matrix = encode_flow(sample_flow, max_packets=8)
        path = tmp_path / "d.npt"
        write_nprint_csv(path, matrix)
        back = read_nprint_csv(path, max_packets=8)
        decoded = decode_flow(back)
        assert len(decoded) == 5
