"""Unit tests for the ternary colormap and PNG codec."""

import numpy as np
import pytest

from repro.imaging.colormap import (
    COLOR_ONE,
    COLOR_VACANT,
    COLOR_ZERO,
    continuous_to_ternary,
    rgb_to_ternary,
    ternary_to_rgb,
)
from repro.imaging.png import PngError, read_png, write_png


class TestColormap:
    def test_exact_colors(self):
        m = np.array([[1, 0, -1]], dtype=np.int8)
        img = ternary_to_rgb(m)
        assert (img[0, 0] == COLOR_ONE).all()
        assert (img[0, 1] == COLOR_ZERO).all()
        assert (img[0, 2] == COLOR_VACANT).all()

    def test_rejects_non_ternary(self):
        with pytest.raises(ValueError):
            ternary_to_rgb(np.array([[2]]))

    def test_rgb_roundtrip(self):
        m = np.random.default_rng(0).choice([-1, 0, 1], size=(16, 32))
        assert (rgb_to_ternary(ternary_to_rgb(m)) == m).all()

    def test_rgb_quantizes_noisy_colors(self):
        m = np.array([[1, 0, -1]], dtype=np.int8)
        img = ternary_to_rgb(m).astype(np.float64)
        rng = np.random.default_rng(1)
        noisy = img + rng.normal(0, 20, size=img.shape)
        assert (rgb_to_ternary(noisy) == m).all()

    def test_rgb_shape_validation(self):
        with pytest.raises(ValueError):
            rgb_to_ternary(np.zeros((4, 4)))

    def test_continuous_quantization_levels(self):
        cont = np.array([[0.9, 0.51, 0.49, 0.1, -0.2, -0.51, -1.4]])
        out = continuous_to_ternary(cont)
        assert out.tolist() == [[1, 1, 0, 0, 0, -1, -1]]

    def test_continuous_roundtrip_exact_values(self):
        m = np.random.default_rng(2).choice([-1, 0, 1], size=(8, 8))
        assert (continuous_to_ternary(m.astype(np.float64)) == m).all()

    def test_custom_vacant_threshold(self):
        cont = np.array([[-0.4]])
        assert continuous_to_ternary(cont, vacant_threshold=0.3)[0, 0] == -1
        assert continuous_to_ternary(cont, vacant_threshold=0.5)[0, 0] == 0


class TestPng:
    def test_rgb_roundtrip(self, tmp_path):
        img = np.random.default_rng(0).integers(
            0, 256, size=(20, 30, 3)).astype(np.uint8)
        path = tmp_path / "rgb.png"
        write_png(path, img)
        assert (read_png(path) == img).all()

    def test_greyscale_roundtrip(self, tmp_path):
        img = np.arange(64, dtype=np.uint8).reshape(8, 8)
        path = tmp_path / "grey.png"
        write_png(path, img)
        assert (read_png(path) == img).all()

    def test_signature_written(self, tmp_path):
        path = tmp_path / "sig.png"
        write_png(path, np.zeros((2, 2), dtype=np.uint8))
        assert path.read_bytes().startswith(b"\x89PNG\r\n\x1a\n")

    def test_wrong_dtype_rejected(self, tmp_path):
        with pytest.raises(PngError):
            write_png(tmp_path / "x.png", np.zeros((2, 2), dtype=np.float64))

    def test_bad_shape_rejected(self, tmp_path):
        with pytest.raises(PngError):
            write_png(tmp_path / "x.png",
                      np.zeros((2, 2, 4), dtype=np.uint8))

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(PngError):
            write_png(tmp_path / "x.png", np.zeros((0, 5), dtype=np.uint8))

    def test_not_png_rejected(self, tmp_path):
        path = tmp_path / "bogus.png"
        path.write_bytes(b"definitely not a png")
        with pytest.raises(PngError):
            read_png(path)

    def test_crc_corruption_detected(self, tmp_path):
        path = tmp_path / "c.png"
        write_png(path, np.zeros((4, 4), dtype=np.uint8))
        blob = bytearray(path.read_bytes())
        blob[40] ^= 0xFF  # flip a byte inside a chunk
        path.write_bytes(bytes(blob))
        with pytest.raises(PngError):
            read_png(path)

    def test_flow_image_roundtrip(self, sample_flow, tmp_path):
        from repro.nprint.encoder import encode_flow
        m = encode_flow(sample_flow, max_packets=8)
        img = ternary_to_rgb(m)
        path = tmp_path / "flow.png"
        write_png(path, img)
        assert (rgb_to_ternary(read_png(path)) == m).all()

    def test_unfilter_sub_and_up(self, tmp_path):
        # Exercise the unfilter paths by writing a file with explicit
        # Sub/Up filtered scanlines.
        import struct
        import zlib
        from repro.imaging.png import _chunk, _PNG_SIGNATURE

        img = np.array([[10, 20, 30], [15, 25, 35]], dtype=np.uint8)
        ihdr = struct.pack(">IIBBBBB", 3, 2, 8, 0, 0, 0, 0)
        line0 = bytes([1]) + bytes([10, 10, 10])  # Sub filter
        line1 = bytes([2]) + bytes([5, 5, 5])  # Up filter
        raw = zlib.compress(line0 + line1)
        path = tmp_path / "filters.png"
        with open(path, "wb") as f:
            f.write(_PNG_SIGNATURE)
            f.write(_chunk(b"IHDR", ihdr))
            f.write(_chunk(b"IDAT", raw))
            f.write(_chunk(b"IEND", b""))
        assert (read_png(path) == img).all()
