"""Unit tests for TCP option parsing + doctest sweep."""

import doctest
import struct

import pytest

from repro.net.tcpoptions import (
    TCPOption,
    TCPOptionError,
    TCPOptionKind,
    find_option,
    parse_tcp_options,
)


def _mss(mss):
    return struct.pack(">BBH", TCPOptionKind.MSS, 4, mss)


def _window_scale(shift):
    return struct.pack(">BBB", TCPOptionKind.WINDOW_SCALE, 3, shift)


def _timestamps(tsval, tsecr):
    return struct.pack(">BBII", TCPOptionKind.TIMESTAMPS, 10, tsval, tsecr)


class TestParse:
    def test_parse_composite(self):
        raw = _mss(1412) + b"\x01" + _window_scale(7) \
            + b"\x01\x01" + _timestamps(42, 0)
        options = parse_tcp_options(raw)
        kinds = [o.kind for o in options]
        assert kinds == [TCPOptionKind.MSS, TCPOptionKind.WINDOW_SCALE,
                         TCPOptionKind.TIMESTAMPS]
        assert options[0].mss == 1412
        assert options[1].window_scale == 7
        assert options[2].timestamps == (42, 0)

    def test_eol_terminates(self):
        raw = _mss(100) + b"\x00" + _mss(999)
        options = parse_tcp_options(raw)
        assert len(options) == 1
        assert options[0].mss == 100

    def test_nop_skipped(self):
        options = parse_tcp_options(b"\x01\x01\x01")
        assert options == []

    def test_malformed_lenient(self):
        # Length byte runs past the buffer: lenient mode stops quietly.
        raw = _mss(5) + b"\x08\x0a\x00"
        options = parse_tcp_options(raw)
        assert len(options) == 1

    def test_malformed_strict_raises(self):
        with pytest.raises(TCPOptionError):
            parse_tcp_options(b"\x08\x0a\x00", strict=True)
        with pytest.raises(TCPOptionError):
            parse_tcp_options(b"\x02", strict=True)
        with pytest.raises(TCPOptionError):
            parse_tcp_options(b"\x02\x01", strict=True)  # length < 2

    def test_find_option(self):
        raw = b"\x01" + _mss(536)
        found = find_option(raw, TCPOptionKind.MSS)
        assert found is not None and found.mss == 536
        assert find_option(raw, TCPOptionKind.SACK) is None

    def test_accessor_validation(self):
        opt = TCPOption(kind=int(TCPOptionKind.MSS), data=b"\x01")
        with pytest.raises(ValueError):
            opt.mss
        with pytest.raises(ValueError):
            TCPOption(kind=1).window_scale
        with pytest.raises(ValueError):
            TCPOption(kind=1).timestamps

    def test_generated_syn_options_parse(self):
        """The session builder's SYN options are well-formed."""
        from repro.traffic.dataset import generate_app_flows

        flow = generate_app_flows("netflix", 1, seed=151)[0]
        syn = flow.packets[0].transport
        options = parse_tcp_options(syn.options, strict=True)
        kinds = {o.kind for o in options}
        assert TCPOptionKind.MSS in kinds
        mss = find_option(syn.options, TCPOptionKind.MSS)
        assert mss.mss == 1460  # netflix profile


class TestDoctests:
    @pytest.mark.parametrize("module_name", [
        "repro.net.checksum",
        "repro.net.ipaddr",
    ])
    def test_module_doctests(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        results = doctest.testmod(module)
        assert results.failed == 0
        assert results.attempted > 0
