"""Unit tests for the pcapng reader and the format-sniffing capture reader."""

import io
import struct

import pytest

from repro.cli import main
from repro.net.pcap import PcapWriter, write_pcap
from repro.net.pcapng import (
    BYTE_ORDER_MAGIC,
    EPB_TYPE,
    IDB_TYPE,
    SHB_TYPE,
    PcapngError,
    PcapngReader,
    read_capture,
)

#: LINKTYPE_RAW: records are bare IPv4 packets
RAW = 101


def block(block_type, body, endian="<"):
    """One pcapng block: type, total length, 4-aligned body, total length."""
    pad = -len(body) % 4
    total = 12 + len(body) + pad
    return (struct.pack(endian + "II", block_type, total) + body
            + b"\x00" * pad + struct.pack(endian + "I", total))


def section(endian="<", tsresol=None):
    """A Section Header plus one raw-IPv4 Interface Description.

    ``tsresol`` sets the interface's ``if_tsresol`` option; without it
    timestamps are microseconds (the pcapng default).
    """
    options = b""
    if tsresol is not None:
        options = (struct.pack(endian + "HHB3x", 9, 1, tsresol)
                   + struct.pack(endian + "HH", 0, 0))
    return (block(SHB_TYPE, struct.pack(endian + "IHHq", BYTE_ORDER_MAGIC,
                                        1, 0, -1), endian)
            + block(IDB_TYPE, struct.pack(endian + "HHI", RAW, 0, 65535)
                    + options, endian))


def epb(wire, ticks, interface=0, endian="<"):
    """An Enhanced Packet Block stamped ``ticks`` timestamp units."""
    head = struct.pack(endian + "IIIII", interface, ticks >> 32,
                       ticks & 0xFFFFFFFF, len(wire), len(wire))
    return block(EPB_TYPE, head + wire, endian)


def pcapng_bytes(packets):
    """A little-endian, microsecond-resolution pcapng file of ``packets``."""
    return section() + b"".join(
        epb(p.to_bytes(), round(p.timestamp * 1_000_000)) for p in packets)


def read(blob):
    return list(PcapngReader(io.BytesIO(blob)))


class TestRoundtrip:
    def test_mixed_packets(self, tcp_packet, udp_packet, icmp_packet,
                           tmp_path):
        path = tmp_path / "trace.pcapng"
        path.write_bytes(pcapng_bytes([tcp_packet, udp_packet, icmp_packet]))
        back = read_capture(path)
        assert [p.ip.proto for p in back] == [6, 17, 1]
        assert back[0].to_bytes() == tcp_packet.to_bytes()
        assert back[0].transport.seq == tcp_packet.transport.seq
        assert back[0].timestamp == pytest.approx(
            tcp_packet.timestamp, abs=1e-6)

    def test_large_timestamp(self, tcp_packet, tmp_path):
        tcp_packet.timestamp = 1_700_000_000.123456  # > 2^32 microseconds
        path = tmp_path / "big_ts.pcapng"
        path.write_bytes(pcapng_bytes([tcp_packet]))
        back = read_capture(path)
        assert back[0].timestamp == pytest.approx(1_700_000_000.123456,
                                                  abs=1e-5)

    def test_read_capture_sniffs_both(self, sample_flow, tmp_path):
        a = tmp_path / "x.pcap"
        b = tmp_path / "x.pcapng"
        write_pcap(a, sample_flow.packets)
        b.write_bytes(pcapng_bytes(sample_flow.packets))
        from_pcap = read_capture(a)
        from_pcapng = read_capture(b)
        assert len(from_pcap) == len(from_pcapng) == len(sample_flow)
        assert [p.to_bytes() for p in from_pcap] == \
            [p.to_bytes() for p in from_pcapng]


class TestReaderRobustness:
    def test_not_pcapng_rejected(self):
        with pytest.raises(PcapngError):
            PcapngReader(io.BytesIO(b"\x00" * 32))

    def test_bad_magic_rejected(self):
        blob = struct.pack("<II", SHB_TYPE, 28) + b"\xff\xff\xff\xff" \
            + b"\x00" * 16 + struct.pack("<I", 28)
        with pytest.raises(PcapngError):
            PcapngReader(io.BytesIO(blob))

    def test_truncated_block_rejected(self, tcp_packet):
        blob = pcapng_bytes([tcp_packet])[:-6]
        with pytest.raises(PcapngError):
            read(blob)

    def test_trailer_mismatch_rejected(self, tcp_packet):
        blob = bytearray(pcapng_bytes([tcp_packet]))
        blob[-1] ^= 0xFF  # corrupt the final trailing length
        with pytest.raises(PcapngError):
            read(bytes(blob))

    def test_unknown_blocks_skipped(self, tcp_packet):
        # Custom block (type 0x0BAD) between IDB and EPB.
        blob = (section() + block(0x0BAD, b"\x01\x02\x03\x04")
                + epb(tcp_packet.to_bytes(), 0))
        assert len(read(blob)) == 1

    def test_epb_unknown_interface_rejected(self):
        blob = section() + epb(b"\x45\x00\x00\x04", 0, interface=7)
        with pytest.raises(PcapngError):
            read(blob)

    def test_big_endian_section(self, tcp_packet):
        blob = (section(">")
                + epb(tcp_packet.to_bytes(), 1_500_000, endian=">"))
        pkts = read(blob)
        assert len(pkts) == 1
        assert pkts[0].timestamp == pytest.approx(1.5)

    def test_nanosecond_tsresol(self, tcp_packet):
        blob = (section(tsresol=9)
                + epb(tcp_packet.to_bytes(), 2_500_000_000))  # 2.5 s in ns
        assert read(blob)[0].timestamp == pytest.approx(2.5)


class TestCliCaptures:
    def test_stats_reads_pcapng(self, sample_flow, tmp_path, capsys):
        path = tmp_path / "capture.pcapng"
        path.write_bytes(pcapng_bytes(sample_flow.packets))
        assert main(["stats", "--in", str(path)]) == 0
        assert "packets: 5   flows: 1" in capsys.readouterr().out

    @pytest.mark.parametrize("suffix", ["pcap", "pcapng"])
    def test_truncated_capture_is_an_error(self, sample_flow, tmp_path,
                                           capsys, suffix):
        path = tmp_path / f"capture.{suffix}"
        if suffix == "pcap":
            write_pcap(path, sample_flow.packets)
        else:
            path.write_bytes(pcapng_bytes(sample_flow.packets))
        path.write_bytes(path.read_bytes()[:-6])
        assert main(["stats", "--in", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: truncated pcap")
        assert "Traceback" not in err

    @pytest.mark.parametrize("suffix", ["pcap", "pcapng"])
    def test_malformed_packet_record_is_an_error(self, tmp_path, capsys,
                                                 suffix):
        """A whole record that holds no valid IPv4 header."""
        record = b"\x45" + b"\x00" * 7
        path = tmp_path / f"capture.{suffix}"
        if suffix == "pcap":
            with open(path, "wb") as f:
                PcapWriter(f).write_raw(record, 1.0)
        else:
            path.write_bytes(section() + epb(record, 1_000_000))
        assert main(["stats", "--in", str(path)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: malformed packet record")
