"""pcapng (PCAP Next Generation) reader.

Modern capture tools default to pcapng, so a trace library that only
speaks classic pcap cannot ingest half the captures in the wild.  This
implements the subset every real file uses:

* Section Header Block (SHB, 0x0A0D0D0A) with endianness detection,
* Interface Description Block (IDB, 0x00000001) including the
  ``if_tsresol`` option (timestamp resolution),
* Enhanced Packet Block (EPB, 0x00000006),
* Simple Packet Block (SPB, 0x00000003) — it carries no timestamp, so
  its packets get t=0.

Unknown block types are skipped, as the spec requires.  Like the classic
pcap module, LINKTYPE_RAW and LINKTYPE_ETHERNET (IPv4) are supported.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import BinaryIO, Iterator

from repro.net.packet import Packet
from repro.net.pcap import (
    LINKTYPE_ETHERNET,
    LINKTYPE_RAW,
    PcapError,
    PcapReader,
    parse_record,
)

SHB_TYPE = 0x0A0D0D0A
IDB_TYPE = 0x00000001
SPB_TYPE = 0x00000003
EPB_TYPE = 0x00000006
BYTE_ORDER_MAGIC = 0x1A2B3C4D

_ETHERTYPE_IPV4 = 0x0800


class PcapngError(PcapError):
    """Raised on malformed pcapng input."""


class PcapngReader:
    """Iterate IPv4 packets out of a pcapng file."""

    def __init__(self, fileobj: BinaryIO):
        self._f = fileobj
        self._endian = "<"
        self._interfaces: list[tuple[int, float]] = []  # (linktype, resol)
        self._read_section_header()

    def _read_exact(self, n: int) -> bytes:
        data = self._f.read(n)
        if len(data) < n:
            raise PcapngError("truncated pcapng block")
        return data

    def _read_section_header(self) -> None:
        head = self._read_exact(8)
        block_type = struct.unpack("<I", head[:4])[0]
        if block_type != SHB_TYPE:
            raise PcapngError("file does not start with a Section Header")
        magic_probe = self._f.read(4)
        if len(magic_probe) < 4:
            raise PcapngError("truncated SHB")
        magic_le = struct.unpack("<I", magic_probe)[0]
        if magic_le == BYTE_ORDER_MAGIC:
            self._endian = "<"
        elif struct.unpack(">I", magic_probe)[0] == BYTE_ORDER_MAGIC:
            self._endian = ">"
        else:
            raise PcapngError(f"bad byte-order magic {magic_le:#x}")
        total_length = struct.unpack(self._endian + "I", head[4:8])[0]
        if total_length < 28 or total_length % 4:
            raise PcapngError(f"bad SHB length {total_length}")
        # Skip the rest of the SHB (version, section length, options,
        # trailing length).
        self._read_exact(total_length - 12)

    def _iter_blocks(self) -> Iterator[tuple[int, bytes]]:
        while True:
            head = self._f.read(8)
            if len(head) < 8:
                return
            block_type, total_length = struct.unpack(
                self._endian + "II", head)
            if total_length < 12 or total_length % 4:
                raise PcapngError(f"bad block length {total_length}")
            body = self._read_exact(total_length - 12)
            trailer = struct.unpack(self._endian + "I",
                                    self._read_exact(4))[0]
            if trailer != total_length:
                raise PcapngError("block trailer length mismatch")
            yield block_type, body

    def _parse_idb(self, body: bytes) -> None:
        if len(body) < 8:
            raise PcapngError("short IDB")
        linktype, _reserved, _snaplen = struct.unpack(
            self._endian + "HHI", body[:8])
        resolution = 1e-6  # pcapng default
        pos = 8
        while pos + 4 <= len(body):
            code, length = struct.unpack(
                self._endian + "HH", body[pos:pos + 4])
            pos += 4
            value = body[pos:pos + length]
            pos += length + -length % 4
            if code == 0:
                break
            if code == 9 and length >= 1:  # if_tsresol
                raw = value[0]
                if raw & 0x80:
                    resolution = 2.0 ** -(raw & 0x7F)
                else:
                    resolution = 10.0 ** -raw
        self._interfaces.append((linktype, resolution))

    def _strip_link(self, data: bytes, linktype: int) -> bytes | None:
        if linktype == LINKTYPE_RAW:
            return data
        if linktype == LINKTYPE_ETHERNET:
            if len(data) < 14:
                return None
            ethertype = struct.unpack(">H", data[12:14])[0]
            if ethertype != _ETHERTYPE_IPV4:
                return None
            return data[14:]
        raise PcapngError(f"unsupported linktype {linktype}")

    def __iter__(self) -> Iterator[Packet]:
        for block_type, body in self._iter_blocks():
            if block_type == IDB_TYPE:
                self._parse_idb(body)
            elif block_type == EPB_TYPE:
                yield from self._decode_epb(body)
            elif block_type == SPB_TYPE:
                yield from self._decode_spb(body)
            # other block types (name resolution, statistics, ...) skipped

    def _decode_epb(self, body: bytes) -> Iterator[Packet]:
        if len(body) < 20:
            raise PcapngError("short EPB")
        iface, ts_high, ts_low, caplen, _origlen = struct.unpack(
            self._endian + "IIIII", body[:20])
        if iface >= len(self._interfaces):
            raise PcapngError(f"EPB references unknown interface {iface}")
        data = body[20:20 + caplen]
        if len(data) < caplen:
            raise PcapngError("EPB data truncated")
        linktype, resolution = self._interfaces[iface]
        payload = self._strip_link(data, linktype)
        if payload is None:
            return
        timestamp = ((ts_high << 32) | ts_low) * resolution
        yield parse_record(payload, timestamp)

    def _decode_spb(self, body: bytes) -> Iterator[Packet]:
        if not self._interfaces:
            raise PcapngError("SPB before any interface description")
        if len(body) < 4:
            raise PcapngError("short SPB")
        origlen = struct.unpack(self._endian + "I", body[:4])[0]
        linktype, _resolution = self._interfaces[0]
        data = body[4:4 + origlen]
        payload = self._strip_link(data, linktype)
        if payload is None:
            return
        yield parse_record(payload, 0.0)


def read_capture(path: str | Path) -> list[Packet]:
    """Read every IPv4 packet from a pcap or pcapng file.

    The format is sniffed from the magic bytes.  Malformed input of either
    format raises :class:`~repro.net.pcap.PcapError`.
    """
    with open(path, "rb") as f:
        magic = f.read(4)
        f.seek(0)
        # The SHB type reads the same in either byte order.
        if magic == struct.pack("<I", SHB_TYPE):
            return list(PcapngReader(f))
        return list(PcapReader(f))
