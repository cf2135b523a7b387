"""libpcap file format reader/writer (pure ``struct``, no dependencies).

Synthetic traces come out of the diffusion pipeline as :class:`Packet`
objects; this module writes them as standard ``.pcap`` files (and reads them
back) so they can be inspected with Wireshark/tcpdump — the "expanded scope
of downstream tasks" the paper argues fine-grained traces enable.

We use ``LINKTYPE_RAW`` (101): each record is a bare IPv4 datagram, which is
exactly what the nprint representation covers.  ``LINKTYPE_ETHERNET`` (1)
input is also accepted on read, with the 14-byte Ethernet header stripped
when the ethertype is IPv4.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np

from repro import perf
from repro.net.packet import Packet, parse_packet

PCAP_MAGIC = 0xA1B2C3D4
PCAP_MAGIC_SWAPPED = 0xD4C3B2A1
PCAP_MAGIC_NANO = 0xA1B23C4D
LINKTYPE_ETHERNET = 1
LINKTYPE_RAW = 101
ETHERTYPE_IPV4 = 0x0800

_GLOBAL_HEADER = struct.Struct("IHHiIII")
_RECORD_HEADER = struct.Struct("IIII")


class PcapError(ValueError):
    """Raised on malformed pcap input."""


def parse_record(payload: bytes, timestamp: float) -> Packet:
    """Parse one captured IPv4 datagram; a malformed one raises PcapError."""
    try:
        return parse_packet(payload, timestamp)
    except ValueError as exc:
        raise PcapError(f"malformed packet record: {exc}") from exc


class PcapWriter:
    """Streaming pcap writer.

    >>> with PcapWriter(open(path, "wb")) as w:    # doctest: +SKIP
    ...     w.write_packet(pkt)
    """

    def __init__(self, fileobj: BinaryIO, linktype: int = LINKTYPE_RAW,
                 snaplen: int = 65535):
        self._f = fileobj
        self.linktype = linktype
        self.snaplen = snaplen
        self._f.write(
            _GLOBAL_HEADER.pack(PCAP_MAGIC, 2, 4, 0, 0, snaplen, linktype)
        )

    def write_packet(self, pkt: Packet) -> None:
        self.write_raw(pkt.to_bytes(), pkt.timestamp)

    def write_raw(self, data: bytes, timestamp: float = 0.0) -> None:
        if timestamp < 0:
            raise PcapError("pcap timestamps cannot be negative")
        sec = int(timestamp)
        usec = int(round((timestamp - sec) * 1_000_000))
        if usec == 1_000_000:  # rounding carried into the next second
            sec, usec = sec + 1, 0
        captured = data[: self.snaplen]
        self._f.write(_RECORD_HEADER.pack(sec, usec, len(captured), len(data)))
        self._f.write(captured)

    def write_many(
        self,
        datas: Sequence[bytes],
        timestamps: np.ndarray,
    ) -> int:
        """Append many pre-rendered packets in one buffered write.

        ``datas`` are wire bytes and ``timestamps`` seconds as a float
        array of the same length, as :func:`repro.net.packet.render_flows`
        returns them (a decoded batch's ``records`` and ``stamps``).  All record headers for the
        chunk are packed into one preallocated ``(n, 4)`` uint32 buffer
        (vectorised second/microsecond split with the same round-half-even
        and carry semantics as :meth:`write_raw`), then interleaved with
        the payload bytes in a single ``join`` — one ``write`` call per
        chunk instead of two per packet.  Output bytes are identical to a
        :meth:`write_raw` loop (pinned by the test suite).

        Returns the number of records written.
        """
        ts = np.asarray(timestamps, dtype=np.float64)
        n = len(datas)
        if ts.shape != (n,):
            raise PcapError(
                f"got {n} packets but {ts.shape} timestamps"
            )
        if n == 0:
            return 0
        if float(ts.min()) < 0:
            raise PcapError("pcap timestamps cannot be negative")
        sec = ts.astype(np.int64)  # truncation == int(t) for t >= 0
        # np.rint rounds half to even, matching round() in write_raw.
        usec = np.rint((ts - sec) * 1_000_000).astype(np.int64)
        carry = usec == 1_000_000  # rounding carried into the next second
        if carry.any():
            sec[carry] += 1
            usec[carry] = 0
        lens = np.fromiter(
            (len(d) for d in datas), dtype=np.int64, count=n
        )
        if int(sec.max()) >= 1 << 32 or int(lens.max()) >= 1 << 32:
            raise PcapError("record field exceeds 32 bits")
        headers = np.empty((n, 4), dtype=np.uint32)
        headers[:, 0] = sec
        headers[:, 1] = usec
        headers[:, 2] = np.minimum(lens, self.snaplen)
        headers[:, 3] = lens
        header_bytes = headers.tobytes()  # native order, as _RECORD_HEADER
        snaplen = self.snaplen
        parts: list[bytes] = []
        for i, data in enumerate(datas):
            parts.append(header_bytes[i * 16 : i * 16 + 16])
            parts.append(data if len(data) <= snaplen else data[:snaplen])
        payload = b"".join(parts)
        self._f.write(payload)
        perf.incr("pcap.packets_written", n)
        perf.incr("pcap.bytes_written", len(payload))
        return n

    def close(self) -> None:
        self._f.close()

    def __enter__(self) -> "PcapWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class PcapReader:
    """Streaming pcap reader yielding :class:`Packet` objects."""

    def __init__(self, fileobj: BinaryIO):
        self._f = fileobj
        header = self._f.read(_GLOBAL_HEADER.size)
        if len(header) < _GLOBAL_HEADER.size:
            raise PcapError("truncated pcap global header")
        magic = struct.unpack("<I", header[:4])[0]
        if magic == PCAP_MAGIC:
            self._endian = "<"
            self._ts_divisor = 1_000_000
        elif magic == PCAP_MAGIC_SWAPPED:
            self._endian = ">"
            self._ts_divisor = 1_000_000
        elif magic == PCAP_MAGIC_NANO:
            self._endian = "<"
            self._ts_divisor = 1_000_000_000
        else:
            raise PcapError(f"bad pcap magic: {magic:#x}")
        fields = struct.unpack(self._endian + "IHHiIII", header)
        self.version = (fields[1], fields[2])
        self.snaplen = fields[5]
        self.linktype = fields[6]

    def __iter__(self) -> Iterator[Packet]:
        record = struct.Struct(self._endian + "IIII")
        while True:
            head = self._f.read(record.size)
            if not head:
                return
            if len(head) < record.size:
                raise PcapError("truncated pcap record header")
            sec, frac, caplen, _origlen = record.unpack(head)
            data = self._f.read(caplen)
            if len(data) < caplen:
                raise PcapError("truncated pcap record body")
            timestamp = sec + frac / self._ts_divisor
            payload = self._strip_link_layer(data)
            if payload is None:
                continue  # non-IPv4 frame; the paper's pipeline skips these
            yield parse_record(payload, timestamp)

    def _strip_link_layer(self, data: bytes) -> bytes | None:
        if self.linktype == LINKTYPE_RAW:
            return data
        if self.linktype == LINKTYPE_ETHERNET:
            if len(data) < 14:
                return None
            ethertype = struct.unpack(">H", data[12:14])[0]
            if ethertype != ETHERTYPE_IPV4:
                return None
            return data[14:]
        raise PcapError(f"unsupported linktype {self.linktype}")

    def close(self) -> None:
        self._f.close()

    def __enter__(self) -> "PcapReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def write_pcap(path: str | Path, packets: Iterable[Packet]) -> int:
    """Write ``packets`` to ``path``; returns the number written."""
    count = 0
    with PcapWriter(open(path, "wb")) as writer:
        for pkt in packets:
            writer.write_packet(pkt)
            count += 1
    return count


def read_pcap(path: str | Path) -> list[Packet]:
    """Read every IPv4 packet in the file at ``path``."""
    with PcapReader(open(path, "rb")) as reader:
        return list(reader)
