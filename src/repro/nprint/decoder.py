"""nprint ternary matrices -> valid packets (the pcap back-transform).

Decoding a row that came straight from :func:`repro.nprint.encoder.encode_packet`
is lossless.  Decoding a row produced by a generative model is not: bits may
disagree with each other (a checksum that does not verify, an IHL that does
not match the option bits, a protocol field that contradicts which transport
region is populated).  The decoder therefore runs a *repair pass* — the
paper's "back-transformed into nprint and finally into pcap format" step —
that resolves every inconsistency in favour of structural validity:

1. the active transport is chosen by region occupancy (vote of non-vacant
   bits), cross-checked against the IPv4 protocol field;
2. IPv4 version/IHL/total-length are recomputed from the actual structure;
3. all checksums are recomputed.

:func:`decode_batch` runs that pass over every row of a batch of flows as
array operations and emits each packet's wire bytes directly (a
:class:`FlowBatch`).  Those wire records are the decoded packets: a
:class:`Packet` object is parsed from its record only when a caller reads
a flow's packets.  :func:`decode_packet` is the one-row reference, and
the strict decoder: with ``strict=True`` the repair pass is disabled and
any inconsistency raises :class:`NprintDecodeError` instead.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro import perf
from repro.net.checksum import internet_checksum_rows
from repro.net.flow import Flow
from repro.net.headers import (
    ICMPHeader,
    IPProto,
    IPv4Header,
    TCPHeader,
    UDPHeader,
)
from repro.net.packet import Packet, parse_packet
from repro.nprint.fields import (
    FIELDS,
    NPRINT_BITS,
    REGION_SLICES,
    VACANT,
    FieldSlice,
)


class NprintDecodeError(ValueError):
    """Raised in strict mode when a row cannot be decoded consistently."""


def _read_field(row: np.ndarray, fs: FieldSlice, vacant_as_zero: bool = True) -> int:
    """Read the unsigned integer value of a named field slice."""
    value = 0
    for bit in row[fs.start : fs.stop]:
        b = int(bit)
        if b == VACANT:
            if not vacant_as_zero:
                raise NprintDecodeError(f"vacant bit inside field {fs.name}")
            b = 0
        value = (value << 1) | (b & 1)
    return value


def read_field(row: np.ndarray, name: str) -> int:
    """Public accessor: read field ``name`` (see ``fields.FIELDS``) from a row."""
    return _read_field(row, FIELDS[name])


def region_occupancy(row: np.ndarray) -> dict[str, float]:
    """Fraction of non-vacant bits in each of the four header regions."""
    result = {}
    for name, fs in REGION_SLICES.items():
        region = row[fs.start : fs.stop]
        result[name] = float(np.mean(region != VACANT))
    return result


def is_vacant_row(row: np.ndarray) -> bool:
    """True when the row encodes no packet at all (flow padding)."""
    return bool(np.all(row == VACANT))


def infer_transport(row: np.ndarray) -> int | None:
    """Decide which transport the row carries, by region occupancy vote.

    Returns an :class:`IPProto` value or None when no transport region has
    meaningful occupancy (e.g. a bare IP fragment).
    """
    occ = region_occupancy(row)
    candidates = {
        int(IPProto.TCP): occ["tcp"],
        int(IPProto.UDP): occ["udp"],
        int(IPProto.ICMP): occ["icmp"],
    }
    proto, score = max(candidates.items(), key=lambda kv: kv[1])
    if score < 0.25:
        return None
    return proto


def _bits_to_bytes(row: np.ndarray, start: int, nbytes: int) -> bytes:
    bits = np.where(row[start : start + nbytes * 8] == 1, 1, 0).astype(np.uint8)
    return np.packbits(bits).tobytes()


def _option_length(row: np.ndarray, fs: FieldSlice) -> int:
    """Number of option bytes actually present (non-vacant), word aligned."""
    region = row[fs.start : fs.stop]
    present = int(np.sum(region != VACANT))
    nbytes = present // 8
    return (nbytes // 4) * 4


def decode_packet(
    row: np.ndarray,
    timestamp: float = 0.0,
    strict: bool = False,
) -> Packet:
    """Decode one nprint row into a valid :class:`Packet`.

    The returned packet always serialises to wire-valid bytes; field values
    that survive the repair pass are exactly the bits in the row.
    """
    if row.shape != (NPRINT_BITS,):
        raise ValueError(f"expected a ({NPRINT_BITS},) row, got {row.shape}")
    if is_vacant_row(row):
        raise NprintDecodeError("cannot decode an all-vacant row")

    proto = infer_transport(row)
    declared_proto = _read_field(row, FIELDS["ipv4.proto"])
    if strict and proto is not None and declared_proto != proto:
        raise NprintDecodeError(
            f"ipv4.proto={declared_proto} contradicts populated region "
            f"(expected {proto})"
        )
    if proto is None:
        proto = declared_proto if declared_proto in (1, 6, 17) else int(IPProto.TCP)

    transport, transport_len = _decode_transport(row, proto, strict)

    ip = IPv4Header(
        version=4,
        dscp=_read_field(row, FIELDS["ipv4.dscp"]),
        ecn=_read_field(row, FIELDS["ipv4.ecn"]),
        identification=_read_field(row, FIELDS["ipv4.identification"]),
        flags=_read_field(row, FIELDS["ipv4.flags"]),
        fragment_offset=_read_field(row, FIELDS["ipv4.fragment_offset"]),
        ttl=_read_field(row, FIELDS["ipv4.ttl"]),
        proto=proto,
        src_ip=_read_field(row, FIELDS["ipv4.src_ip"]),
        dst_ip=_read_field(row, FIELDS["ipv4.dst_ip"]),
        options=_decode_options(row, FIELDS["ipv4.options"]),
    )
    if strict:
        declared_version = _read_field(row, FIELDS["ipv4.version"])
        if declared_version != 4:
            raise NprintDecodeError(f"ipv4.version={declared_version} != 4")

    # Reconstruct payload length from the declared total length; the nprint
    # representation does not carry payload content, so the decoder emits
    # zero bytes of the right length ("repair" semantics).
    declared_total = _read_field(row, FIELDS["ipv4.total_length"])
    header_len = ip.header_length + transport_len
    payload_len = max(0, declared_total - header_len)
    payload_len = min(payload_len, 65535 - header_len)
    payload = b"\x00" * payload_len

    return Packet(ip=ip, transport=transport, payload=payload, timestamp=timestamp)


def _decode_options(row: np.ndarray, fs: FieldSlice) -> bytes:
    nbytes = _option_length(row, fs)
    if nbytes == 0:
        return b""
    return _bits_to_bytes(row, fs.start, nbytes)


def _decode_transport(row: np.ndarray, proto: int, strict: bool):
    """Decode the transport header for ``proto``; returns (header, length)."""
    if proto == IPProto.TCP:
        tcp = TCPHeader(
            src_port=_read_field(row, FIELDS["tcp.src_port"]),
            dst_port=_read_field(row, FIELDS["tcp.dst_port"]),
            seq=_read_field(row, FIELDS["tcp.seq"]),
            ack=_read_field(row, FIELDS["tcp.ack"]),
            reserved=0,
            flags=_read_field(row, FIELDS["tcp.flags"]),
            window=_read_field(row, FIELDS["tcp.window"]),
            urgent_pointer=_read_field(row, FIELDS["tcp.urgent_pointer"]),
            options=_decode_options(row, FIELDS["tcp.options"]),
        )
        if strict:
            declared_offset = _read_field(row, FIELDS["tcp.data_offset"])
            if declared_offset != tcp.data_offset:
                raise NprintDecodeError(
                    f"tcp.data_offset={declared_offset} inconsistent with "
                    f"options ({tcp.data_offset})"
                )
        return tcp, tcp.header_length
    if proto == IPProto.UDP:
        udp = UDPHeader(
            src_port=_read_field(row, FIELDS["udp.src_port"]),
            dst_port=_read_field(row, FIELDS["udp.dst_port"]),
        )
        return udp, 8
    if proto == IPProto.ICMP:
        icmp = ICMPHeader(
            icmp_type=_read_field(row, FIELDS["icmp.type"]),
            code=_read_field(row, FIELDS["icmp.code"]),
            rest=_read_field(row, FIELDS["icmp.rest"]),
        )
        return icmp, 8
    return None, 0


# Transport regions in the same order as infer_transport's candidate
# dict, so occupancy ties resolve identically (first maximum wins).
_TRANSPORT_REGIONS = (
    (int(IPProto.TCP), REGION_SLICES["tcp"]),
    (int(IPProto.UDP), REGION_SLICES["udp"]),
    (int(IPProto.ICMP), REGION_SLICES["icmp"]),
)


# Byte boundaries of every span the decoder counts present bits over:
# the transport regions and both option spans, all byte-aligned.
_COUNT_BYTES = sorted(
    {0, NPRINT_BITS // 8}
    | {b // 8 for _, fs in _TRANSPORT_REGIONS for b in (fs.start, fs.stop)}
    | {b // 8 for name in ("ipv4.options", "tcp.options")
       for b in (FIELDS[name].start, FIELDS[name].stop)}
)
_COUNT_COLUMN = {b: i for i, b in enumerate(_COUNT_BYTES)}


def _presence_counts(rows: np.ndarray) -> np.ndarray:
    """Running count of present (non-vacant) bits per row at every
    :data:`_COUNT_BYTES` boundary, ``(n, len(_COUNT_BYTES))``.

    One ``np.packbits`` of the presence bits, a popcount per byte and
    one segment sum; a span's count is the difference of two columns
    (:func:`_span_counts`).
    """
    packed = np.packbits(rows != VACANT, axis=1)
    segments = np.add.reduceat(np.bitwise_count(packed), _COUNT_BYTES[:-1],
                               axis=1, dtype=np.int64)
    cum = np.zeros((len(rows), len(_COUNT_BYTES)), dtype=np.int64)
    np.cumsum(segments, axis=1, out=cum[:, 1:])
    return cum


def _span_counts(cum: np.ndarray, fs: FieldSlice) -> np.ndarray:
    """Per-row present-bit count of the span ``fs``."""
    return (cum[:, _COUNT_COLUMN[fs.stop // 8]]
            - cum[:, _COUNT_COLUMN[fs.start // 8]])


def _transport_protocols(
    cum: np.ndarray, declared: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row :func:`infer_transport` with :func:`decode_packet`'s
    fallback: ``(emitted protocols, rows with no vote)``.

    ``cum`` is :func:`_presence_counts` of the rows; ``count / width``
    is the same float64 as the mean of the span's presence bits.  Rows
    where no transport region is >= 25% occupied keep a declared
    ``ipv4.proto`` of 1, 6 or 17 and become TCP otherwise.
    """
    occ = np.stack([
        _span_counts(cum, fs) / fs.width for _, fs in _TRANSPORT_REGIONS
    ])
    voted = np.array([p for p, _ in _TRANSPORT_REGIONS])[occ.argmax(axis=0)]
    no_vote = occ.max(axis=0) < 0.25
    fallback = np.where(
        np.isin(declared, (1, 6, 17)), declared, int(IPProto.TCP)
    )
    return np.where(no_vote, fallback, voted), no_vote


def _option_lengths(cum: np.ndarray, fs: FieldSlice) -> np.ndarray:
    """Per-row :func:`_option_length` (word-aligned present byte count)."""
    return (_span_counts(cum, fs) // 8 // 4) * 4


def _region_bytes(name: str) -> slice:
    """Byte columns of header region ``name`` in a packed row."""
    fs = REGION_SLICES[name]
    return slice(fs.start // 8, fs.stop // 8)


def _wire_records(rows: np.ndarray) -> list[bytes]:
    """Wire bytes of every row: ``decode_packet(row).to_bytes()`` in bulk.

    One ``np.packbits`` yields every header byte the rows carry, and a
    second one the presence counts (:func:`_presence_counts`).  The
    transport vote, option lengths and payload clamp run over all rows at
    once; lengths, protocol and checksums are then patched column-wise,
    and the ragged IPv4 + transport headers are scattered into one
    zero-filled buffer (the payloads are zero bytes) that is cut into
    records.  Counts decoder repairs in ``nprint.decode.*``.
    """
    n = len(rows)
    cum = _presence_counts(rows)
    packed = np.packbits(rows == 1, axis=1)

    declared = packed[:, 9].astype(np.int64)
    protos, no_vote = _transport_protocols(cum, declared)
    tcp = protos == IPProto.TCP
    udp = protos == IPProto.UDP
    icmp = protos == IPProto.ICMP

    ip_len = 20 + _option_lengths(cum, FIELDS["ipv4.options"])
    tr_len = np.where(
        tcp, 20 + _option_lengths(cum, FIELDS["tcp.options"]), 8
    )
    header_len = ip_len + tr_len
    declared_total = (packed[:, 2].astype(np.int64) << 8) | packed[:, 3]
    # The declared total length sets the payload length, clamped so the
    # datagram holds its headers (a 16-bit length never exceeds 65535).
    payload = declared_total - header_len
    clamped = payload < 0
    payload = np.maximum(payload, 0)
    total = header_len + payload

    perf.incr("nprint.decode.packets", n)
    perf.incr("nprint.decode.fallback_proto", int(no_vote.sum()))
    perf.incr("nprint.decode.proto_rewritten", int((declared != protos).sum()))
    perf.incr("nprint.decode.payload_clamped", int(clamped.sum()))

    cols = np.arange(60)
    ip = packed[:, _region_bytes("ipv4")].copy()
    ip_mask = cols < ip_len[:, None]
    ip[~ip_mask] = 0
    ip[:, 0] = 0x40 | (ip_len >> 2)  # version 4, IHL
    ip[:, 2] = total >> 8
    ip[:, 3] = total & 0xFF
    ip[:, 9] = protos
    ip[:, 10:12] = 0
    csum = internet_checksum_rows(ip)
    ip[:, 10] = csum >> 8
    ip[:, 11] = csum & 0xFF

    tr = np.zeros((n, 60), dtype=np.uint8)
    tr[tcp] = packed[tcp, _region_bytes("tcp")]
    tr[udp, :8] = packed[udp, _region_bytes("udp")]
    tr[icmp, :8] = packed[icmp, _region_bytes("icmp")]
    tr_mask = cols < tr_len[:, None]
    tr[~tr_mask] = 0
    tr[tcp, 12] = (tr_len[tcp] >> 2) << 4  # data offset, reserved 0
    tr[tcp, 16:18] = 0
    udp_len = 8 + payload[udp]
    tr[udp, 4] = udp_len >> 8
    tr[udp, 5] = udp_len & 0xFF
    tr[udp, 6:8] = 0
    tr[icmp, 2:4] = 0
    # TCP/UDP pseudo-header: addresses, protocol, segment length.
    pseudo = (
        ip.view(">u2")[:, 6:10].sum(axis=1, dtype=np.int64)
        + protos + tr_len + payload
    )
    csum = internet_checksum_rows(tr, np.where(icmp, 0, pseudo))
    csum[udp & (csum == 0)] = 0xFFFF  # RFC 768: zero means "no checksum"
    at = np.where(tcp, 16, np.where(udp, 6, 2))
    tr[np.arange(n), at] = csum >> 8
    tr[np.arange(n), at + 1] = csum & 0xFF

    ends = np.cumsum(total)
    starts = ends - total
    wire = np.zeros(int(ends[-1]) if n else 0, dtype=np.uint8)
    wire[(starts[:, None] + cols)[ip_mask]] = ip[ip_mask]
    wire[(starts[:, None] + ip_len[:, None] + cols)[tr_mask]] = tr[tr_mask]
    data = wire.tobytes()
    return [data[s:e] for s, e in zip(starts.tolist(), ends.tolist())]


def _clocks(
    gaps: np.ndarray | None, n: int, p: int, start_time: float
) -> np.ndarray:
    """``(n, p)`` row timestamps: ``clock += max(0, gap)`` from
    ``start_time``, 1 ms per row past the given gaps.

    ``np.cumsum`` adds sequentially, so each clock equals the running
    float sum a per-packet loop would compute.
    """
    steps = np.full((n, p), 0.001)
    if gaps is not None:
        gaps = np.asarray(gaps, dtype=np.float64).reshape(n, -1)[:, :p]
        steps[:, : gaps.shape[1]] = gaps
    steps = np.where(steps > 0.0, steps, 0.0)
    steps[:, 0] = start_time
    return np.cumsum(steps, axis=1)


def _parse_records(records: list[bytes], stamps: np.ndarray) -> list[Packet]:
    """The :class:`Packet` of every wire record, equal to what
    :func:`decode_packet` builds from the record's row.

    A decoded record carries every field the row does, so parsing it
    recovers the packet; only the derived ``ip.total_length`` and UDP
    ``length`` come back pinned, and are unpinned so a packet that state
    repair edits re-derives them when it is serialised.
    """
    packets = []
    for record, stamp in zip(records, stamps.tolist()):
        pkt = parse_packet(record, stamp)
        pkt.ip.total_length = None
        if isinstance(pkt.transport, UDPHeader):
            pkt.transport.length = None
        packets.append(pkt)
    return packets


class _LazyPackets(Sequence):
    """A decoded flow's packets, parsed from its wire records on first
    access; the records and stamps are released once the packets are
    built."""

    __slots__ = ("_records", "_stamps", "_count", "_packets")

    def __init__(self, records: list[bytes], stamps: np.ndarray):
        self._records = records
        self._stamps = stamps
        self._count = len(records)
        self._packets: list[Packet] | None = None

    def _decoded(self) -> list[Packet]:
        if self._packets is None:
            self._packets = _parse_records(self._records, self._stamps)
            self._records = self._stamps = None
        return self._packets

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index):
        return self._decoded()[index]

    def __iter__(self):
        return iter(self._decoded())

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, tuple, _LazyPackets)):
            return self._decoded() == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(self._decoded())


class FlowBatch(Sequence):
    """An immutable batch of decoded flows, held as arrays.

    ``counts`` holds the packets per flow; ``stamps`` and ``records``
    hold every packet's timestamp and wire bytes in flow-major order.
    They are what :meth:`repro.net.pcap.PcapWriter.write_many` takes, and
    what :func:`repro.net.packet.render_flows` returns for a batch.
    ``matrices`` is the ``(n, P, 1088)`` input the batch was decoded
    from, or None once :meth:`without_matrices` dropped it.

    Indexing yields :class:`Flow` objects (cached per batch) whose
    ``packets`` are parsed from the flow's records on first access, so a
    caller that only writes pcap or counts packets never builds a
    :class:`Packet`.  :meth:`to_flows` returns plain flows with every
    packet built.  A contiguous slice is a ``FlowBatch`` view of the
    same arrays.
    """

    def __init__(self, counts, stamps, records, label: str = "",
                 matrices=None):
        self.counts = counts
        self.stamps = stamps
        self.records = records
        self.label = label
        self.matrices = matrices
        self._offsets = np.concatenate([[0], np.cumsum(counts)]).astype(int)
        self._flows: list[Flow | None] = [None] * len(counts)

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step != 1:
                return [self[i] for i in range(start, stop, step)]
            stop = max(start, stop)
            lo, hi = self._offsets[start], self._offsets[stop]
            return FlowBatch(
                self.counts[start:stop], self.stamps[lo:hi],
                self.records[lo:hi], self.label,
                None if self.matrices is None else self.matrices[start:stop],
            )
        i = range(len(self))[index]
        flow = self._flows[i]
        if flow is None:
            lo, hi = self._offsets[i], self._offsets[i + 1]
            packets = _LazyPackets(self.records[lo:hi], self.stamps[lo:hi])
            flow = self._flows[i] = Flow(packets=packets, label=self.label)
        return flow

    def without_matrices(self) -> "FlowBatch":
        """The same flows without the ``(n, P, 1088)`` input matrices."""
        return FlowBatch(self.counts, self.stamps, self.records, self.label)

    def to_flows(self) -> list[Flow]:
        """Plain :class:`Flow` objects, every packet built now; they hold
        no reference to the batch."""
        packets = _parse_records(self.records, self.stamps)
        return [
            Flow(packets=packets[lo:hi], label=self.label)
            for lo, hi in zip(self._offsets[:-1], self._offsets[1:])
        ]

    def __repr__(self) -> str:
        return (f"FlowBatch({len(self)} flows, {len(self.records)} packets, "
                f"label={self.label!r})")


def decode_batch(
    matrices: np.ndarray,
    gaps: np.ndarray | None = None,
    label: str = "",
    start_time: float = 0.0,
) -> FlowBatch:
    """Decode ``(n, P, 1088)`` ternary matrices into a :class:`FlowBatch`.

    Flow for flow the non-strict :func:`decode_flow`: a flow ends at its
    first all-vacant row, ``gaps`` (``(n, P)`` inter-arrival seconds, or
    None for 1 ms spacing) set the timestamps from ``start_time``, and
    every packet's wire bytes equal ``decode_packet(row).to_bytes()``.
    """
    matrices = np.asarray(matrices)
    if matrices.ndim != 3 or matrices.shape[2] != NPRINT_BITS:
        raise ValueError(
            f"expected (n, P, {NPRINT_BITS}) matrices, got {matrices.shape}"
        )
    n, p, _ = matrices.shape
    vacant = (matrices == VACANT).all(axis=2)
    counts = np.where(vacant.any(axis=1), vacant.argmax(axis=1), p)
    live = np.arange(p) < counts[:, None]
    stamps = _clocks(gaps, n, p, start_time)[live]
    return FlowBatch(counts, stamps, _wire_records(matrices[live]), label,
                     matrices)


def decode_flow(
    matrix: np.ndarray,
    gaps: np.ndarray | None = None,
    label: str = "",
    start_time: float = 0.0,
    strict: bool = False,
) -> Flow | FlowBatch:
    """Decode a ``(P, 1088)`` ternary matrix back into a :class:`Flow`.

    ``gaps`` optionally supplies inter-arrival seconds per row (see
    :func:`repro.nprint.encoder.interarrival_channel`); without it packets
    are spaced 1 ms apart.  All-vacant rows terminate the flow (padding).
    Non-strict decoding never raises (vacant bits read as zero) and is
    :func:`decode_batch`: a ``(n, P, 1088)`` batch with ``(n, P)`` gaps
    returns its :class:`FlowBatch`, one matrix the flow of a one-flow
    batch.  ``strict=True`` takes one matrix, decodes it row by
    row with :func:`decode_packet` and raises on the first inconsistent
    row.
    """
    if matrix.ndim == 3 and not strict:
        return decode_batch(matrix, gaps, label, start_time)
    if matrix.ndim != 2 or matrix.shape[1] != NPRINT_BITS:
        raise ValueError(f"expected (P, {NPRINT_BITS}) matrix, got {matrix.shape}")
    if gaps is not None:
        gaps = np.asarray(gaps)[None]
    if not strict:
        return decode_batch(matrix[None], gaps, label, start_time)[0]
    flow = Flow(label=label)
    vacant = (matrix == VACANT).all(axis=1)
    count = int(np.argmax(vacant)) if vacant.any() else matrix.shape[0]
    clocks = _clocks(gaps, 1, matrix.shape[0], start_time)[0]
    for i in range(count):
        flow.packets.append(
            decode_packet(matrix[i], timestamp=float(clocks[i]), strict=True)
        )
    return flow
