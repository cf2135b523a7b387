"""RFC 1071 Internet checksum.

Used by the IPv4, TCP, UDP and ICMP header builders and by the nprint
decoder's packet-repair pass (synthetic bit matrices rarely carry a valid
checksum, so the decoder recomputes it before emitting pcap bytes).  The
16-bit word sum is vectorised with ``np.frombuffer`` instead of a
per-2-byte Python loop; :func:`internet_checksum_rows` checksums a whole
batch of headers, one per row, for the decoder's array pass.
"""

from __future__ import annotations

import numpy as np


def _ones_complement_sum(data: bytes) -> int:
    """The folded 16-bit one's-complement sum of ``data``.

    Odd-length input is padded with a zero byte on the right, per
    RFC 1071.  The bytes are viewed as big-endian 16-bit words and summed
    in one vectorised pass; a ``uint64`` accumulator cannot overflow for
    any input that fits in memory.
    """
    if len(data) % 2:
        data = data + b"\x00"
    if not data:
        return 0
    total = int(np.frombuffer(data, dtype=">u2").sum(dtype=np.uint64))
    # Fold the wide sum into 16 bits; two folds suffice for any input
    # length that fits in memory, but loop for clarity and safety.
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return total


def internet_checksum_rows(
    data: np.ndarray, extra: np.ndarray | int = 0
) -> np.ndarray:
    """Row-wise :func:`internet_checksum` over a ``(n, 2k)`` uint8 array.

    Each row is read as ``k`` big-endian 16-bit words; ``extra`` adds
    pre-summed words per row (e.g. a pseudo-header).  The wide sums are
    folded with end-around carry until every row fits in 16 bits, so row
    ``i`` equals ``internet_checksum`` of the same words.  Zero bytes past
    a header's end contribute nothing, so ragged headers can share one
    zero-padded array.
    """
    words = np.ascontiguousarray(data, dtype=np.uint8).view(">u2")
    total = words.sum(axis=1, dtype=np.int64) + extra
    while (total >> 16).any():
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def internet_checksum(data: bytes) -> int:
    """Compute the 16-bit one's-complement checksum over ``data``.

    Odd-length input is padded with a zero byte on the right, per RFC 1071.
    The return value is the final complemented sum, ready to be written into
    a header checksum field.

    >>> hex(internet_checksum(b"\\x00\\x01\\xf2\\x03\\xf4\\xf5\\xf6\\xf7"))
    '0x220d'
    """
    return ~_ones_complement_sum(data) & 0xFFFF


def verify_checksum(data: bytes) -> bool:
    """Return True when ``data`` (checksum field included) sums to zero."""
    return _ones_complement_sum(data) == 0xFFFF


def pseudo_header(src_ip: int, dst_ip: int, proto: int, length: int) -> bytes:
    """Build the IPv4 pseudo-header used in TCP/UDP checksum computation."""
    return bytes(
        (
            (src_ip >> 24) & 0xFF,
            (src_ip >> 16) & 0xFF,
            (src_ip >> 8) & 0xFF,
            src_ip & 0xFF,
            (dst_ip >> 24) & 0xFF,
            (dst_ip >> 16) & 0xFF,
            (dst_ip >> 8) & 0xFF,
            dst_ip & 0xFF,
            0,
            proto & 0xFF,
            (length >> 8) & 0xFF,
            length & 0xFF,
        )
    )
