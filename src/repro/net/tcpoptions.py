"""TCP option parsing (RFC 793 §3.1 option format).

The session builders emit real option bytes (MSS, window scale, SACK-
permitted, timestamps); this module is the inverse — structured access to
those options for analysis, fingerprinting and tests.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass


class TCPOptionKind(enum.IntEnum):
    """Option kinds used in this library (and overwhelmingly in the wild)."""

    EOL = 0
    NOP = 1
    MSS = 2
    WINDOW_SCALE = 3
    SACK_PERMITTED = 4
    SACK = 5
    TIMESTAMPS = 8


@dataclass(frozen=True)
class TCPOption:
    """One parsed option: kind plus raw payload bytes (without kind/len)."""

    kind: int
    data: bytes = b""

    @property
    def mss(self) -> int:
        if self.kind != TCPOptionKind.MSS or len(self.data) != 2:
            raise ValueError("not a well-formed MSS option")
        return struct.unpack(">H", self.data)[0]

    @property
    def window_scale(self) -> int:
        if self.kind != TCPOptionKind.WINDOW_SCALE or len(self.data) != 1:
            raise ValueError("not a well-formed window-scale option")
        return self.data[0]

    @property
    def timestamps(self) -> tuple[int, int]:
        if self.kind != TCPOptionKind.TIMESTAMPS or len(self.data) != 8:
            raise ValueError("not a well-formed timestamps option")
        return struct.unpack(">II", self.data)


class TCPOptionError(ValueError):
    """Raised on malformed option bytes in strict mode."""


def parse_tcp_options(raw: bytes, strict: bool = False) -> list[TCPOption]:
    """Parse raw TCP option bytes into a list of :class:`TCPOption`.

    NOP padding is skipped; EOL terminates.  Malformed tails (length
    byte running past the buffer, zero length) raise in strict mode and
    end parsing otherwise — matching how tolerant stacks behave.
    """
    options: list[TCPOption] = []
    pos = 0
    while pos < len(raw):
        kind = raw[pos]
        if kind == TCPOptionKind.EOL:
            break
        if kind == TCPOptionKind.NOP:
            pos += 1
            continue
        if pos + 1 >= len(raw):
            if strict:
                raise TCPOptionError("option kind without length byte")
            break
        length = raw[pos + 1]
        if length < 2 or pos + length > len(raw):
            if strict:
                raise TCPOptionError(
                    f"option kind {kind} has bad length {length}")
            break
        options.append(TCPOption(kind=kind, data=bytes(raw[pos + 2:pos + length])))
        pos += length
    return options


def find_option(raw: bytes, kind: int) -> TCPOption | None:
    """First option of ``kind`` in ``raw``, or None."""
    for option in parse_tcp_options(raw):
        if option.kind == kind:
            return option
    return None

