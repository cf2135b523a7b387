"""IPv4 address formatting (host-order integer -> dotted quad).

The whole library carries addresses as host-byte-order integers (that is
what the header structs and the nprint bit layout want); this helper
exists for the human-facing edges — CLI output, logs, examples.
"""

from __future__ import annotations


def ip_to_str(address: int) -> str:
    """Format a host-order integer as dotted quad.

    >>> ip_to_str(0x0A000001)
    '10.0.0.1'
    """
    if not 0 <= address <= 0xFFFFFFFF:
        raise ValueError(f"address {address} out of IPv4 range")
    return ".".join(
        str((address >> shift) & 0xFF) for shift in (24, 16, 8, 0)
    )

