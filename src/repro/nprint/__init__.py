"""nprint bit-level packet representation (1088 features per packet).

The representation the paper fine-tunes its diffusion model on: every packet
is a row of 1088 ternary values covering the maximal IPv4/TCP/UDP/ICMP
headers, with −1 marking vacant bits.  See :mod:`repro.nprint.fields` for
the exact layout and :mod:`repro.nprint.decoder` for the repair pass that
turns (possibly noisy) synthetic rows back into wire-valid packets.
"""

from repro.nprint.fields import (
    FIELDS,
    ICMP_BITS,
    ICMP_OFFSET,
    IPV4_BITS,
    IPV4_OFFSET,
    NPRINT_BITS,
    REGION_SLICES,
    TCP_BITS,
    TCP_OFFSET,
    UDP_BITS,
    UDP_OFFSET,
    VACANT,
    FieldSlice,
    bit_feature_names,
    field_names,
)
from repro.nprint.encoder import (
    DEFAULT_MAX_PACKETS,
    encode_flow,
    encode_flows,
    encode_packet,
    encode_packets,
    interarrival_channel,
    interarrival_channels,
)
from repro.nprint.textio import (
    NprintTextError,
    read_nprint_csv,
    write_nprint_csv,
)
from repro.nprint.decoder import (
    FlowBatch,
    NprintDecodeError,
    decode_batch,
    decode_flow,
    decode_packet,
    infer_transport,
    is_vacant_row,
    read_field,
    region_occupancy,
)

__all__ = [
    "NPRINT_BITS",
    "IPV4_BITS",
    "TCP_BITS",
    "UDP_BITS",
    "ICMP_BITS",
    "IPV4_OFFSET",
    "TCP_OFFSET",
    "UDP_OFFSET",
    "ICMP_OFFSET",
    "VACANT",
    "FIELDS",
    "REGION_SLICES",
    "FieldSlice",
    "field_names",
    "bit_feature_names",
    "DEFAULT_MAX_PACKETS",
    "encode_packet",
    "encode_packets",
    "encode_flow",
    "encode_flows",
    "interarrival_channel",
    "interarrival_channels",
    "decode_packet",
    "decode_flow",
    "decode_batch",
    "FlowBatch",
    "NprintDecodeError",
    "read_field",
    "region_occupancy",
    "infer_transport",
    "is_vacant_row",
    "write_nprint_csv",
    "read_nprint_csv",
    "NprintTextError",
]
