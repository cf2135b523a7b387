"""Unit tests for the nprint bit layout."""

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
)


class TestLayoutConstants:
    def test_region_widths_match_paper(self):
        # Fig. 2 axis: TCP(480) UDP(64) ICMP(64) IPv4(480).
        assert IPV4_BITS == 480
        assert TCP_BITS == 480
        assert UDP_BITS == 64
        assert ICMP_BITS == 64

    def test_total_width_is_1088(self):
        assert NPRINT_BITS == 1088

    def test_regions_contiguous_and_disjoint(self):
        assert IPV4_OFFSET == 0
        assert TCP_OFFSET == IPV4_OFFSET + IPV4_BITS
        assert UDP_OFFSET == TCP_OFFSET + TCP_BITS
        assert ICMP_OFFSET == UDP_OFFSET + UDP_BITS
        assert ICMP_OFFSET + ICMP_BITS == NPRINT_BITS


class TestFieldSlices:
    def test_fields_within_their_region(self):
        for name, fs in FIELDS.items():
            region = name.split(".")[0]
            rs = REGION_SLICES[region]
            assert rs.start <= fs.start < fs.stop <= rs.stop, name

    def test_fields_cover_regions_without_overlap(self):
        # Within each region, named fields tile the space exactly once.
        for region, rs in REGION_SLICES.items():
            covered = [False] * (rs.stop - rs.start)
            for name, fs in FIELDS.items():
                if not name.startswith(region + "."):
                    continue
                for bit in fs:
                    idx = bit - rs.start
                    assert not covered[idx], f"overlap at {name} bit {bit}"
                    covered[idx] = True
            assert all(covered), f"gap in region {region}"

    def test_known_field_positions(self):
        assert FIELDS["ipv4.version"].start == 0
        assert FIELDS["ipv4.ttl"].start == 64
        assert FIELDS["ipv4.proto"].start == 72
        assert FIELDS["tcp.src_port"].start == TCP_OFFSET
        assert FIELDS["tcp.flags"].width == 8
        assert FIELDS["udp.length"].start == UDP_OFFSET + 32
        assert FIELDS["icmp.type"].start == ICMP_OFFSET

    def test_field_iteration(self):
        fs = FIELDS["ipv4.version"]
        assert list(fs) == [0, 1, 2, 3]
