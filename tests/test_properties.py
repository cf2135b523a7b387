"""Property-based tests (hypothesis) on core invariants.

Each property pins an invariant the rest of the system leans on:
wire-format round trips, nprint losslessness, checksum validity, codec
linear-inverse behaviour, gap-transform invertibility, quantiser totality,
the array-native finalize path's byte identity with its per-row oracle
(``tests/postprocess_oracle.py``) and of the mask-compiled pass with the
guidance -> quantise -> repair chain, and the autograd engine's agreement
with finite differences.
"""

import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from postprocess_oracle import (
    decode_rows,
    finalize_flow,
    protocol_mask,
    quantize,
)
from repro.core.autoencoder import LatentCodec
from repro.core.controlnet import apply_structure_guidance
from repro import perf
from repro.core.postprocess import (
    channel_to_gaps,
    gaps_to_channel,
    matrix_to_flow,
    quantize_matrix,
    repair_guided,
    repair_matrix,
)
from repro.core.schedule import NoiseSchedule
from repro.imaging.colormap import (
    continuous_to_ternary,
    rgb_to_ternary,
    ternary_to_rgb,
)
from repro.ml.nn.autograd import Tensor
from repro.net.checksum import internet_checksum, verify_checksum
from repro.net.flow import FlowKey
from repro.net.headers import ICMPHeader, IPv4Header, TCPHeader, UDPHeader
from repro.net.packet import build_packet, parse_packet, render_flows
from repro.net.pcap import PcapReader, PcapWriter
from repro.nprint.decoder import decode_batch, decode_packet
from repro.nprint.encoder import encode_packet
from repro.nprint.fields import FIELDS, NPRINT_BITS, REGION_SLICES, VACANT

DEFAULT_SETTINGS = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ip_addresses = st.integers(min_value=0, max_value=2**32 - 1)
ports = st.integers(min_value=0, max_value=2**16 - 1)
payloads = st.binary(min_size=0, max_size=200)


def option_bytes(max_words: int = 10):
    """TCP/IP option payloads: whole 32-bit words keep repair lossless."""
    return st.integers(min_value=0, max_value=max_words).flatmap(
        lambda n: st.binary(min_size=4 * n, max_size=4 * n)
    )


tcp_headers = st.builds(
    TCPHeader,
    src_port=ports,
    dst_port=ports,
    seq=st.integers(min_value=0, max_value=2**32 - 1),
    ack=st.integers(min_value=0, max_value=2**32 - 1),
    flags=st.integers(min_value=0, max_value=255),
    window=ports,
    urgent_pointer=ports,
    options=option_bytes(),
)

udp_headers = st.builds(UDPHeader, src_port=ports, dst_port=ports)

icmp_headers = st.builds(
    ICMPHeader,
    icmp_type=st.integers(min_value=0, max_value=255),
    code=st.integers(min_value=0, max_value=255),
    rest=st.integers(min_value=0, max_value=2**32 - 1),
)

transports = st.one_of(tcp_headers, udp_headers, icmp_headers)


class TestChecksumProperties:
    @given(data=st.binary(min_size=0, max_size=300))
    @DEFAULT_SETTINGS
    def test_checksummed_even_data_verifies(self, data):
        if len(data) % 2:
            data += b"\x00"
        csum = internet_checksum(data)
        assert verify_checksum(data + bytes([csum >> 8, csum & 0xFF]))

    @given(data=st.binary(min_size=0, max_size=300))
    @DEFAULT_SETTINGS
    def test_checksum_in_range(self, data):
        assert 0 <= internet_checksum(data) <= 0xFFFF


class TestWireRoundtripProperties:
    @given(src=ip_addresses, dst=ip_addresses, transport=transports,
           payload=payloads,
           ttl=st.integers(min_value=1, max_value=255))
    @DEFAULT_SETTINGS
    def test_packet_wire_roundtrip(self, src, dst, transport, payload, ttl):
        pkt = build_packet(src, dst, transport, payload=payload, ttl=ttl)
        back = parse_packet(pkt.to_bytes())
        assert back.ip.src_ip == src
        assert back.ip.dst_ip == dst
        assert back.ip.ttl == ttl
        assert back.payload == payload
        assert type(back.transport) is type(transport)

    @given(src=ip_addresses, dst=ip_addresses, transport=transports,
           payload=payloads,
           ts=st.floats(min_value=0, max_value=2**31,
                        allow_nan=False, allow_infinity=False))
    @DEFAULT_SETTINGS
    def test_pcap_roundtrip(self, src, dst, transport, payload, ts):
        pkt = build_packet(src, dst, transport, payload=payload,
                           timestamp=ts)
        buf = io.BytesIO()
        PcapWriter(buf).write_packet(pkt)
        buf.seek(0)
        back = list(PcapReader(buf))
        assert len(back) == 1
        assert back[0].ip.src_ip == src
        assert abs(back[0].timestamp - ts) <= 1e-6 * max(ts, 1)

    @given(transport=tcp_headers)
    @DEFAULT_SETTINGS
    def test_tcp_header_roundtrip(self, transport):
        back = TCPHeader.unpack(transport.pack(1, 2, b""))
        assert back.src_port == transport.src_port
        assert back.seq == transport.seq
        assert back.flags == transport.flags
        assert back.options == transport.options

    @given(header=st.builds(
        IPv4Header,
        src_ip=ip_addresses, dst_ip=ip_addresses,
        proto=st.integers(min_value=0, max_value=255),
        ttl=st.integers(min_value=0, max_value=255),
        identification=ports,
        dscp=st.integers(min_value=0, max_value=63),
        ecn=st.integers(min_value=0, max_value=3),
        options=option_bytes(),
    ))
    @DEFAULT_SETTINGS
    def test_ipv4_header_checksum_always_valid(self, header):
        packed = header.pack()
        assert verify_checksum(packed)


class TestNprintProperties:
    @given(src=ip_addresses, dst=ip_addresses, transport=transports,
           payload=payloads)
    @DEFAULT_SETTINGS
    def test_encode_decode_preserves_semantics(self, src, dst, transport,
                                               payload):
        pkt = build_packet(src, dst, transport, payload=payload)
        row = encode_packet(pkt)
        dec = decode_packet(row)
        assert dec.ip.src_ip == src
        assert dec.ip.dst_ip == dst
        assert dec.ip.proto == pkt.ip.proto
        assert len(dec.payload) == len(payload)
        if isinstance(transport, TCPHeader):
            assert dec.transport.seq == transport.seq
            assert dec.transport.flags == transport.flags
            assert dec.transport.options == transport.options

    @given(src=ip_addresses, dst=ip_addresses, transport=transports,
           payload=payloads)
    @DEFAULT_SETTINGS
    def test_encoded_row_is_ternary(self, src, dst, transport, payload):
        row = encode_packet(build_packet(src, dst, transport,
                                         payload=payload))
        assert set(np.unique(row)) <= {-1, 0, 1}

    @given(src=ip_addresses, dst=ip_addresses, transport=transports)
    @DEFAULT_SETTINGS
    def test_decoded_packet_always_serialises(self, src, dst, transport):
        pkt = build_packet(src, dst, transport)
        dec = decode_packet(encode_packet(pkt))
        wire = dec.to_bytes()
        assert verify_checksum(wire[:dec.ip.header_length])


class TestFlowKeyProperties:
    @given(a=ip_addresses, b=ip_addresses, pa=ports, pb=ports)
    @DEFAULT_SETTINGS
    def test_canonicalisation_symmetric(self, a, b, pa, pb):
        fwd = build_packet(a, b, TCPHeader(src_port=pa, dst_port=pb))
        rev = build_packet(b, a, TCPHeader(src_port=pb, dst_port=pa))
        assert FlowKey.from_packet(fwd) == FlowKey.from_packet(rev)


class TestImagingProperties:
    @given(st.data())
    @DEFAULT_SETTINGS
    def test_ternary_rgb_roundtrip(self, data):
        shape = data.draw(st.tuples(
            st.integers(min_value=1, max_value=12),
            st.integers(min_value=1, max_value=40)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        m = rng.choice([-1, 0, 1], size=shape).astype(np.int8)
        assert (rgb_to_ternary(ternary_to_rgb(m)) == m).all()

    @given(st.lists(st.floats(min_value=-3, max_value=3,
                              allow_nan=False), min_size=1, max_size=64))
    @DEFAULT_SETTINGS
    def test_quantiser_total_and_ternary(self, values):
        out = continuous_to_ternary(np.array([values]))
        assert set(np.unique(out)) <= {-1, 0, 1}

    @given(st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=64))
    @DEFAULT_SETTINGS
    def test_quantiser_identity_on_exact_levels(self, values):
        m = np.array([values], dtype=np.float64)
        assert (continuous_to_ternary(m) == m.astype(np.int8)).all()


class TestTransformProperties:
    @given(st.lists(st.floats(min_value=0, max_value=30, allow_nan=False),
                    min_size=1, max_size=32))
    @DEFAULT_SETTINGS
    def test_gap_channel_invertible(self, gaps):
        gaps = np.array(gaps)
        back = channel_to_gaps(gaps_to_channel(gaps))
        assert np.allclose(back, gaps, rtol=1e-6, atol=1e-9)

    @given(st.integers(min_value=2, max_value=200))
    @DEFAULT_SETTINGS
    def test_schedule_alpha_bars_decrease(self, timesteps):
        s = NoiseSchedule.cosine(timesteps)
        assert (np.diff(s.alpha_bars) < 0).all()


class TestCodecProperties:
    @given(st.data())
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_full_rank_codec_is_lossless(self, data):
        n = data.draw(st.integers(min_value=6, max_value=20))
        d = data.draw(st.integers(min_value=2, max_value=5))
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d)).astype(np.float32)
        codec = LatentCodec(latent_dim=d).fit(X)
        recon = codec.decode(codec.encode(X))
        scale = max(float(np.abs(X).max()), 1.0)
        assert np.allclose(recon, X, atol=2e-3 * scale)


_ROW_KINDS = ("tcp", "udp", "icmp", "bare", "noise", "padding")


def _packet_row(draw, rng, kind: str) -> np.ndarray:
    """A ternary row encoding a random ``kind`` packet, with the edge
    cases the array decoder must get right drawn in."""
    src, dst = (int(v) for v in rng.integers(0, 2**32, size=2))
    sport, dport = (int(v) for v in rng.integers(0, 2**16, size=2))
    ip_options = rng.bytes(4 * draw(st.integers(0, 10)))
    payload = b"\x00" * draw(st.sampled_from([0, 1, 7, 512]))
    if kind == "tcp":
        transport = TCPHeader(
            src_port=sport, dst_port=dport,
            seq=int(rng.integers(0, 2**32)), ack=int(rng.integers(0, 2**32)),
            flags=int(rng.integers(0, 256)), window=int(rng.integers(0, 2**16)),
            urgent_pointer=int(rng.integers(0, 2**16)),
            options=rng.bytes(4 * draw(st.integers(0, 10))),
        )
    elif kind == "udp":
        transport = UDPHeader(src_port=sport, dst_port=0)
        if draw(st.booleans()):
            # A destination port equal to the checksum computed with port
            # 0 makes the one's-complement sum fold to zero.
            pkt = build_packet(src, dst, transport, payload,
                               options=ip_options)
            wire = pkt.to_bytes()
            at = pkt.ip.header_length + 6
            dport = int.from_bytes(wire[at : at + 2], "big")
        transport.dst_port = dport
    else:
        transport = ICMPHeader(icmp_type=int(rng.integers(0, 256)),
                               code=int(rng.integers(0, 256)),
                               rest=int(rng.integers(0, 2**32)))
    pkt = build_packet(src, dst, transport, payload,
                       ttl=int(rng.integers(0, 256)), options=ip_options)
    row = encode_packet(pkt)
    if draw(st.booleans()):
        total = FIELDS["ipv4.total_length"]
        row[total.start : total.stop] = 1  # 65535: the payload clamps
    return row


def _ternary_row(draw, rng, kind: str) -> np.ndarray:
    if kind in ("tcp", "udp", "icmp"):
        return _packet_row(draw, rng, kind)
    row = np.full(NPRINT_BITS, VACANT, dtype=np.int8)
    if kind == "bare":
        # The fixed IPv4 header and at most a quarter of each transport
        # region: below 25% occupancy no region votes, so the declared
        # protocol (or TCP) is emitted; at exactly 25% the region votes.
        row[:160] = rng.integers(0, 2, size=160)
        proto = FIELDS["ipv4.proto"]
        declared = draw(st.sampled_from([1, 6, 17, 99]))
        row[proto.start : proto.stop] = [
            (declared >> (7 - b)) & 1 for b in range(8)]
        for name in ("tcp", "udp", "icmp"):
            fs = REGION_SLICES[name]
            width = draw(st.integers(0, fs.width // 4))
            row[fs.start : fs.start + width] = rng.integers(0, 2, size=width)
    elif kind == "noise":
        row[:] = rng.integers(-1, 2, size=NPRINT_BITS)
    return row


def _finalize_mask(draw, rng) -> np.ndarray | None:
    """A structure mask, or None (hard guidance off)."""
    kind = draw(st.sampled_from(
        [None, "tcp", "udp", "icmp", "random", "levels", "multi", "cut"]))
    if kind in ("tcp", "udp", "icmp"):
        return protocol_mask(kind)
    if kind == "random":
        return rng.uniform(0.0, 1.0, size=NPRINT_BITS)
    if kind == "levels":
        # Entries exactly at the 0.5 threshold (on) and just below (off).
        return rng.choice([0.0, np.nextafter(0.5, 0.0), 0.5, 1.0],
                          size=NPRINT_BITS)
    if kind == "multi":
        # Two or three transport regions on, each to a drawn share of
        # its columns: the occupancy vote (ties included) picks one.
        mask = protocol_mask("tcp", occupancy=0.0)
        mask[:160] = 1.0
        regions = draw(st.sampled_from(
            [("tcp", "udp"), ("tcp", "icmp"), ("udp", "icmp"),
             ("tcp", "udp", "icmp")]))
        for name in regions:
            fs = REGION_SLICES[name]
            share = draw(st.sampled_from([0.3, 0.6, 1.0]))
            mask[fs.start : fs.stop] = rng.uniform(size=fs.width) < share
        return mask
    if kind == "cut":
        # The fixed IPv4 span mostly off (79 of 160 on cuts every flow)
        # or exactly half on (80: every packet row stays).
        mask = rng.uniform(0.0, 1.0, size=NPRINT_BITS)
        on = draw(st.sampled_from([0, 40, 79, 80]))
        mask[:160] = 0.0
        mask[rng.permutation(160)[:on]] = 1.0
        return mask
    return None


@st.composite
def finalize_inputs(draw):
    """Continuous ``(n, P, 1088)`` float32 or float64 matrices, timing
    channels, a structure mask (or None: hard guidance off) and a start
    time."""
    n = draw(st.integers(1, 3))
    p = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ternary = np.stack([
        np.stack([
            _ternary_row(draw, rng, draw(st.sampled_from(_ROW_KINDS)))
            for _ in range(p)
        ])
        for _ in range(n)
    ])
    sigma = draw(st.sampled_from([0.0, 0.2, 0.45]))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    continuous = (ternary + rng.normal(0.0, sigma, size=ternary.shape)
                  ).astype(dtype)
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, p - 1))
    edge = draw(st.sampled_from([None, "cut", "boundary", "levels"]))
    if edge == "cut":
        # A fixed IPv4 span hovering around half vacant: guidance and
        # repair may cut the flow here, mid-flow.
        continuous[i, j, :160] = rng.uniform(-1.2, 0.4, size=160)
    elif edge == "boundary":
        # Mean just above -0.5 in float64, exactly -0.5 in float32: a
        # packet row only if guidance averages in float64.
        continuous[i, j, :160] = -0.5
        continuous[i, j, 0] = np.nextafter(np.float32(-0.5), np.float32(0))
    elif edge == "levels":
        # Values exactly on the quantiser's thresholds.
        at = rng.uniform(size=continuous.shape) < 0.3
        continuous[at] = rng.choice([-0.5, 0.5], size=int(at.sum()))
    mask = _finalize_mask(draw, rng)
    channels = rng.uniform(-0.2, 2.5, size=(n, p))
    start = draw(st.sampled_from([0.0, 1.5, 1.7e9]))
    return continuous, channels, mask, start


_DECODE_COUNTERS = (
    "nprint.decode.packets", "nprint.decode.fallback_proto",
    "nprint.decode.proto_rewritten", "nprint.decode.payload_clamped",
)


def _with_decode_counts(fn):
    """``fn()`` and how much it moved each ``nprint.decode.*`` counter."""
    before = [perf.counter(name) for name in _DECODE_COUNTERS]
    result = fn()
    return result, [perf.counter(name) - b
                    for name, b in zip(_DECODE_COUNTERS, before)]


#: max_examples comes from the Hypothesis profile (tests/conftest.py):
#: 50 in tier-1, 500 under ``--hypothesis-profile thorough``.
FINALIZE_SETTINGS = settings(
    deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestArrayFinalizeProperties:
    """The one-pass finalize equals the per-flow, per-row oracle, and the
    mask-compiled pass equals the guidance -> quantise -> repair chain."""

    @given(finalize_inputs())
    @FINALIZE_SETTINGS
    def test_fused_repair_matches_chain(self, inputs):
        continuous, _, mask, _ = inputs
        if mask is None:
            mask = protocol_mask("tcp")
        expected = repair_matrix(quantize_matrix(
            apply_structure_guidance(continuous, mask)))
        assert np.array_equal(repair_guided(continuous, mask), expected)
        assert np.array_equal(repair_guided(continuous[0], mask),
                              expected[0])

    @given(finalize_inputs())
    @FINALIZE_SETTINGS
    def test_batch_finalize_matches_oracle(self, inputs):
        continuous, channels, mask, _ = inputs
        batch, counts = _with_decode_counts(
            lambda: matrix_to_flow(continuous, channels, label="x",
                                   mask=mask))
        guided = (continuous if mask is None
                  else apply_structure_guidance(continuous, mask))
        chain, chain_counts = _with_decode_counts(
            lambda: matrix_to_flow(guided, channels, label="x"))
        assert counts == chain_counts
        assert counts[0] == sum(batch.counts)
        assert np.array_equal(batch.matrices, chain.matrices)
        datas, stamps = render_flows(batch)
        assert len(datas) == len(stamps) == sum(batch.counts)
        at = 0
        for i, flow in enumerate(batch):
            repaired, packets = finalize_flow(continuous[i], mask,
                                              channels[i])
            assert np.array_equal(batch.matrices[i], repaired)
            assert len(flow.packets) == len(packets)
            got = datas[at : at + len(packets)]
            assert got == [pkt.to_bytes() for pkt in packets]
            assert stamps[at : at + len(packets)].tolist() == \
                [pkt.timestamp for pkt in packets]
            assert list(flow.packets) == packets
            assert flow.label == "x"
            at += len(packets)

    @given(finalize_inputs())
    @FINALIZE_SETTINGS
    def test_batch_decode_matches_oracle(self, inputs):
        """Unrepaired rows too: no-vote fallback, contradicting protocol
        fields, stray option bits."""
        continuous, channels, _, start = inputs
        ternary = quantize(continuous)
        gaps = channel_to_gaps(channels)
        batch = decode_batch(ternary, gaps, start_time=start)
        for i, flow in enumerate(batch):
            packets = decode_rows(ternary[i], gaps[i], start_time=start)
            view = batch[i : i + 1]
            assert view.records == [pkt.to_bytes() for pkt in packets]
            assert view.stamps.tolist() == [pkt.timestamp for pkt in packets]
            assert list(flow.packets) == packets


class TestAutogradProperties:
    @given(st.data())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_gradients_match_finite_differences(self, data):
        rows = data.draw(st.integers(min_value=1, max_value=4))
        cols = data.draw(st.integers(min_value=1, max_value=4))
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        a = Tensor(rng.uniform(0.2, 1.5, size=(rows, cols)),
                   requires_grad=True)
        b = Tensor(rng.uniform(0.2, 1.5, size=(cols,)), requires_grad=True)

        def fn():
            return ((a * b).silu().sum(axis=1) ** 2).mean()

        loss = fn()
        loss.backward()
        idx = (rng.integers(rows), rng.integers(cols))
        eps = 1e-6
        orig = a.data[idx]
        a.data[idx] = orig + eps
        plus = float(fn().data)
        a.data[idx] = orig - eps
        minus = float(fn().data)
        a.data[idx] = orig
        numeric = (plus - minus) / (2 * eps)
        assert a.grad[idx] == pytest.approx(numeric, abs=1e-5)
