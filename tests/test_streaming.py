"""Million-flow streaming tier: chunked generation, batched pcap writes,
object-flow rendering and the float32 denoiser tier."""

from __future__ import annotations

import io
import tracemalloc

import numpy as np
import pytest

from repro.core.pipeline import PipelineConfig, TextToTrafficPipeline
from repro.net.checksum import verify_checksum
from repro.net.flow import Flow
from repro.net.headers import ICMPHeader, TCPFlags, TCPHeader, UDPHeader
from repro.net.packet import (
    PacketRenderer,
    build_packet,
    parse_packet,
    render_flows,
)
from repro.net.pcap import PcapError, PcapWriter
from repro.traffic.dataset import generate_app_flows


@pytest.fixture(scope="module")
def fitted():
    flows = []
    for app in ("netflix", "teams"):
        flows.extend(generate_app_flows(app, 12, seed=3))
    config = PipelineConfig(
        max_packets=10, latent_dim=32, hidden=64, blocks=2,
        timesteps=80, train_steps=60, controlnet_steps=30,
        ddim_steps=10, generation_batch=16, seed=9,
    )
    return TextToTrafficPipeline(config).fit(flows)


def _write_flow_major(flows, fileobj, snaplen: int = 65535) -> bytes:
    writer = PcapWriter(fileobj, snaplen=snaplen)
    for flow in flows:
        for pkt in flow.packets:
            writer.write_packet(pkt)
    return fileobj.getvalue()


class TestStreamingParity:
    def test_stream_pcap_byte_identical_to_batch(self, fitted):
        """Same seed, chunk a multiple of generation_batch => same bytes."""
        flows = fitted.generate(
            "netflix", 48, rng=np.random.default_rng(7)
        )
        batch_bytes = _write_flow_major(flows, io.BytesIO())

        stream_file = io.BytesIO()
        writer = PcapWriter(stream_file)
        for result in fitted.generate_stream(
            "netflix", 48, chunk=16, rng=np.random.default_rng(7)
        ):
            datas, stamps = render_flows(result.flows)
            writer.write_many(datas, stamps)
        assert stream_file.getvalue() == batch_bytes

    def test_stream_chunk_sizes_and_labels(self, fitted):
        sizes = []
        for result in fitted.generate_stream(
            "teams", 21, chunk=8, rng=np.random.default_rng(0)
        ):
            sizes.append(len(result.flows))
            assert all(f.label == "teams" for f in result.flows)
        assert sizes == [8, 8, 5]

    def test_stream_default_chunk_is_4x_generation_batch(self, fitted):
        results = list(fitted.generate_stream(
            "netflix", 70, rng=np.random.default_rng(0)
        ))
        assert [len(r.flows) for r in results] == [64, 6]

    def test_stream_peak_memory_independent_of_n(self, fitted):
        """Peak allocation is set by the chunk size, not the flow count."""

        def peak(n):
            writer = PcapWriter(io.BytesIO())
            tracemalloc.start()
            tracemalloc.reset_peak()
            for result in fitted.generate_stream(
                "netflix", n, chunk=16, rng=np.random.default_rng(1)
            ):
                datas, stamps = render_flows(result.flows)
                writer.write_many(datas, stamps)
            _, peak_bytes = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return peak_bytes

        small, large = peak(32), peak(96)
        # 3x the flows must not cost 3x the memory; allow generous noise.
        assert large < 1.5 * small + 4 * 1024 * 1024
        # Absolute cap derived from the chunk: latents, matrices and
        # flows for one 16-flow chunk are well under a megabyte on this
        # tiny config; 64 MiB leaves room for transient forward-pass
        # activations without letting full-batch materialisation slip by.
        assert large < 64 * 1024 * 1024


class TestWriteMany:
    def _packets(self, tcp_packet, udp_packet, icmp_packet):
        pkts = []
        for i, base in enumerate((tcp_packet, udp_packet, icmp_packet)):
            for j in range(3):
                p = build_packet(
                    base.ip.src_ip, base.ip.dst_ip, base.transport,
                    payload=base.payload + b"z" * j,
                    ttl=base.ip.ttl,
                    timestamp=base.timestamp + i + j * 0.125,
                )
                pkts.append(p)
        # A timestamp whose microsecond part rounds up to 1_000_000:
        pkts[0].timestamp = 1.9999997
        return pkts

    def test_matches_write_raw_loop(self, tcp_packet, udp_packet,
                                    icmp_packet):
        pkts = self._packets(tcp_packet, udp_packet, icmp_packet)
        loop_file = io.BytesIO()
        loop_writer = PcapWriter(loop_file)
        for p in pkts:
            loop_writer.write_raw(p.to_bytes(), p.timestamp)

        many_file = io.BytesIO()
        many_writer = PcapWriter(many_file)
        datas = [p.to_bytes() for p in pkts]
        stamps = np.array([p.timestamp for p in pkts])
        assert many_writer.write_many(datas, stamps) == len(pkts)
        assert many_file.getvalue() == loop_file.getvalue()

    def test_snaplen_truncation_matches(self, tcp_packet, udp_packet,
                                        icmp_packet):
        pkts = self._packets(tcp_packet, udp_packet, icmp_packet)
        loop_file = io.BytesIO()
        loop_writer = PcapWriter(loop_file, snaplen=40)
        for p in pkts:
            loop_writer.write_raw(p.to_bytes(), p.timestamp)
        many_file = io.BytesIO()
        many_writer = PcapWriter(many_file, snaplen=40)
        many_writer.write_many(
            [p.to_bytes() for p in pkts],
            np.array([p.timestamp for p in pkts]),
        )
        assert many_file.getvalue() == loop_file.getvalue()

    def test_rejects_mismatched_lengths(self):
        writer = PcapWriter(io.BytesIO())
        with pytest.raises(PcapError):
            writer.write_many([b"ab"], np.zeros(2))

    def test_rejects_negative_timestamp(self):
        writer = PcapWriter(io.BytesIO())
        with pytest.raises(PcapError):
            writer.write_many([b"ab", b"cd"], np.array([1.0, -0.5]))

    def test_empty_is_noop(self):
        f = io.BytesIO()
        writer = PcapWriter(f)
        header_len = len(f.getvalue())
        assert writer.write_many([], np.zeros(0)) == 0
        assert len(f.getvalue()) == header_len


class TestPacketRenderer:
    """Object flows render through :meth:`Packet.to_bytes`; the retired
    template cache's ``PacketRenderer`` is a stateless stand-in."""

    def test_randomized_parity_with_to_bytes(self, rng):
        flows = []
        for i in range(150):
            kind = i % 3
            src = int(rng.integers(0, 1 << 32))
            dst = int(rng.integers(0, 1 << 32))
            payload = bytes(
                rng.integers(0, 256, size=int(rng.integers(0, 60)),
                             dtype=np.uint8)
            )
            if kind == 0:
                opts = (b"", b"\x01\x01\x02\x04\x05\xb4")[i % 2]
                transport = TCPHeader(
                    src_port=int(rng.integers(1, 65536)),
                    dst_port=int(rng.integers(1, 65536)),
                    seq=int(rng.integers(0, 1 << 32)),
                    ack=int(rng.integers(0, 1 << 32)),
                    flags=int(TCPFlags.ACK) | int(rng.integers(0, 4)),
                    window=int(rng.integers(0, 65536)),
                    options=opts,
                )
            elif kind == 1:
                transport = UDPHeader(
                    src_port=int(rng.integers(1, 65536)),
                    dst_port=int(rng.integers(1, 65536)),
                )
            else:
                transport = ICMPHeader(
                    icmp_type=(8, 0)[i % 2], code=0,
                    rest=int(rng.integers(0, 1 << 32)),
                )
            pkt = build_packet(
                src, dst, transport, payload=payload,
                ttl=int(rng.integers(1, 256)),
                identification=int(rng.integers(0, 65536)),
                timestamp=float(i),
            )
            if kind == 0 or not flows:
                flows.append(Flow(packets=[]))
            flows[-1].packets.append(pkt)
        datas, stamps = render_flows(flows, PacketRenderer())
        packets = [p for f in flows for p in f.packets]
        assert datas == [p.to_bytes() for p in packets]
        assert np.array_equal(stamps, np.arange(150, dtype=np.float64))
        for data, pkt in zip(datas, packets):
            assert PacketRenderer().render(pkt) == data
            back = parse_packet(data)
            assert verify_checksum(data[: back.ip.header_length])
            assert back.to_bytes() == data

    def test_render_flows_flow_major(self, sample_flow):
        datas, stamps = render_flows([sample_flow, sample_flow])
        assert len(datas) == 2 * len(sample_flow.packets)
        expected = [p.to_bytes() for p in sample_flow.packets] * 2
        assert datas == expected
        assert stamps.dtype == np.float64


class TestFloat32Tier:
    def test_latent_drift_bounded(self, fitted):
        z64 = fitted.sample_latents(
            "netflix", 8, rng=np.random.default_rng(11)
        )
        z32 = fitted.sample_latents(
            "netflix", 8, rng=np.random.default_rng(11), dtype=np.float32
        )
        assert z64.dtype == np.float64
        assert z32.dtype == np.float32
        assert float(np.max(np.abs(z64 - z32))) < 5e-3

    def test_fp32_flows_well_formed(self, fitted):
        flows = fitted.generate(
            "teams", 6, rng=np.random.default_rng(2), dtype=np.float32
        )
        assert len(flows) == 6
        assert all(f.label == "teams" and len(f) >= 1 for f in flows)

    def test_default_path_untouched_by_fp32_engine(self, fitted):
        a = fitted.sample_latents(
            "netflix", 4, rng=np.random.default_rng(3)
        )
        fitted.sample_latents(
            "netflix", 4, rng=np.random.default_rng(3), dtype=np.float32
        )
        b = fitted.sample_latents(
            "netflix", 4, rng=np.random.default_rng(3)
        )
        assert np.array_equal(a, b)
