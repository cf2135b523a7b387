"""Multi-core compute tier: sharded generation workers, tail-chunk
semantics, and the memory-mapped fit path."""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro import perf
from repro.core.pipeline import PipelineConfig, TextToTrafficPipeline
from repro.net.packet import render_flows
from repro.net.pcap import PcapWriter
from repro.traffic.dataset import generate_app_flows


def _train_flows():
    flows = []
    for app in ("netflix", "teams"):
        flows.extend(generate_app_flows(app, 12, seed=3))
    return flows


@pytest.fixture(scope="module")
def fitted():
    config = PipelineConfig(
        max_packets=10, latent_dim=32, hidden=64, blocks=2,
        timesteps=80, train_steps=60, controlnet_steps=30,
        ddim_steps=10, generation_batch=16, seed=9,
    )
    return TextToTrafficPipeline(config).fit(_train_flows())


def _stream_pcap_bytes(pipeline, n: int, chunk: int, **kwargs) -> bytes:
    stream_file = io.BytesIO()
    writer = PcapWriter(stream_file)
    for result in pipeline.generate_stream(
        "netflix", n, chunk=chunk, **kwargs
    ):
        datas, stamps = render_flows(result.flows)
        writer.write_many(datas, stamps)
    return stream_file.getvalue()


#: the per-chunk work counters that must be identical however the chunks
#: are scheduled (merged worker snapshots == single-process run).
_INVARIANT_COUNTERS = (
    "denoiser.forward",
    "denoiser.rows",
    "pipeline.sample_batches",
    "pipeline.sampled_flows",
    "pipeline.stream_chunks",
    "pipeline.shard_chunks",
)


class TestShardedGeneration:
    def test_worker_count_invariance(self, fitted):
        """workers=1 and workers=2: byte-identical pcap, equal counters.

        workers=1 samples in-process from the live weights, workers=2
        from the archive each worker loads; at float32 each side casts
        its own copy of the weights.
        """
        for dtype in (None, np.float32):
            perf.reset()
            one = _stream_pcap_bytes(
                fitted, 40, 16, workers=1, seed=123, dtype=dtype
            )
            counters_one = {
                name: perf.counter(name) for name in _INVARIANT_COUNTERS
            }
            perf.reset()
            two = _stream_pcap_bytes(
                fitted, 40, 16, workers=2, seed=123, dtype=dtype
            )
            counters_two = {
                name: perf.counter(name) for name in _INVARIANT_COUNTERS
            }
            assert one == two, dtype
            assert counters_one == counters_two, dtype
            assert counters_one["pipeline.shard_chunks"] == 3  # 16+16+8

    def test_deterministic_rerun(self, fitted):
        first = _stream_pcap_bytes(fitted, 24, 8, workers=2, seed=5)
        second = _stream_pcap_bytes(fitted, 24, 8, workers=2, seed=5)
        assert first == second

    def test_seed_changes_output(self, fitted):
        a = _stream_pcap_bytes(fitted, 16, 16, workers=1, seed=1)
        b = _stream_pcap_bytes(fitted, 16, 16, workers=1, seed=2)
        assert a != b

    def test_seed_defaults_to_config_seed(self, fitted):
        implicit = _stream_pcap_bytes(fitted, 16, 16, workers=1)
        explicit = _stream_pcap_bytes(
            fitted, 16, 16, workers=1, seed=fitted.config.seed,
        )
        assert implicit == explicit

    def test_rng_rejected_in_sharded_mode(self, fitted):
        with pytest.raises(ValueError, match="seed"):
            next(fitted.generate_stream(
                "netflix", 8, chunk=8, workers=1,
                rng=np.random.default_rng(0),
            ))

    def test_workers_below_one_rejected(self, fitted):
        with pytest.raises(ValueError, match="workers"):
            next(fitted.generate_stream("netflix", 8, chunk=8, workers=0))

    def test_sharded_chunks_carry_no_arrays(self, fitted):
        """A sharded chunk is flows only: wire records, stamps and counts."""
        for workers in (1, 2):
            results = list(fitted.generate_stream(
                "netflix", 8, chunk=8, workers=workers, seed=0
            ))
            assert len(results) == 1
            result = results[0]
            assert result.matrices is None
            assert result.gaps is None
            assert result.flows.matrices is None
            assert len(result.flows) == 8
            assert len(result.flows.records) == result.flows.counts.sum()
            assert all(f.label == "netflix" for f in result.flows)

    def test_explicit_shard_dir_archive_reused(self, fitted, tmp_path):
        _ = _stream_pcap_bytes(
            fitted, 16, 8, workers=2, seed=0, shard_dir=str(tmp_path)
        )
        archives = list(tmp_path.glob("pipeline-shard-*.npz"))
        assert len(archives) == 1
        perf.reset()
        _ = _stream_pcap_bytes(
            fitted, 16, 8, workers=2, seed=0, shard_dir=str(tmp_path)
        )
        assert list(tmp_path.glob("pipeline-shard-*.npz")) == archives
        assert perf.counter("pipeline.shard_archive_hit") == 1
        assert perf.counter("pipeline.shard_archive_write") == 0


class TestTailChunk:
    def test_short_tail_chunk_is_batch_identical(self, fitted):
        """n % chunk != 0 with chunk a batch multiple: same bytes as batch."""
        flows = fitted.generate("netflix", 40, rng=np.random.default_rng(7))
        batch_file = io.BytesIO()
        writer = PcapWriter(batch_file)
        for flow in flows:
            for pkt in flow.packets:
                writer.write_packet(pkt)

        sizes = []
        stream_file = io.BytesIO()
        writer = PcapWriter(stream_file)
        for result in fitted.generate_stream(
            "netflix", 40, chunk=16, rng=np.random.default_rng(7)
        ):
            sizes.append(len(result.flows))
            datas, stamps = render_flows(result.flows)
            writer.write_many(datas, stamps)
        assert sizes == [16, 16, 8]
        assert stream_file.getvalue() == batch_file.getvalue()

    def test_non_batch_multiple_chunk_deterministic_not_batch(self, fitted):
        """chunk=24 on generation_batch=16: valid + deterministic, but the
        sampler batch shapes (and so the RNG stream) differ from batch."""
        flows = fitted.generate("netflix", 40, rng=np.random.default_rng(7))
        batch_file = io.BytesIO()
        writer = PcapWriter(batch_file)
        for flow in flows:
            for pkt in flow.packets:
                writer.write_packet(pkt)

        def run():
            sizes = []
            out = io.BytesIO()
            writer = PcapWriter(out)
            for result in fitted.generate_stream(
                "netflix", 40, chunk=24, rng=np.random.default_rng(7)
            ):
                sizes.append(len(result.flows))
                datas, stamps = render_flows(result.flows)
                writer.write_many(datas, stamps)
            return sizes, out.getvalue()

        sizes_a, bytes_a = run()
        sizes_b, bytes_b = run()
        assert sizes_a == sizes_b == [24, 16]
        assert bytes_a == bytes_b
        assert bytes_a != batch_file.getvalue()


class TestServeParity:
    """Property-based: the serving tier and the direct generation path
    agree byte-for-byte whenever they consume the same derived stream.

    Randomised (request_id, count) combinations, seeded for
    reproducibility, are served through a live GenerationService and
    compared against lone ``generate_raw`` calls with the same
    ``request_rng`` stream — the serving analogue of the worker-count
    invariance pinned above.
    """

    def _solo(self, fitted, server_seed, rid, count):
        from repro.serve import request_rng

        result = fitted.generate_raw(
            "netflix", count, rng=request_rng(server_seed, rid)
        )
        out = io.BytesIO()
        writer = PcapWriter(out)
        datas, stamps = render_flows(result.flows)
        writer.write_many(datas, stamps)
        return out.getvalue()

    @pytest.mark.parametrize("case_seed", [0, 1, 2])
    def test_served_requests_match_direct_generation(self, fitted,
                                                     case_seed):
        from repro.serve import GenerateRequest, GenerationService

        case = np.random.default_rng(case_seed)
        server_seed = int(case.integers(0, 2**16))
        rids = [int(r) for r in case.choice(1000, size=6, replace=False)]
        counts = [int(c) for c in case.integers(1, 5, size=6)]
        max_flows = int(case.choice([4, 8, 16]))

        service = GenerationService(
            pipeline=fitted, server_seed=server_seed,
            max_batch_flows=max_flows, max_wait=0.05, autostart=False,
        )
        futures = {
            rid: service.submit(GenerateRequest(
                request_id=rid, class_name="netflix", count=count))
            for rid, count in zip(rids, counts)
        }
        service.start()
        try:
            served = {}
            for rid, fut in futures.items():
                out = io.BytesIO()
                writer = PcapWriter(out)
                datas, stamps = render_flows(
                    fut.result(timeout=60).flows)
                writer.write_many(datas, stamps)
                served[rid] = out.getvalue()
        finally:
            service.shutdown()

        for rid, count in zip(rids, counts):
            assert served[rid] == self._solo(
                fitted, server_seed, rid, count
            ), f"request {rid} (count {count}) diverged from solo path"

    def test_stream_chunk_equals_served_request(self, fitted):
        """A one-chunk generate_stream fed the request's derived RNG is
        the same bytes a served request produces: serving is stream
        generation with request-keyed streams."""
        from repro.serve import GenerateRequest, GenerationService
        from repro.serve import request_rng

        streamed = _stream_pcap_bytes(
            fitted, 6, 6, rng=request_rng(9, 123)
        )
        service = GenerationService(
            pipeline=fitted, server_seed=9, max_wait=0.02
        )
        try:
            result = service.generate(GenerateRequest(
                request_id=123, class_name="netflix", count=6))
        finally:
            service.shutdown()
        out = io.BytesIO()
        writer = PcapWriter(out)
        datas, stamps = render_flows(result.flows)
        writer.write_many(datas, stamps)
        assert out.getvalue() == streamed


class TestMemmapFit:
    @pytest.fixture(scope="class")
    def pair(self, tmp_path_factory):
        config = dict(
            max_packets=8, latent_dim=24, hidden=48, blocks=2,
            timesteps=60, train_steps=40, controlnet_steps=20,
            ddim_steps=8, generation_batch=16, seed=4,
        )
        flows = _train_flows()
        ram = TextToTrafficPipeline(PipelineConfig(**config)).fit(flows)
        memmap_dir = tmp_path_factory.mktemp("fit-memmap")
        low = TextToTrafficPipeline(PipelineConfig(**config)).fit(
            flows, memmap_dir=str(memmap_dir)
        )
        return ram, low, memmap_dir

    def test_memmap_files_written(self, pair):
        _, _, memmap_dir = pair
        names = sorted(p.name for p in memmap_dir.iterdir())
        assert names == ["train_masks.npy", "train_vectors.npy"]
        vectors = np.load(memmap_dir / "train_vectors.npy", mmap_mode="r")
        assert vectors.dtype == np.float32
        assert vectors.shape[0] == 24  # 12 flows x 2 classes

    def test_class_templates_bitwise_identical(self, pair):
        ram, low, _ = pair
        assert sorted(ram.class_masks) == sorted(low.class_masks)
        for name, mask in ram.class_masks.items():
            assert np.array_equal(low.class_masks[name], mask)
            assert low.class_heights[name] == ram.class_heights[name]

    def test_codec_agrees(self, pair):
        ram, low, _ = pair
        np.testing.assert_allclose(
            low.codec.mean_, ram.codec.mean_, rtol=1e-10, atol=1e-12
        )
        np.testing.assert_allclose(
            low.codec.components_, ram.codec.components_,
            rtol=1e-6, atol=1e-8,
        )

    def test_training_histories_agree(self, pair):
        ram, low, _ = pair
        np.testing.assert_allclose(
            low.training_history, ram.training_history, rtol=1e-6
        )
        np.testing.assert_allclose(
            low.controlnet_history, ram.controlnet_history, rtol=1e-6
        )

    def test_memmap_fitted_pipeline_generates(self, pair):
        _, low, _ = pair
        flows = low.generate("teams", 4, rng=np.random.default_rng(0))
        assert len(flows) == 4
        assert all(f.label == "teams" for f in flows)
        assert all(len(f.packets) >= 1 for f in flows)
