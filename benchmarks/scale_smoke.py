#!/usr/bin/env python
"""Scale-benchmark smoke runner: the million-flow streaming generation tier.

Measures end-to-end trace emission — ``sample_latents -> decode -> encode ->
pcap`` — in two modes and writes a ``BENCH_scale.json`` artifact so CI (or a
human) can diff flows/s and peak memory against the recorded baseline:

* ``batch``  — the legacy path: ``generate_raw`` materialises every
  intermediate artefact for the full run, then packets are written one
  ``Packet`` at a time (flow-major order);
* ``stream`` — the streaming tier: ``Pipeline.generate_stream`` yields
  bounded chunks, flows are rendered through the per-flow header cache and
  appended with ``PcapWriter.write_many``, float32 denoiser inference.

``--workers N [N ...]`` adds one ``stream_w{N}`` mode per count: the
multi-core sharded tier (``generate_stream(workers=N, seed=...)``), which
derives each chunk's RNG from ``(seed, chunk index)`` so the emitted pcap
is byte-identical for every worker count.  The artifact records each
mode's pcap sha256, whether all sharded pcaps matched
(``workers_pcap_identical``), and the flows/s speedup of the widest
worker count over one worker (``workers_speedup``).

Usage::

    PYTHONPATH=src python benchmarks/scale_smoke.py --preset tiny
    PYTHONPATH=src python benchmarks/scale_smoke.py --preset quick \
        --modes batch stream
    PYTHONPATH=src python benchmarks/scale_smoke.py --preset 1m --modes stream
    PYTHONPATH=src python benchmarks/scale_smoke.py --preset tiny \
        --modes stream --workers 1 2

The artifact keeps a ``baseline`` section per preset (the pre-streaming
batch path, written the first time a preset is benchmarked, then preserved
verbatim) next to the ``current`` section (overwritten on every run), plus
the flows/s speedup of each current mode over the baseline batch path.
Peak memory is sampled from ``/proc/self/statm`` (whole-process RSS) so the
streaming path's bounded-memory claim is measured, not assumed.
"""

from __future__ import annotations

# Pin BLAS/OpenMP thread pools before anything imports NumPy so the
# recorded numbers are machine-independent (see bench_env docstring).
import bench_env  # noqa: E402  (same directory as this script)

bench_env.pin_blas_threads()

import argparse
import hashlib
import json
import os
import sys
import tempfile
import threading
import time
from pathlib import Path

#: scale presets are deliberately self-contained (not the experiment
#: presets): the 1m preset needs a model small enough that a pure-NumPy
#: million-flow run finishes, while tiny must stay CI-sized.
SCALE_PRESETS: dict[str, dict] = {
    "tiny": {
        "n_flows": 256,
        "chunk": 64,
        "fit_flows_per_class": 10,
        "pipeline": dict(
            max_packets=8, latent_dim=24, hidden=48, blocks=2,
            timesteps=80, train_steps=120, controlnet_steps=50,
            ddim_steps=8, generation_batch=64, seed=0,
        ),
    },
    "quick": {
        "n_flows": 1024,
        "chunk": 256,
        "fit_flows_per_class": 16,
        "pipeline": dict(
            max_packets=16, latent_dim=48, hidden=96, blocks=3,
            timesteps=120, train_steps=200, controlnet_steps=80,
            ddim_steps=12, generation_batch=256, seed=0,
        ),
    },
    "1m": {
        "n_flows": 1_000_000,
        "chunk": 16384,
        "fit_flows_per_class": 12,
        "pipeline": dict(
            max_packets=6, latent_dim=24, hidden=48, blocks=2,
            timesteps=60, train_steps=120, controlnet_steps=50,
            ddim_steps=6, generation_batch=8192, seed=0,
        ),
    },
}

_PAGE = os.sysconf("SC_PAGE_SIZE")


def _rss_bytes() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * _PAGE


class RssSampler(threading.Thread):
    """Background sampler tracking whole-process peak RSS."""

    def __init__(self, interval: float = 0.05):
        super().__init__(daemon=True)
        self.interval = interval
        self.peak = _rss_bytes()
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.is_set():
            self.peak = max(self.peak, _rss_bytes())
            self._halt.wait(self.interval)

    def stop(self) -> int:
        self._halt.set()
        self.join()
        self.peak = max(self.peak, _rss_bytes())
        return self.peak


def _fit_pipeline(spec: dict, seed: int):
    from repro.core.pipeline import PipelineConfig, TextToTrafficPipeline
    from repro.traffic.dataset import generate_app_flows

    flows = []
    for app in ("netflix", "teams"):
        flows.extend(
            generate_app_flows(app, spec["fit_flows_per_class"], seed=3)
        )
    config = PipelineConfig(**{**spec["pipeline"], "seed": seed})
    return TextToTrafficPipeline(config).fit(flows)


def _run_batch(pipeline, spec: dict, seed: int, out_path: str) -> dict:
    """Legacy full-batch generation + per-packet pcap writes (flow-major)."""
    import numpy as np

    from repro.net.pcap import PcapWriter

    n = spec["n_flows"]
    rng = np.random.default_rng(seed)
    sampler = RssSampler()
    sampler.start()
    rss_start = _rss_bytes()
    start = time.perf_counter()
    result = pipeline.generate_raw("netflix", n, rng=rng)
    packets = 0
    with PcapWriter(open(out_path, "wb")) as writer:
        for flow in result.flows:
            for pkt in flow.packets:
                writer.write_packet(pkt)
                packets += 1
    elapsed = time.perf_counter() - start
    peak = sampler.stop()
    return {
        "mode": "batch",
        "n_flows": n,
        "packets": packets,
        "seconds": round(elapsed, 3),
        "flows_per_second": round(n / elapsed, 3),
        "rss_start_mb": round(rss_start / 1e6, 1),
        "peak_rss_mb": round(peak / 1e6, 1),
        "pcap_bytes": os.path.getsize(out_path),
    }


def _run_stream(pipeline, spec: dict, seed: int, out_path: str,
                fp32: bool = True) -> dict:
    """Streaming tier: chunked generate -> header-cached render -> write_many."""
    import numpy as np

    from repro.net.packet import PacketRenderer
    from repro.net.pcap import PcapWriter

    if not hasattr(pipeline, "generate_stream"):
        raise SystemExit(
            "this checkout has no Pipeline.generate_stream; "
            "run --modes batch only"
        )
    n = spec["n_flows"]
    chunk = spec["chunk"]
    rng = np.random.default_rng(seed)
    dtype = np.float32 if fp32 else None
    sampler = RssSampler()
    sampler.start()
    rss_start = _rss_bytes()
    start = time.perf_counter()
    packets = 0
    flows_done = 0
    renderer = PacketRenderer()
    with PcapWriter(open(out_path, "wb")) as writer:
        for result in pipeline.generate_stream(
            "netflix", n, chunk=chunk, rng=rng, dtype=dtype
        ):
            datas = []
            stamps = []
            for flow in result.flows:
                for pkt in flow.packets:
                    datas.append(renderer.render(pkt))
                    stamps.append(pkt.timestamp)
            writer.write_many(datas, np.asarray(stamps))
            packets += len(datas)
            flows_done += len(result.flows)
            if n >= 100_000 and flows_done % (chunk * 8) == 0:
                print(f"  ... {flows_done}/{n} flows", flush=True)
    elapsed = time.perf_counter() - start
    peak = sampler.stop()
    return {
        "mode": "stream",
        "fp32": fp32,
        "chunk": chunk,
        "n_flows": n,
        "packets": packets,
        "seconds": round(elapsed, 3),
        "flows_per_second": round(n / elapsed, 3),
        "rss_start_mb": round(rss_start / 1e6, 1),
        "peak_rss_mb": round(peak / 1e6, 1),
        "pcap_bytes": os.path.getsize(out_path),
    }


def _run_stream_sharded(pipeline, spec: dict, seed: int, out_path: str,
                        workers: int, fp32: bool = True) -> dict:
    """Sharded streaming tier: worker processes, per-chunk derived seeds."""
    import numpy as np

    from repro.net.packet import PacketRenderer, render_flows
    from repro.net.pcap import PcapWriter

    n = spec["n_flows"]
    chunk = spec["chunk"]
    dtype = np.float32 if fp32 else None
    sampler = RssSampler()
    sampler.start()
    rss_start = _rss_bytes()
    start = time.perf_counter()
    packets = 0
    flows_done = 0
    renderer = PacketRenderer()
    with PcapWriter(open(out_path, "wb")) as writer:
        for result in pipeline.generate_stream(
            "netflix", n, chunk=chunk, workers=workers, seed=seed,
            dtype=dtype, yield_arrays=False,
        ):
            datas, stamps = render_flows(result.flows, renderer)
            packets += writer.write_many(datas, stamps)
            flows_done += len(result.flows)
            if n >= 100_000 and flows_done % (chunk * 8) == 0:
                print(f"  ... {flows_done}/{n} flows", flush=True)
    elapsed = time.perf_counter() - start
    peak = sampler.stop()
    return {
        "mode": f"stream_w{workers}",
        "workers": workers,
        "fp32": fp32,
        "chunk": chunk,
        "n_flows": n,
        "packets": packets,
        "seconds": round(elapsed, 3),
        "flows_per_second": round(n / elapsed, 3),
        "rss_start_mb": round(rss_start / 1e6, 1),
        "peak_rss_mb": round(peak / 1e6, 1),
        "pcap_bytes": os.path.getsize(out_path),
        "pcap_sha256": _sha256_file(out_path),
    }


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--preset",
        default=os.environ.get("REPRO_BENCH_PRESET", "tiny"),
        choices=sorted(SCALE_PRESETS),
        help="scale preset; default from REPRO_BENCH_PRESET or 'tiny'",
    )
    parser.add_argument(
        "--modes", nargs="*", default=["batch", "stream"],
        choices=["batch", "stream"],
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--workers", nargs="*", type=int, default=[],
        help="also run the sharded streaming tier once per worker count "
             "(mode stream_wN); outputs must be byte-identical across "
             "counts",
    )
    parser.add_argument("--fp64-stream", action="store_true",
                        help="run the stream mode in float64 (parity/debug)")
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent
                    / "BENCH_scale.json"),
    )
    parser.add_argument(
        "--rebaseline", action="store_true",
        help="overwrite the stored baseline with this run's batch numbers",
    )
    args = parser.parse_args(argv)


    spec = SCALE_PRESETS[args.preset]
    print(f"fitting pipeline ({args.preset} preset) ...", flush=True)
    pipeline = _fit_pipeline(spec, seed=args.seed)

    current: dict[str, dict] = {
        "preset": args.preset,
        "infer_mode": "compiled",  # the only engine
        "modes": {},
    }
    mode_plan: list[tuple[str, int | None]] = [
        (mode, None) for mode in args.modes
    ]
    mode_plan.extend((f"stream_w{w}", w) for w in args.workers)
    with tempfile.TemporaryDirectory(prefix="repro-scale-") as tmp:
        for mode, workers in mode_plan:
            out_pcap = os.path.join(tmp, f"{mode}.pcap")
            print(f"\n##### mode: {mode} "
                  f"({spec['n_flows']} flows) #####", flush=True)
            if mode == "batch":
                section = _run_batch(pipeline, spec, args.seed, out_pcap)
            elif workers is not None:
                section = _run_stream_sharded(
                    pipeline, spec, args.seed, out_pcap, workers,
                    fp32=not args.fp64_stream)
            else:
                section = _run_stream(pipeline, spec, args.seed, out_pcap,
                                      fp32=not args.fp64_stream)
            current["modes"][mode] = section
            print(f"##### {mode}: {section['seconds']}s "
                  f"({section['flows_per_second']} flows/s, "
                  f"peak RSS {section['peak_rss_mb']} MB) #####")

    sharded = {w: current["modes"][f"stream_w{w}"] for w in args.workers}
    if sharded:
        hashes = {s["pcap_sha256"] for s in sharded.values()}
        current["workers_pcap_identical"] = len(hashes) == 1
        if 1 in sharded and max(sharded) > 1:
            widest = max(sharded)
            current["workers_speedup"] = {
                "workers": widest,
                "vs_one_worker": round(
                    sharded[widest]["flows_per_second"]
                    / sharded[1]["flows_per_second"], 3),
                "cpu_count": os.cpu_count(),
            }

    path = Path(args.out)
    doc = {}
    if path.exists():
        doc = json.loads(path.read_text())
    entry = doc.setdefault(args.preset, {})
    if ("baseline" not in entry or args.rebaseline) \
            and "batch" in current["modes"]:
        entry["baseline"] = {
            **current["modes"]["batch"],
            "note": "pre-streaming batch path at baselining time",
        }
    entry["current"] = current
    base = entry.get("baseline", {}).get("flows_per_second", 0)
    if base:
        entry["speedup_vs_baseline_batch"] = {
            mode: round(section["flows_per_second"] / base, 3)
            for mode, section in current["modes"].items()
        }
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"\nwrote {path}")
    for mode, x in entry.get("speedup_vs_baseline_batch", {}).items():
        print(f"  {mode}: {x:.2f}x vs baseline batch")
    return 0


if __name__ == "__main__":
    sys.exit(main())
