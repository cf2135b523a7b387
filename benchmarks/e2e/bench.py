#!/usr/bin/env python3
"""End-to-end benchmark: bulk pcap export and open/closed-loop serving.

Run from the repository root::

    python3 benchmarks/e2e/bench.py --workload export_quick --seed 0 \\
        --seconds 15 --trace 0 [--out runs/] [--trace-dir traces/]
    python3 benchmarks/e2e/bench.py            # every workload, one child each

One invocation runs one workload in this (fresh) process: it fits the
workload's model from synthetic flows derived from ``--seed`` (set-up,
repeated and reported as a median), drives the timed phase for
``--seconds``, then checks every packet written (``validate.py``) and
cross-checks outputs against a second generation path.  The last line of
standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` instead runs
the phase twice on fresh models, untraced then with the layer callables
wrapped (``spans.py``), and reports per-layer metrics, the tracing
overhead, and whether both runs wrote identical bytes.  ``--out DIR``
also saves the full result (including the layer table) as
``DIR/<workload>.s<seed>[.trace].json`` for ``compare.py``;
``--trace-dir DIR`` writes the spans as Chrome trace-event JSON.  The
process exits non-zero when any output check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import queue
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from spans import (Target, Tracer, chrome_trace, install, layer_table,
                   uninstall, unattributed)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent

#: engine and cache switches dropped from the environment, so the benchmark
#: always measures the shipped defaults
SCRUBBED_ENV = ("REPRO_INFER", "REPRO_TRAIN", "REPRO_NN_BACKEND",
                "REPRO_NN_THREADS", "REPRO_CACHE_DIR")
#: BLAS/OpenMP thread knobs, pinned to one thread before NumPy loads
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

#: ``scale_smoke.py``'s quick preset: 16-packet flows, where per-flow
#: decode, guidance and per-packet rendering dominate generation
QUICK = dict(max_packets=16, latent_dim=48, hidden=96, blocks=3,
             timesteps=120, train_steps=200, controlnet_steps=80,
             ddim_steps=12, generation_batch=256)
#: short flows, a wide denoiser and many sampling steps: the sampler
#: dominates generation and base training dominates set-up
DEEP = dict(max_packets=4, latent_dim=48, hidden=256, blocks=4,
            timesteps=400, train_steps=200, controlnet_steps=80,
            ddim_steps=50, generation_batch=256)

TRAIN_APPS = ("netflix", "teams")
TRAIN_FLOWS_PER_APP = 16
SETUP_REPS = 3
#: flows per export chunk; equal to ``generation_batch`` so chunk 0 is
#: bitwise one ``generate_raw`` call and each chunk is a latency sample
EXPORT_CHUNK = 256
#: chunks whose pcap bytes are hashed into ``export_sha256``
DIGEST_CHUNKS = 4
WARMUP_S = 2.0
DRAIN_S = 10.0
#: every REFERENCE_EVERY-th served request is regenerated solo
REFERENCE_EVERY = 16

# Salts separating the RNG streams derived from --seed.
GEN_SALT, ARRIVAL_SALT, REQUEST_SALT = 1, 2, 3

COALESCED = "core.pipeline.generate_coalesced"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "export", "open" or "closed"
    model: dict
    cls: str
    rate: float = 0.0  # open loop: requests per second
    clients: int = 0  # closed loop: requests kept outstanding


WORKLOADS = {
    w.name: w for w in (
        Workload("export_quick", "export", QUICK, "netflix"),
        Workload("export_deep", "export", DEEP, "teams"),
        Workload("serve_light", "open", QUICK, "netflix", rate=50.0),
        Workload("serve_saturated", "closed", QUICK, "netflix", clients=64),
    )
}


def _pin_environment(env) -> None:
    for name in SCRUBBED_ENV:
        env.pop(name, None)
    for name in BLAS_ENV:
        env[name] = "1"


# -- set-up -------------------------------------------------------------------

@dataclass
class Model:
    pipeline: object
    service: object | None
    proto: int
    seconds: float


def setup(wl: Workload, seed: int) -> Model:
    """Synthesise training flows and fit (and start a service for serving)."""
    from repro.core.pipeline import PipelineConfig, TextToTrafficPipeline
    from repro.serve.service import GenerationService
    from repro.traffic import dataset

    start = time.perf_counter()
    flows = []
    for app in TRAIN_APPS:
        flows.extend(dataset.generate_app_flows(
            app, TRAIN_FLOWS_PER_APP, seed=seed))
    pipeline = TextToTrafficPipeline(
        PipelineConfig(**wl.model, seed=seed)).fit(flows)
    service = None
    if wl.kind != "export":
        # `repro serve` defaults: 256-flow batches, 20 ms wait, queue 64,
        # float64.
        service = GenerationService(pipeline=pipeline, server_seed=seed)
    seconds = time.perf_counter() - start
    # The class's dominant protocol, by training flows: Teams data keeps
    # an odd TCP fallback flow, yet generated Teams flows must be UDP.
    protos = Counter(pkt.ip.proto for f in flows if f.label == wl.cls
                     for pkt in f.packets)
    return Model(pipeline, service, protos.most_common(1)[0][0], seconds)


# -- shared helpers -----------------------------------------------------------

def render_pcap(flows) -> tuple[bytes, int]:
    """A response body, rendered as ``repro.serve.http`` renders one."""
    from repro.net import packet
    from repro.net.pcap import PcapWriter

    buf = io.BytesIO()
    writer = PcapWriter(buf)
    datas, stamps = packet.render_flows(flows, packet.PacketRenderer())
    writer.write_many(datas, stamps)
    return buf.getvalue(), len(datas)


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


@dataclass
class Phase:
    """What one timed phase delivered, plus the checks run after it."""

    start: float
    end: float
    flows: int  # flows delivered by the whole phase
    flows_per_s: float
    latencies: list[float]  # seconds
    attempted: int
    failed: int = 0
    peak_rss_mb: float = 0.0
    digests: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    queue_waits: list[float] = field(default_factory=list)


# -- export -------------------------------------------------------------------

def run_export(model: Model, wl: Workload, seed: int, seconds: float,
               workdir: Path, tracer) -> Phase:
    """``repro generate --stream-pcap --fp32`` until ``seconds`` pass."""
    import numpy as np

    from repro import perf
    from repro.net import packet
    from repro.net.pcap import PcapWriter

    path = workdir / f"{wl.name}.pcap"
    rng = np.random.default_rng([seed, GEN_SALT])
    renderer = packet.PacketRenderer()
    sizes: list[int] = []
    latencies: list[float] = []
    offsets: list[int] = []
    perf.reset()
    with open(path, "wb") as f:
        writer = PcapWriter(f)
        start = last = time.perf_counter()
        stream = model.pipeline.generate_stream(
            wl.cls, 1 << 40, chunk=EXPORT_CHUNK, rng=rng, dtype=np.float32)
        try:
            for result in stream:
                datas, stamps = packet.render_flows(result.flows, renderer)
                writer.write_many(datas, stamps)
                now = time.perf_counter()
                latencies.append(now - last)
                last = now
                sizes.extend(len(flow.packets) for flow in result.flows)
                offsets.append(f.tell())
                if now - start >= seconds:
                    break
        finally:
            stream.close()
    # The steady-state rate: the median chunk moves less than the total
    # when the shared host's speed changes for a few seconds.
    phase = Phase(start=start, end=last, flows=len(sizes),
                  flows_per_s=EXPORT_CHUNK / statistics.median(latencies),
                  latencies=latencies, attempted=len(sizes),
                  peak_rss_mb=_peak_rss_mb())
    phase.info.update(path=path, sizes=sizes, offsets=offsets,
                      counters=perf.snapshot()["counters"])
    return phase


def check_export(model: Model, wl: Workload, seed: int, phase: Phase) -> None:
    """Validate every packet; chunk 0 must equal a ``generate_raw`` call."""
    import numpy as np

    from validate import validate_pcap

    path, sizes, offsets = (phase.info.pop(k)
                            for k in ("path", "sizes", "offsets"))
    data = path.read_bytes()
    path.unlink()
    start = time.perf_counter()
    report = validate_pcap(data, sizes, model.proto)
    phase.info["validate_s"] = time.perf_counter() - start
    reference = model.pipeline.generate_raw(
        wl.cls, EXPORT_CHUNK, rng=np.random.default_rng([seed, GEN_SALT]),
        dtype=np.float32)
    body, _ = render_pcap(reference.flows)
    matches = body == data[:offsets[0]]
    covered = min(DIGEST_CHUNKS, len(offsets))
    phase.digests["export_sha256"] = hashlib.sha256(
        data[:offsets[covered - 1]]).hexdigest()
    phase.digests["export_sha256_flows"] = covered * EXPORT_CHUNK
    phase.failed = report.failed_flows + (0 if matches else EXPORT_CHUNK)
    phase.info.update(
        packets=report.packets,
        failed_packets=report.failed_packets,
        failure_reasons=dict(report.reasons),
        reference_match=matches,
        packets_per_flow=report.packets / max(report.flows, 1),
        pcap_bytes=len(data),
    )


# -- serving ------------------------------------------------------------------

class _Serve:
    """One serving phase driven from the calling thread alone."""

    def __init__(self, model: Model, wl: Workload, seed: int, spool, tracer):
        import numpy as np
        from repro.serve import service

        self.service = model.service
        self.request = service.GenerateRequest
        self.refusals = (service.ServiceOverloaded, service.ServiceClosed)
        self.wl = wl
        self.spool = spool
        self.tracer = tracer
        self.rid0 = int(np.random.default_rng([seed, REQUEST_SALT])
                        .integers(1 << 40))
        self.done: queue.SimpleQueue = queue.SimpleQueue()
        self.due: dict[int, float] = {}
        self.submitted: dict[int, float] = {}
        self.completed: dict[int, float] = {}
        self.responses: dict[int, tuple[int, int, int]] = {}
        self.batch_start: dict[int, float] = {}
        self.errors: Counter = Counter()
        self.outstanding = 0

    def send(self, i: int, due: float) -> None:
        self.due[i] = due
        self.submitted[i] = time.perf_counter()
        request = self.request(request_id=self.rid0 + i,
                               class_name=self.wl.cls, count=1)
        try:
            future = self.service.submit(request)
        except self.refusals as exc:
            self.errors[type(exc).__name__] += 1
            return
        self.outstanding += 1
        last_start = self.tracer.last_start
        # Runs on the dispatcher thread right after the coalesced call
        # that served this request, so last_start is that call's start.
        future.add_done_callback(lambda f: self.done.put(
            (i, time.perf_counter(), f, last_start.get(COALESCED))))

    def wait(self, timeout: float):
        with self.tracer.span("bench.wait"):
            try:
                return self.done.get(timeout=max(timeout, 0.0))
            except queue.Empty:
                return None

    def receive(self, item) -> None:
        i, when, future, batch_start = item
        self.outstanding -= 1
        exc = future.exception()
        if exc is not None:
            self.errors[type(exc).__name__] += 1
            return
        self.completed[i] = when
        if batch_start is not None:
            self.batch_start[i] = batch_start
        body, packets = render_pcap(future.result().flows)
        with self.tracer.span("bench.spool"):
            self.responses[i] = (self.spool.tell(), len(body), packets)
            self.spool.write(body)

    def drain(self, deadline: float) -> None:
        while self.outstanding > 0:
            item = self.wait(deadline - time.perf_counter())
            if item is None:
                break
            self.receive(item)

    def open_loop(self, rate: float, seconds: float, seed: int):
        """Poisson arrivals: ``rate * seconds`` uniform times per window."""
        import numpy as np

        rng = np.random.default_rng([seed, ARRIVAL_SALT])
        warm = np.sort(rng.uniform(0.0, WARMUP_S, round(rate * WARMUP_S)))
        timed = WARMUP_S + np.sort(rng.uniform(0.0, seconds,
                                               round(rate * seconds)))
        late = []
        t0 = time.perf_counter()
        for i, offset in enumerate(np.concatenate([warm, timed])):
            target = t0 + float(offset)
            while (item := self.wait(target - time.perf_counter())):
                self.receive(item)
            late.append(time.perf_counter() - target)
            self.send(i, target)
        window = (t0 + WARMUP_S, t0 + WARMUP_S + seconds)
        self.drain(window[1] + DRAIN_S)
        late_timed = late[len(warm):]
        return t0, window, range(len(warm), len(late)), {
            "loadgen_late_ms_p50": percentile(late_timed, 50) * 1e3,
            "loadgen_late_ms_p99": percentile(late_timed, 99) * 1e3,
        }

    def closed_loop(self, clients: int, seconds: float):
        """``clients`` requests outstanding; a completion sends the next.

        Every ready completion is replaced before any response renders.
        Replacing one and rendering one in turn would space submissions
        by a render time, close to the dispatcher's 2.5 ms grace window,
        so batches would split at random into one- and two-batch waits.
        """
        t0 = time.perf_counter()
        window = (t0 + WARMUP_S, t0 + WARMUP_S + seconds)
        for i in range(clients):
            self.send(i, time.perf_counter())
        sent = clients
        while self.outstanding > 0 and time.perf_counter() < window[1]:
            item = self.wait(window[1] - time.perf_counter())
            if item is None:
                break
            ready = [item]
            while (item := self.wait(0.0)):
                ready.append(item)
            now = time.perf_counter()
            if now < window[1]:
                for _ in ready:
                    self.send(sent, now)
                    sent += 1
            for item in ready:
                self.receive(item)
        self.drain(window[1] + DRAIN_S)
        timed = [i for i in range(sent) if self.due[i] >= window[0]]
        return t0, window, timed, {}


def run_serve(model: Model, wl: Workload, seed: int, seconds: float,
              workdir: Path, tracer) -> Phase:
    from repro import perf

    spool_path = workdir / f"{wl.name}.responses"
    perf.reset()
    with open(spool_path, "wb") as spool:
        loop = _Serve(model, wl, seed, spool, tracer)
        if wl.kind == "open":
            t0, window, timed, info = loop.open_loop(wl.rate, seconds, seed)
        else:
            t0, window, timed, info = loop.closed_loop(wl.clients, seconds)
        end = time.perf_counter()
    peak = _peak_rss_mb()
    model.service.shutdown(drain=True)
    in_window = sorted(t for t in loop.completed.values()
                       if window[0] <= t <= window[1])
    latencies = [loop.completed[i] - loop.due[i] for i in timed
                 if i in loop.completed]
    sent = len(loop.due)
    unfinished = sent - len(loop.completed) - sum(loop.errors.values())
    phase = Phase(
        start=t0, end=end, flows=len(loop.completed),
        flows_per_s=(len(in_window) / (in_window[-1] - window[0])
                     if len(in_window) > 1 else 0.0),
        latencies=latencies, attempted=sent,
        failed=sent - len(loop.completed), peak_rss_mb=peak,
        queue_waits=[loop.batch_start[i] - loop.submitted[i]
                     for i in loop.batch_start],
    )
    phase.info.update(info)
    phase.info.update(
        spool=spool_path, responses=loop.responses, rid0=loop.rid0,
        errors=dict(loop.errors), unfinished=unfinished,
        counters=perf.snapshot()["counters"],
        latency_total_s=sum(loop.completed[i] - loop.due[i]
                            for i in loop.batch_start),
    )
    return phase


def check_serve(model: Model, wl: Workload, seed: int, phase: Phase) -> None:
    """Validate every response; every 16th must equal a solo generation."""
    from repro.serve.service import request_rng
    from validate import Report, validate_pcap

    spool = phase.info.pop("spool")
    responses = phase.info.pop("responses")
    data = spool.read_bytes()
    spool.unlink()
    report = Report()
    bad = set()
    start = time.perf_counter()
    for i, (offset, length, packets) in responses.items():
        one = validate_pcap(data[offset:offset + length], [packets],
                            model.proto)
        report.merge(one)
        if not one.ok:
            bad.add(i)
    phase.info["validate_s"] = time.perf_counter() - start
    digests = {}
    mismatches = 0
    for i in sorted(responses):
        if i % REFERENCE_EVERY:
            continue
        offset, length, _ = responses[i]
        rid = phase.info["rid0"] + i
        body = data[offset:offset + length]
        solo = model.pipeline.generate_raw(wl.cls, 1,
                                           rng=request_rng(seed, rid))
        if render_pcap(solo.flows)[0] != body:
            bad.add(i)
            mismatches += 1
        digests[str(rid)] = hashlib.sha256(body).hexdigest()
    phase.digests["response_sha256"] = digests
    phase.failed += len(bad)
    phase.info.update(
        packets=report.packets,
        failed_packets=report.failed_packets,
        failure_reasons=dict(report.reasons),
        reference_checked=len(digests),
        reference_mismatches=mismatches,
        packets_per_flow=report.packets / max(report.flows, 1),
    )


# -- one workload -------------------------------------------------------------

def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_phase(model, wl, seed, seconds, workdir, tracer) -> Phase:
    """The timed phase; its outputs are checked by :func:`check_phase`."""
    run = run_export if wl.kind == "export" else run_serve
    phase = run(model, wl, seed, seconds, workdir, tracer)
    # Tails are recorded, not gated: on a shared host their run-to-run
    # spread exceeds any bound a regression gate could use.
    lat = phase.latencies
    phase.info.update(
        latency_samples=len(lat),
        latency_p95_ms=percentile(lat, 95) * 1e3 if lat else None,
        latency_p99_ms=percentile(lat, 99) * 1e3 if lat else None,
        raw_latency_ms=[round(x * 1e3, 3) for x in lat],
    )
    return phase


def check_phase(model, wl, seed, phase: Phase) -> Phase:
    check = check_export if wl.kind == "export" else check_serve
    check(model, wl, seed, phase)
    return phase


def end_to_end(phase: Phase, setup_seconds: list[float]) -> dict:
    if not phase.latencies or phase.flows_per_s <= 0:
        raise RuntimeError("the timed phase delivered nothing")
    return {
        "setup_s": (statistics.median(setup_seconds), "s"),
        "flows_per_s": (phase.flows_per_s, "flows/s"),
        "latency_p50_ms": (percentile(phase.latencies, 50) * 1e3, "ms"),
        "peak_rss_mb": (phase.peak_rss_mb, "MB"),
    }


def _engines() -> dict:
    """The inference/training engines in force (absent once removed)."""
    import importlib

    out = {}
    for module, fn in (("repro.core.infer", "infer_mode"),
                       ("repro.core.train", "train_mode")):
        getter = getattr(importlib.import_module(module), fn, None)
        out[fn] = getter() if getter is not None else "absent"
    return out


def _spare_setup(wl: Workload, seed: int) -> float:
    """Seconds of one set-up whose model is then discarded."""
    model = setup(wl, seed)
    if model.service is not None:
        model.service.shutdown(drain=False)
    return model.seconds


def run_plain(wl: Workload, seed: int, seconds: float, workdir: Path) -> dict:
    """The end-to-end run: median set-up, one untraced phase, checks."""
    setups = [_spare_setup(wl, seed) for _ in range(SETUP_REPS - 1)]
    model = setup(wl, seed)
    setups.append(model.seconds)
    phase = check_phase(model, wl, seed, run_phase(
        model, wl, seed, seconds, workdir, Tracer(enabled=False)))
    metrics = end_to_end(phase, setups)
    return {
        "correct": phase.failed == 0,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": metrics,
        "digests": phase.digests,
        "info": {**phase.info, "setup_s_samples": setups},
    }


# -- traced run ---------------------------------------------------------------

#: callables wrapped while the traced set-up and phase run; a module-level
#: function is wrapped where its caller looks it up
_PIPE = ("repro.core.pipeline", "TextToTrafficPipeline")
_AE = ("repro.core.autoencoder", "LatentCodec")
SETUP_TARGETS = (
    Target("repro.traffic.dataset", None, "generate_app_flows",
           "traffic.dataset"),
    Target("repro.core.pipeline", None, "encode_flows",
           "nprint.encoder.encode"),
    Target("repro.core.pipeline", None, "interarrival_channels",
           "nprint.encoder.encode"),
    Target(*_AE, "fit", "core.autoencoder.fit"),
    Target(*_AE, "encode", "core.autoencoder.fit"),
    Target(*_PIPE, "_train_base", "core.pipeline.train_base"),
    Target(*_PIPE, "_train_controlnet", "core.pipeline.train_controlnet"),
)
PHASE_TARGETS = (
    Target(*_PIPE, "sample_latents", "core.pipeline.sample"),
    Target(*_PIPE, "generate_coalesced", COALESCED),
    Target(*_PIPE, "_eps_model", "core.pipeline.eps_model"),
    Target("repro.core.ddim", "DDIMSampler", "sample", "core.ddim.sample"),
    Target("repro.core.denoiser", "ConditionalDenoiser", "forward",
           "core.denoiser.forward"),
    Target("repro.core.infer", "CompiledDenoiser", "forward",
           "core.denoiser.forward"),
    Target(*_PIPE, "_finalize_latents", "core.pipeline.finalize"),
    Target(*_AE, "decode", "core.autoencoder.decode"),
    Target("repro.core.pipeline", None, "apply_structure_guidance",
           "core.controlnet.guidance"),
    Target("repro.core.pipeline", None, "matrix_to_flow",
           "core.postprocess.matrix_to_flow"),
    Target("repro.core.postprocess", None, "repair_matrix",
           "core.postprocess.repair_matrix"),
    Target("repro.core.postprocess", None, "decode_flow",
           "nprint.decoder.decode_flow"),
    Target("repro.net.packet", None, "render_flows", "net.packet.render"),
    Target("repro.net.pcap", "PcapWriter", "write_many", "net.pcap.write"),
    Target("repro.serve.service", "GenerationService", "submit",
           "serve.service.submit"),
)

#: per-layer metric -> span names whose self time it sums, per flow
PER_FLOW = {
    "core.pipeline.sample_us_per_flow": ("core.pipeline.sample", COALESCED),
    "core.pipeline.eps_model_us_per_flow": ("core.pipeline.eps_model",),
    "core.ddim.sample_us_per_flow": ("core.ddim.sample",),
    "core.denoiser.forward_us_per_flow": ("core.denoiser.forward",),
    "core.pipeline.finalize_us_per_flow": ("core.pipeline.finalize",),
    "core.autoencoder.decode_us_per_flow": ("core.autoencoder.decode",),
    "core.controlnet.guidance_us_per_flow": ("core.controlnet.guidance",),
    "core.postprocess.matrix_to_flow_us_per_flow":
        ("core.postprocess.matrix_to_flow",),
    "core.postprocess.repair_matrix_us_per_flow":
        ("core.postprocess.repair_matrix",),
    "nprint.decoder.decode_flow_us_per_flow": ("nprint.decoder.decode_flow",),
    "net.packet.render_us_per_flow": ("net.packet.render",),
    "net.pcap.write_us_per_flow": ("net.pcap.write",),
}
#: per-layer metric -> set-up span names whose self time it sums
SETUP_SECONDS = {
    "traffic.dataset_s": ("traffic.dataset",),
    "nprint.encoder.encode_s": ("nprint.encoder.encode",),
    "core.autoencoder.fit_s": ("core.autoencoder.fit",),
    "core.pipeline.train_base_s": ("core.pipeline.train_base",),
    "core.pipeline.train_controlnet_s": ("core.pipeline.train_controlnet",),
}


def _self_time(table: dict, names) -> float:
    return sum(table[n]["self_s"] for n in names if n in table)


def per_layer(wl: Workload, tracer, setup_window, phase: Phase,
              plain: Phase) -> tuple[dict, dict, dict]:
    """Per-layer metrics, and the set-up and phase layer tables."""
    main = threading.get_ident()
    setup_table = layer_table(tracer.spans, *setup_window)
    table = layer_table(tracer.spans, phase.start, phase.end)
    flows = max(phase.flows, 1)
    metrics = {name: (_self_time(setup_table, spans), "s")
               for name, spans in SETUP_SECONDS.items()}
    steps = wl.model["train_steps"] + wl.model["controlnet_steps"]
    train = _self_time(setup_table, ("core.pipeline.train_base",
                                     "core.pipeline.train_controlnet"))
    metrics["core.pipeline.train_step_ms"] = (train / steps * 1e3, "ms")
    metrics["bench.setup_unattributed_s"] = (
        unattributed(tracer.spans, main, *setup_window), "s")
    for name, spans in PER_FLOW.items():
        metrics[name] = (_self_time(table, spans) / flows * 1e6, "us/flow")
    counters = phase.info["counters"]
    forwards = counters.get("denoiser.forward", 0) + counters.get(
        "infer.forward", 0)
    ddim = table.get("core.ddim.sample", {"total_s": 0.0})["total_s"]
    metrics["core.ddim.ms_per_step"] = (ddim / max(forwards, 1) * 1e3, "ms")
    metrics["core.ddim.rows_per_call"] = (
        counters.get("pipeline.sampled_flows", 0)
        / max(counters.get("pipeline.sample_batches", 0), 1), "rows")
    wall = phase.end - phase.start
    coalesced = table.get(COALESCED, {"total_s": 0.0})["total_s"]
    batches = counters.get("serve.batches", 0)
    metrics["serve.service.queue_wait_share"] = (
        sum(phase.queue_waits) / phase.info["latency_total_s"]
        if phase.queue_waits else 0.0, "ratio")
    metrics["serve.service.busy_ratio"] = (coalesced / wall, "ratio")
    metrics["serve.service.batch_requests_mean"] = (
        counters.get("serve.batched_requests", 0) / batches
        if batches else 0.0, "requests")
    metrics["bench.unattributed_ratio"] = (
        unattributed(tracer.spans, main, phase.start, phase.end) / wall,
        "ratio")
    if wl.kind == "open":  # fixed offered load: tracing shows as latency
        overhead = (percentile(phase.latencies, 50)
                    / percentile(plain.latencies, 50) - 1)
    else:
        overhead = plain.flows_per_s / phase.flows_per_s - 1
    metrics["bench.trace_overhead"] = (overhead, "ratio")
    metrics["bench.validate_s"] = (phase.info["validate_s"], "s")
    return metrics, setup_table, table


def run_traced(wl: Workload, seed: int, seconds: float, workdir: Path,
               trace_dir: Path | None) -> dict:
    """Untraced then traced phase on fresh models; per-layer metrics."""
    model = setup(wl, seed)
    plain = check_phase(model, wl, seed, run_phase(
        model, wl, seed, seconds, workdir, Tracer(enabled=False)))
    model = None

    tracer = Tracer()
    undo, absent = install(tracer, SETUP_TARGETS)
    try:
        setup_start = time.perf_counter()
        model = setup(wl, seed)
        setup_window = (setup_start, time.perf_counter())
    finally:
        uninstall(undo)
    undo, more_absent = install(tracer, PHASE_TARGETS)
    try:
        phase = run_phase(model, wl, seed, seconds, workdir, tracer)
    finally:
        uninstall(undo)
    check_phase(model, wl, seed, phase)
    absent += more_absent
    metrics, setup_table, table = per_layer(wl, tracer, setup_window, phase,
                                            plain)
    same_bytes = _same_outputs(plain.digests, phase.digests)
    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
        (trace_dir / f"{wl.name}.trace.json").write_text(json.dumps(
            chrome_trace(tracer.spans, setup_window[0])))
    failed = phase.failed + plain.failed
    return {
        "correct": failed == 0 and same_bytes,
        "attempted": phase.attempted + plain.attempted,
        "failed": failed,
        "metrics": metrics,
        "digests": phase.digests,
        "info": {
            "traced": phase.info, "untraced": plain.info,
            "traced_matches_untraced": same_bytes,
            "absent_targets": absent,
            "setup_layers": setup_table, "phase_layers": table,
            "phase_wall_s": phase.end - phase.start,
        },
    }


def _same_outputs(a: dict, b: dict) -> bool:
    """Do two runs at one seed agree on every output they both hashed?"""
    if "export_sha256" in a:
        return (a["export_sha256"] == b["export_sha256"]
                or a["export_sha256_flows"] != b["export_sha256_flows"])
    ra, rb = a["response_sha256"], b["response_sha256"]
    return all(ra[k] == rb[k] for k in ra.keys() & rb.keys())


# -- command line -------------------------------------------------------------

def _print_result(wl: Workload, result: dict, trace: bool) -> None:
    print(f"# {wl.name}: {'per-layer' if trace else 'end-to-end'} metrics")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:48s} {value:14.4f} {unit}")
    if trace:
        print(f"# layer table (phase wall {result['info']['phase_wall_s']:.3f}"
              f" s): name, calls, total s, self s")
        rows = sorted(result["info"]["phase_layers"].items(),
                      key=lambda kv: -kv[1]["self_s"])
        for name, row in rows:
            print(f"{name:40s} {row['calls']:8d} {row['total_s']:10.4f} "
                  f"{row['self_s']:10.4f}")
    print(f"# correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")


def run_one(args) -> int:
    _pin_environment(os.environ)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    wl = WORKLOADS[args.workload]
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=base))
    try:
        if args.trace:
            result = run_traced(wl, args.seed, args.seconds, workdir,
                                args.trace_dir)
        else:
            result = run_plain(wl, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass  # another run still uses it
    result["info"].update(_engines())
    _print_result(wl, result, args.trace)
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result["metrics"].items()}
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        suffix = ".trace" if args.trace else ""
        doc = {"workload": wl.name, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               **{k: result[k] for k in ("correct", "attempted", "failed")},
               "metrics": metrics, "digests": result["digests"],
               "info": result["info"]}
        (args.out / f"{wl.name}.s{args.seed}{suffix}.json").write_text(
            json.dumps(doc, indent=1, default=str) + "\n")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own child process; non-zero if any fails."""
    env = dict(os.environ)
    _pin_environment(env)
    failed = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.out is not None:
            cmd += ["--out", str(args.out)]
        if args.trace_dir is not None:
            cmd += ["--trace-dir", str(args.trace_dir)]
        proc = subprocess.run(cmd, env=env, cwd=ROOT)
        if proc.returncode != 0:
            failed.append(name)
    print(f"# workloads failed: {', '.join(failed)}" if failed
          else "# all workloads correct")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=["all", *WORKLOADS],
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for the full result JSON")
    parser.add_argument("--trace-dir", type=Path, default=None,
                        help="directory for Chrome trace-event JSON "
                             "(with --trace 1)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
