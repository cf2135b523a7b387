"""Command-line interface for the library.

Subcommands::

    python -m repro.cli dataset  --scale 0.01 --out real.pcap
    python -m repro.cli fit      --in real.pcap --model model.npz
    python -m repro.cli generate --model model.npz --class netflix -n 20 \
                                 --out synthetic.pcap
    python -m repro.cli render   --in synthetic.pcap --out flow.png
    python -m repro.cli stats    --in synthetic.pcap
    python -m repro.cli replay   --in synthetic.pcap
    python -m repro.cli serve    --model model.npz --port 8080

``dataset`` writes labelled flows from the workload generator (labels are
stored in a sidecar ``.labels`` file, one ``start_time label`` line per
flow, since pcap itself carries no labels).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np


def _cmd_dataset(args: argparse.Namespace) -> int:
    from repro.net.pcap import write_pcap
    from repro.traffic.dataset import build_service_recognition_dataset

    dataset = build_service_recognition_dataset(scale=args.scale,
                                                seed=args.seed)
    packets = sorted(
        (p for f in dataset.flows for p in f.packets),
        key=lambda p: p.timestamp,
    )
    n = write_pcap(args.out, packets)
    labels_path = Path(args.out).with_suffix(".labels")
    with open(labels_path, "w") as f:
        for flow in dataset.flows:
            f.write(f"{flow.start_time:.6f} {flow.label}\n")
    print(f"wrote {n} packets ({len(dataset.flows)} flows) to {args.out}")
    print(f"labels sidecar: {labels_path}")
    return 0


def _load_labelled_flows(path: str):
    from repro.net.flow import assemble_flows
    from repro.net.pcap import read_pcap

    flows = assemble_flows(read_pcap(path))
    labels_path = Path(path).with_suffix(".labels")
    if labels_path.exists():
        table = {}
        with open(labels_path) as f:
            for line in f:
                start, label = line.split()
                table[round(float(start), 6)] = label
        for flow in flows:
            flow.label = table.get(round(flow.start_time, 6), "")
        flows = [f for f in flows if f.label]
    return flows


def _cmd_fit(args: argparse.Namespace) -> int:
    from repro import perf
    from repro.core.pipeline import PipelineConfig, TextToTrafficPipeline
    from repro.core.serialization import save_pipeline

    if args.perf:
        perf.reset()
    flows = _load_labelled_flows(args.infile)
    if not flows:
        print("no labelled flows found (missing .labels sidecar?)",
              file=sys.stderr)
        return 1
    config = PipelineConfig(
        max_packets=args.max_packets,
        train_steps=args.steps,
        controlnet_steps=max(args.steps // 3, 50),
        seed=args.seed,
    )
    pipeline = TextToTrafficPipeline(config)
    print(f"fitting on {len(flows)} flows, "
          f"{len(set(f.label for f in flows))} classes ...")
    memmap_dir = None
    if args.memmap_fit:
        import shutil
        import tempfile

        memmap_dir = tempfile.mkdtemp(prefix="repro-fit-memmap-")
    try:
        pipeline.fit(flows, verbose=True, memmap_dir=memmap_dir)
    finally:
        if memmap_dir is not None:
            shutil.rmtree(memmap_dir, ignore_errors=True)
    save_pipeline(pipeline, args.model)
    print(f"saved model to {args.model}")
    if args.perf:
        print()
        print(perf.render("fit perf"))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro import perf
    from repro.core.serialization import load_pipeline
    from repro.net.packet import render_flows
    from repro.net.pcap import PcapWriter

    if args.perf:
        perf.reset()
    pipeline = load_pipeline(args.model)
    if args.class_name not in pipeline.codebook.classes:
        print(f"unknown class {args.class_name!r}; model knows "
              f"{pipeline.codebook.classes}", file=sys.stderr)
        return 1
    dtype = np.float32 if args.fp32 else None
    rng = np.random.default_rng(args.seed)
    if args.stream_pcap:
        # Streaming tier: sample -> decode -> render -> append, one chunk
        # at a time, so peak memory is bounded by the chunk size instead
        # of the flow count.  Records are written flow-major (flows are
        # generated in order; packets within a flow are already sorted),
        # unlike the batch path below which sorts all packets globally by
        # timestamp — downstream tools that need a globally ordered
        # capture should re-sort, e.g. ``reordercap``.
        chunk = args.chunk if args.chunk > 0 else None
        flow_count = 0
        packet_count = 0
        # --workers switches to deterministic sharded mode: per-chunk
        # seeds derived from --seed, worker processes, flows-only results.
        stream_kwargs = (
            dict(workers=args.workers, seed=args.seed, yield_arrays=False)
            if args.workers > 0
            else dict(rng=rng)
        )
        with PcapWriter(open(args.out, "wb")) as writer:
            for result in pipeline.generate_stream(
                args.class_name, args.count, chunk=chunk,
                state_repair=args.state_repair, dtype=dtype,
                **stream_kwargs,
            ):
                datas, stamps = render_flows(result.flows)
                packet_count += writer.write_many(datas, stamps)
                flow_count += len(result.flows)
        print(f"generated {flow_count} {args.class_name} flows "
              f"({packet_count} packets, streamed) -> {args.out}")
    else:
        flows = pipeline.generate_raw(
            args.class_name, args.count,
            state_repair=args.state_repair,
            rng=rng,
            dtype=dtype,
        ).flows
        # One capture ordered by timestamp; ties keep flow-major order.
        datas, stamps = render_flows(flows)
        order = np.argsort(stamps, kind="stable")
        with PcapWriter(open(args.out, "wb")) as writer:
            n = writer.write_many([datas[i] for i in order], stamps[order])
        print(f"generated {len(flows)} {args.class_name} flows "
              f"({n} packets) -> {args.out}")
    if args.perf:
        print()
        print(perf.render("generate perf"))
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    from repro.imaging.colormap import ternary_to_rgb
    from repro.imaging.png import write_png
    from repro.net.flow import assemble_flows
    from repro.net.pcap import read_pcap
    from repro.nprint.encoder import encode_flow

    flows = assemble_flows(read_pcap(args.infile))
    if not flows:
        print("no flows in capture", file=sys.stderr)
        return 1
    flow = flows[min(args.flow_index, len(flows) - 1)]
    matrix = encode_flow(flow, args.max_packets)
    write_png(args.out, ternary_to_rgb(matrix))
    print(f"rendered flow {args.flow_index} ({len(flow)} packets) "
          f"-> {args.out}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.net.flow import assemble_flows
    from repro.net.ipaddr import ip_to_str
    from repro.net.pcap import read_pcap

    packets = read_pcap(args.infile)
    flows = assemble_flows(packets)
    protos: dict[int, int] = {}
    for p in packets:
        protos[p.ip.proto] = protos.get(p.ip.proto, 0) + 1
    print(f"packets: {len(packets)}   flows: {len(flows)}")
    print(f"protocols: { {k: v for k, v in sorted(protos.items())} }")
    if flows:
        sizes = [len(f) for f in flows]
        print(f"packets/flow: min {min(sizes)} "
              f"median {int(np.median(sizes))} max {max(sizes)}")
        first = flows[0].packets[0]
        print(f"first flow: {ip_to_str(first.ip.src_ip)} -> "
              f"{ip_to_str(first.ip.dst_ip)} proto {first.ip.proto}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.net.pcap import read_pcap
    from repro.net.replay import ReplayEngine

    packets = read_pcap(args.infile)
    report = ReplayEngine().replay(packets)
    print(f"packets: {report.total_packets}   "
          f"flagged: {report.flagged_packets}   "
          f"compliance: {report.compliance:.3f}")
    for nf, count in report.flags_by_nf.items():
        print(f"  {nf}: {count}")
    return 0 if report.compliance == 1.0 else 2


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.serve.http import TrafficServer
    from repro.serve.service import GenerationService
    from repro.serve.store import ModelStore

    store = None
    default_model = None
    pipeline = None
    if args.store_dir:
        store = ModelStore(args.store_dir, capacity=args.store_capacity)
        if args.model:
            from repro.core.serialization import import_pipeline_archive

            path = import_pipeline_archive(args.model, args.store_dir)
            default_model = path.stem[len("pipeline-shard-"):]
            print(f"model {args.model} -> store digest {default_model}")
    elif args.model:
        from repro.core.serialization import load_pipeline

        pipeline = load_pipeline(args.model)
    else:
        print("need --model and/or --store-dir", file=sys.stderr)
        return 1

    service = GenerationService(
        pipeline=pipeline,
        store=store,
        default_model=default_model,
        server_seed=args.server_seed,
        max_batch_flows=args.max_batch,
        max_wait=args.max_wait_ms / 1e3,
        max_queue=args.max_queue,
        default_timeout=args.timeout,
        dtype=np.float32 if args.fp32 else None,
    )
    server = TrafficServer((args.host, args.port), service, store=store)

    draining = {"flag": False}

    def _drain(signum, frame):
        if draining["flag"]:
            return
        draining["flag"] = True
        print("\ndraining (serving queued requests, refusing new) ...",
              flush=True)
        service.begin_drain()
        # Stop the accept loop from another thread: shutdown() blocks
        # until serve_forever exits, which a signal handler must not do
        # inline on the serving process's main thread.
        import threading

        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _drain)
    signal.signal(signal.SIGINT, _drain)

    host, port = server.server_address[:2]
    print(f"serving on http://{host}:{port}  "
          f"(seed {service.server_seed}, max batch "
          f"{service.max_batch_flows} flows, queue {args.max_queue})")
    try:
        server.serve_forever()
    finally:
        service.shutdown(drain=True)
        server.server_close()
    print("drained; bye")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dataset", help="generate the Table 1 workload")
    p.add_argument("--scale", type=float, default=0.005)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_dataset)

    p = sub.add_parser("fit", help="fine-tune the pipeline on a capture")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--max-packets", type=int, default=16)
    p.add_argument("--steps", type=int, default=600)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--memmap-fit", action="store_true",
                   help="stream training matrices through on-disk "
                        "memmaps instead of RAM (low-memory fit tier)")
    p.add_argument("--perf", action="store_true",
                   help="print stage timers and counters afterwards")
    p.set_defaults(fn=_cmd_fit)

    p = sub.add_parser("generate", help="text-to-traffic generation")
    p.add_argument("--model", required=True)
    p.add_argument("--class", dest="class_name", required=True)
    p.add_argument("-n", "--count", type=int, default=10)
    p.add_argument("--state-repair", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--stream-pcap", action="store_true",
                   help="stream chunks straight to the pcap (bounded "
                        "memory, flow-major record order)")
    p.add_argument("--workers", type=int, default=0,
                   help="generation worker processes for --stream-pcap; "
                        "0 = sequential, N >= 1 = sharded mode with "
                        "deterministic per-chunk seeds (output is "
                        "identical for every N)")
    p.add_argument("--chunk", type=int, default=0,
                   help="flows per streamed chunk; 0 = 4x the model's "
                        "generation batch")
    p.add_argument("--fp32", action="store_true",
                   help="run the denoiser stack in float32 (fast "
                        "inference tier)")
    p.add_argument("--perf", action="store_true",
                   help="print stage timers and counters afterwards")
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("render", help="render a flow as an nprint image")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--flow-index", type=int, default=0)
    p.add_argument("--max-packets", type=int, default=64)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_render)

    p = sub.add_parser("stats", help="summarise a capture")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("replay", help="replay a capture through stateful NFs")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(fn=_cmd_replay)

    p = sub.add_parser(
        "serve",
        help="long-lived generation service (batched, deterministic)")
    p.add_argument("--model", default=None,
                   help="pipeline archive to serve (see 'fit')")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080)
    p.add_argument("--server-seed", type=int, default=0,
                   help="base seed; a request's flows depend only on "
                        "(server seed, request id)")
    p.add_argument("--max-batch", type=int, default=256,
                   help="max flows coalesced into one denoiser batch")
    p.add_argument("--max-wait-ms", type=float, default=20.0,
                   help="max time the first request in a batch waits "
                        "for company")
    p.add_argument("--max-queue", type=int, default=64,
                   help="bounded queue depth; overflow answers 429")
    p.add_argument("--timeout", type=float, default=None,
                   help="default per-request queue deadline (seconds)")
    p.add_argument("--fp32", action="store_true",
                   help="serve the float32 inference tier")
    p.add_argument("--store-dir", default=None,
                   help="content-addressed model store directory; "
                        "requests may pick models by digest")
    p.add_argument("--store-capacity", type=int, default=2,
                   help="models kept resident (LRU) when serving from "
                        "a store")
    p.set_defaults(fn=_cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
