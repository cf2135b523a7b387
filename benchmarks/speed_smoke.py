#!/usr/bin/env python
"""Speed-benchmark smoke runner: track the perf trajectory across PRs.

Runs the generative-speed sweep (``repro.experiments.speed.run_speed``)
under a small preset and writes a ``BENCH_speed.json`` artifact with
flows/s and denoiser-forward counts per sampler budget, so CI (or a
human) can diff throughput against the recorded baseline.

Usage::

    REPRO_BENCH_PRESET=tiny PYTHONPATH=src python benchmarks/speed_smoke.py
    PYTHONPATH=src python benchmarks/speed_smoke.py --preset quick \
        --out BENCH_speed.json

The artifact keeps a ``baseline`` section per preset (written the first
time a preset is benchmarked, then preserved verbatim) next to the
``current`` section (overwritten on every run), plus the flows/s speedup
of current over baseline for matching (sampler, steps) rows.
"""

from __future__ import annotations

# Pin BLAS/OpenMP thread pools before anything imports NumPy so the
# recorded numbers are machine-independent (see bench_env docstring).
import bench_env  # noqa: E402  (same directory as this script)

bench_env.pin_blas_threads()

import argparse
import json
import os
import sys
from pathlib import Path


def _rows_to_json(rows) -> list[dict]:
    return [
        {
            "sampler": r.sampler,
            "steps": r.steps,
            "seconds": round(r.seconds, 6),
            "flows_per_second": round(r.flows_per_second, 3),
            "fidelity": round(r.fidelity, 6),
            "denoiser_forwards": r.denoiser_forwards,
            "forwards_per_flow": round(r.forwards_per_flow, 3),
        }
        for r in rows
    ]


def _speedups(current: list[dict], baseline: list[dict]) -> dict[str, float]:
    base = {(r["sampler"], r["steps"]): r["flows_per_second"]
            for r in baseline}
    out = {}
    for row in current:
        key = (row["sampler"], row["steps"])
        if key in base and base[key] > 0:
            out[f"{key[0]}-{key[1]}"] = round(
                row["flows_per_second"] / base[key], 3
            )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--preset",
        default=os.environ.get("REPRO_BENCH_PRESET", "tiny"),
        help="experiment preset (tiny/quick/paper); default from "
        "REPRO_BENCH_PRESET or 'tiny'",
    )
    parser.add_argument("--n-flows", type=int, default=12)
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent
                    / "BENCH_speed.json"),
    )
    parser.add_argument(
        "--rebaseline", action="store_true",
        help="overwrite the stored baseline with this run",
    )
    args = parser.parse_args(argv)

    from repro import perf
    from repro.experiments.config import preset
    from repro.experiments.speed import run_speed

    config = preset(args.preset, seed=0)
    ddim_steps = (12, 5) if args.preset == "tiny" else (50, 20, 5)
    include_ddpm = args.preset != "tiny"

    perf.reset()
    result = run_speed(
        config,
        n_flows=args.n_flows,
        ddim_steps=ddim_steps,
        include_full_ddpm=include_ddpm,
    )
    print(result.render())
    print()
    print(result.render_perf())

    rows = _rows_to_json(result.rows)
    section = {
        "preset": args.preset,
        "n_flows": result.n_flows,
        "infer_mode": "compiled",  # the only engine
        "rows": rows,
    }

    path = Path(args.out)
    doc = {}
    if path.exists():
        doc = json.loads(path.read_text())
    entry = doc.setdefault(args.preset, {})
    if "baseline" not in entry or args.rebaseline:
        entry["baseline"] = section
    entry["current"] = section
    entry["speedup_vs_baseline"] = _speedups(
        rows, entry["baseline"]["rows"]
    )
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"\nwrote {path}")
    for key, x in entry["speedup_vs_baseline"].items():
        print(f"  {key}: {x:.2f}x vs baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
