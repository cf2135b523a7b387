#!/usr/bin/env python
"""Harness-benchmark smoke runner: sequential vs parallel ``run_all``.

Times the experiment harness end to end in three modes and writes a
``BENCH_runner.json`` artifact so CI (or a human) can diff harness
wall-clock against the recorded baseline:

* ``sequential``    — ``jobs=1``, no pipeline cache (the legacy path);
* ``parallel_cold`` — ``jobs=N`` against an empty pipeline cache;
* ``parallel_warm`` — ``jobs=N`` reusing the cache the cold run filled.

Usage::

    PYTHONPATH=src python benchmarks/runner_smoke.py
    PYTHONPATH=src python benchmarks/runner_smoke.py --preset tiny \
        --jobs 4 --skip ablations extensions fidelity

The artifact keeps a ``baseline`` section per preset (written the first
time a preset is benchmarked, then preserved verbatim) next to the
``current`` section (overwritten on every run), plus per-mode speedups
of current over the baseline's sequential total.  Machine caveat: on a
single-core box the parallel speedup comes almost entirely from the
fitted-pipeline cache, not from process concurrency.
"""

from __future__ import annotations

# Pin BLAS/OpenMP thread pools before anything imports NumPy so the
# recorded numbers are machine-independent (see bench_env docstring).
import bench_env  # noqa: E402  (same directory as this script)

bench_env.pin_blas_threads()

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path


def _run_mode(config, skip, jobs, cache_dir, output_dir):
    from repro.experiments import data
    from repro.experiments.runner import run_all

    data.clear_contexts()
    timings: dict[str, float] = {}
    start = time.perf_counter()
    run_all(config, skip=skip, output_dir=output_dir, jobs=jobs,
            cache_dir=cache_dir, timings=timings)
    total = time.perf_counter() - start
    return {
        "jobs": jobs,
        "cached": cache_dir is not None,
        "total_seconds": round(total, 3),
        "stages": {name: round(seconds, 3)
                   for name, seconds in timings.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--preset",
        default=os.environ.get("REPRO_BENCH_PRESET", "tiny"),
        help="experiment preset (tiny/quick/paper); default from "
        "REPRO_BENCH_PRESET or 'tiny'",
    )
    parser.add_argument("--jobs", type=int, default=2,
                        help="worker processes for the parallel modes")
    parser.add_argument("--skip", nargs="*", default=[],
                        help="stages to skip in every mode")
    parser.add_argument(
        "--modes", nargs="*",
        default=["sequential", "parallel_cold", "parallel_warm"],
        choices=["sequential", "parallel_cold", "parallel_warm"],
    )
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent
                    / "BENCH_runner.json"),
    )
    parser.add_argument(
        "--rebaseline", action="store_true",
        help="overwrite the stored baseline with this run's sequential "
        "numbers",
    )
    args = parser.parse_args(argv)

    from repro.experiments.config import preset

    config = preset(args.preset, seed=0)
    skip = tuple(args.skip)
    output_dir = tempfile.mkdtemp(prefix="repro-bench-output-")
    cache_dir = tempfile.mkdtemp(prefix="repro-bench-cache-")
    current: dict[str, dict] = {
        "preset": args.preset,
        "skip": list(skip),
        "infer_mode": "compiled",  # the only engine
        "modes": {},
    }
    try:
        for mode in args.modes:
            print(f"\n##### mode: {mode} #####", flush=True)
            if mode == "sequential":
                section = _run_mode(config, skip, jobs=1, cache_dir=None,
                                    output_dir=output_dir)
            else:
                if mode == "parallel_cold":
                    shutil.rmtree(cache_dir, ignore_errors=True)
                    os.makedirs(cache_dir, exist_ok=True)
                section = _run_mode(config, skip, jobs=args.jobs,
                                    cache_dir=cache_dir,
                                    output_dir=output_dir)
            current["modes"][mode] = section
            print(f"##### {mode}: {section['total_seconds']:.1f}s #####")
    finally:
        shutil.rmtree(output_dir, ignore_errors=True)
        shutil.rmtree(cache_dir, ignore_errors=True)

    path = Path(args.out)
    doc = {}
    if path.exists():
        doc = json.loads(path.read_text())
    entry = doc.setdefault(args.preset, {})
    if "baseline" not in entry or args.rebaseline:
        entry["baseline"] = {
            "preset": args.preset,
            "skip": list(skip),
            "total_seconds": current["modes"].get(
                "sequential", next(iter(current["modes"].values()))
            )["total_seconds"],
            "note": "sequential run_all total at baselining time",
        }
    entry["current"] = current
    base_total = entry["baseline"]["total_seconds"]
    entry["speedup_vs_baseline"] = {
        mode: round(base_total / section["total_seconds"], 3)
        for mode, section in current["modes"].items()
        if section["total_seconds"] > 0
    }
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"\nwrote {path}")
    for mode, x in entry["speedup_vs_baseline"].items():
        print(f"  {mode}: {x:.2f}x vs baseline sequential")
    return 0


if __name__ == "__main__":
    sys.exit(main())
