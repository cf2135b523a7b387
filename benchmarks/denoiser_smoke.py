#!/usr/bin/env python
"""Denoiser-inference smoke: per-forward latency and steps/s per dtype.

Benchmarks the sampling-path denoiser stack in isolation — no dataset, no
codec fit — by fabricating a pipeline with randomly initialised (but
deterministic) weights and timing ``sample_latents`` at tiny/quick
presets.  Rows are recorded per dtype for the compiled plan (the only
sampler engine), so the artifact tracks its speedup against the
committed eager baseline.

Usage::

    PYTHONPATH=src python benchmarks/denoiser_smoke.py --preset quick
    PYTHONPATH=src python benchmarks/denoiser_smoke.py --preset tiny \
        --parity-check

The artifact keeps a ``baseline`` section per preset (written the first
time a preset is benchmarked — on the pre-compiled-engine tree — then
preserved verbatim) next to the ``current`` section (overwritten each
run), plus the steps/s speedup of every current row over the baseline
eager row of the same dtype.  ``--parity-check`` additionally samples
float64 latents on the pipeline and on the eager autograd tape
(``tests/eager_oracle.py``) with identical RNG streams and exits
non-zero unless they are bitwise identical — the CI gate for the
compiled engine.
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
import time
from pathlib import Path

import numpy as np

PRESETS = {
    "tiny": dict(
        latent_dim=24, hidden=48, blocks=2, cond_dim=32, time_dim=32,
        timesteps=80, ddim_steps=8, generation_batch=64, n_flows=128,
    ),
    "quick": dict(
        latent_dim=48, hidden=96, blocks=3, cond_dim=48, time_dim=48,
        timesteps=120, ddim_steps=12, generation_batch=256, n_flows=512,
    ),
}

CLASS = "bench"

ROOT = Path(__file__).resolve().parent.parent


def build_pipeline(spec: dict, seed: int = 0):
    """A generation-ready pipeline with deterministic random weights.

    ``sample_latents`` never touches the codec beyond ``latent_dim``, so
    no fit is needed — the denoiser/prompt/ControlNet stack is wired up
    directly.  Zero-initialised output layers are perturbed so the
    sampled latents are non-trivial and parity checks are meaningful.
    """
    from repro.core.controlnet import ControlNetBranch, protocol_mask
    from repro.core.denoiser import ConditionalDenoiser
    from repro.core.pipeline import PipelineConfig, TextToTrafficPipeline
    from repro.core.prompt import PromptCodebook, PromptEncoder

    config = PipelineConfig(
        latent_dim=spec["latent_dim"], hidden=spec["hidden"],
        blocks=spec["blocks"], cond_dim=spec["cond_dim"],
        time_dim=spec["time_dim"], timesteps=spec["timesteps"],
        ddim_steps=spec["ddim_steps"],
        generation_batch=spec["generation_batch"], seed=seed,
    )
    pipeline = TextToTrafficPipeline(config)
    pipeline.codebook = PromptCodebook([CLASS])
    for token in pipeline.codebook.prompt_for(CLASS).split():
        pipeline.vocab.add(token)
    rng = pipeline._rng
    pipeline.prompt_encoder = PromptEncoder(
        pipeline.vocab, config.cond_dim, rng=rng
    )
    pipeline.denoiser = ConditionalDenoiser(
        latent_dim=config.latent_dim, hidden=config.hidden,
        blocks=config.blocks, cond_dim=config.cond_dim,
        time_dim=config.time_dim, rng=rng,
    )
    pipeline.controlnet = ControlNetBranch(
        config.hidden, config.blocks, rng=rng
    )
    w = pipeline.denoiser.output_proj.weight.data
    w[:] = rng.normal(0.0, 0.05, w.shape)
    for proj in pipeline.controlnet.zero_projections:
        proj.weight.data[:] = rng.normal(0.0, 0.02, proj.weight.data.shape)
    pipeline.class_masks[CLASS] = protocol_mask("tcp")
    pipeline.class_heights[CLASS] = 8.0
    return pipeline


def _sample(pipeline, spec, dtype, seed: int = 123) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return pipeline.sample_latents(
        CLASS, spec["n_flows"], steps=spec["ddim_steps"], rng=rng,
        dtype=dtype,
    )


def bench_dtype(pipeline, spec, dtype, repeats: int) -> dict:
    from repro import perf

    n_flows = spec["n_flows"]
    batch = spec["generation_batch"]
    batches = -(-n_flows // batch)
    forwards = spec["ddim_steps"] * batches

    _sample(pipeline, spec, dtype)  # warm caches / workspaces
    best = float("inf")
    misses = hits = 0
    for _ in range(repeats):
        miss0 = perf.counter("infer.ws_miss")
        hit0 = perf.counter("infer.ws_hit")
        start = time.perf_counter()
        _sample(pipeline, spec, dtype)
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
            misses = perf.counter("infer.ws_miss") - miss0
            hits = perf.counter("infer.ws_hit") - hit0
    return {
        "mode": "compiled",
        "dtype": "fp32" if dtype is not None else "fp64",
        "steps": spec["ddim_steps"],
        "batches": batches,
        "forwards": forwards,
        "seconds": round(best, 6),
        "ms_per_forward": round(best / forwards * 1e3, 4),
        "steps_per_second": round(forwards / best, 3),
        "flows_per_second": round(n_flows / best, 3),
        "workspace_misses_steady": int(misses),
        "workspace_hits_steady": int(hits),
    }


def parity_check(pipeline, spec) -> bool:
    """fp64 latents must be bitwise identical to the eager tape."""
    sys.path.insert(0, str(ROOT / "tests"))
    from eager_oracle import eager_sample_latents

    ref = eager_sample_latents(
        pipeline, CLASS, spec["n_flows"], steps=spec["ddim_steps"],
        rng=np.random.default_rng(7))
    got = _sample(pipeline, spec, None, seed=7)
    ok = ref.dtype == got.dtype and np.array_equal(ref, got)
    print(f"parity fp64 eager-vs-compiled: {'OK' if ok else 'MISMATCH'}")
    if not ok:
        delta = np.abs(ref - got)
        print(f"  max |delta| = {delta.max():.3e} over {ref.shape}")
    return ok


def _speedups(current: list[dict], baseline: list[dict]) -> dict[str, float]:
    base = {
        r["dtype"]: r["steps_per_second"]
        for r in baseline
        if r["mode"] == "eager"
    }
    out = {}
    for row in current:
        ref = base.get(row["dtype"], 0)
        if ref > 0:
            out[f"{row['mode']}-{row['dtype']}"] = round(
                row["steps_per_second"] / ref, 3
            )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--preset",
        default=os.environ.get("REPRO_BENCH_PRESET", "tiny"),
        choices=sorted(PRESETS),
    )
    parser.add_argument(
        "--repeats", type=int, default=5,
        help="timed repetitions per row; the best is recorded, damping "
        "scheduler noise on shared machines",
    )
    parser.add_argument(
        "--parity-check", action="store_true",
        help="exit non-zero unless compiled fp64 == eager fp64 bitwise",
    )
    parser.add_argument(
        "--out",
        default=str(ROOT / "BENCH_denoiser.json"),
    )
    parser.add_argument(
        "--rebaseline", action="store_true",
        help="overwrite the stored baseline with this run",
    )
    args = parser.parse_args(argv)

    spec = PRESETS[args.preset]
    pipeline = build_pipeline(spec)

    rows = []
    for dtype in (None, np.float32):
        row = bench_dtype(pipeline, spec, dtype, args.repeats)
        rows.append(row)
        print(
            f"{row['mode']:>8s} {row['dtype']}: "
            f"{row['ms_per_forward']:8.3f} ms/forward  "
            f"{row['steps_per_second']:9.1f} steps/s  "
            f"{row['flows_per_second']:9.1f} flows/s  "
            f"ws miss/hit {row['workspace_misses_steady']}"
            f"/{row['workspace_hits_steady']}"
        )

    section = {
        "preset": args.preset,
        "n_flows": spec["n_flows"],
        "generation_batch": spec["generation_batch"],
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
    entry["speedup_vs_baseline"] = _speedups(rows, entry["baseline"]["rows"])
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"\nwrote {path}")
    for key, x in entry["speedup_vs_baseline"].items():
        print(f"  {key}: {x:.2f}x vs baseline eager")

    if args.parity_check and not parity_check(pipeline, spec):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
