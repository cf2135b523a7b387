#!/usr/bin/env python
"""Training-loop smoke: steps/s for the base and ControlNet fit phases.

Benchmarks ``Pipeline._training_loop`` in isolation — no dataset, no
codec fit — by fabricating a pipeline with deterministic random weights
plus synthetic latents/prompts/structure masks, then timing the base and
ControlNet training phases at tiny/quick presets.  Rows are recorded per
phase for the compiled plan (the only fit engine), so the artifact
tracks its speedup against the committed eager baseline.

Usage::

    PYTHONPATH=src python benchmarks/train_smoke.py --preset quick
    PYTHONPATH=src python benchmarks/train_smoke.py --preset tiny \
        --parity-check

The artifact keeps a ``baseline`` section per preset (written the first
time a preset is benchmarked — on the pre-compiled-engine tree — then
preserved verbatim) next to the ``current`` section (overwritten each
run), plus the steps/s speedup of every current row over the baseline
eager row of the same phase.  Every row carries a ``loss_digest`` (SHA-256
over the float64 loss history) and a ``weights_digest`` (over the post-fit
parameters).  ``--parity-check`` also runs each phase on the eager
autograd tape (``tests/eager_oracle.py``) and exits non-zero unless the
digests agree bitwise — the CI gate for the compiled engine.
"""

from __future__ import annotations

# Pin BLAS/OpenMP thread pools before anything imports NumPy so the
# recorded numbers are machine-independent (see bench_env docstring).
import bench_env  # noqa: E402  (same directory as this script)

bench_env.pin_blas_threads()

import argparse
import contextlib
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

PRESETS = {
    "tiny": dict(
        latent_dim=24, hidden=48, blocks=2, cond_dim=32, time_dim=32,
        timesteps=80, train_steps=80, controlnet_steps=40, batch_size=64,
        n_flows=128,
    ),
    "quick": dict(
        latent_dim=48, hidden=96, blocks=3, cond_dim=48, time_dim=48,
        timesteps=120, train_steps=160, controlnet_steps=80, batch_size=64,
        n_flows=256,
    ),
}

CLASSES = ("bench-a", "bench-b")


def build_pipeline(spec: dict, seed: int = 0):
    """A training-ready pipeline with deterministic random weights.

    ``_training_loop`` never touches the codec beyond ``latent_dim``, so
    no fit is needed — the denoiser/prompt/ControlNet stack is wired up
    directly.  Rebuilt from scratch for every timed run: training mutates
    the weights and advances the pipeline RNG, so each run must start
    from the identical state for the loss digests to be comparable.
    """
    from repro.core.controlnet import ControlNetBranch
    from repro.core.denoiser import ConditionalDenoiser
    from repro.core.pipeline import PipelineConfig, TextToTrafficPipeline
    from repro.core.prompt import PromptCodebook, PromptEncoder

    config = PipelineConfig(
        latent_dim=spec["latent_dim"], hidden=spec["hidden"],
        blocks=spec["blocks"], cond_dim=spec["cond_dim"],
        time_dim=spec["time_dim"], timesteps=spec["timesteps"],
        train_steps=spec["train_steps"],
        controlnet_steps=spec["controlnet_steps"],
        batch_size=spec["batch_size"], seed=seed,
    )
    pipeline = TextToTrafficPipeline(config)
    pipeline.codebook = PromptCodebook(list(CLASSES))
    for name in CLASSES:
        for token in pipeline.codebook.prompt_for(name).split():
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
    return pipeline


def build_data(spec: dict, seed: int = 1):
    """Deterministic synthetic latents, prompts and structure masks."""
    from repro.nprint.fields import NPRINT_BITS

    rng = np.random.default_rng(seed)
    n = spec["n_flows"]
    latents = rng.standard_normal((n, spec["latent_dim"]))
    labels = [CLASSES[i % len(CLASSES)] for i in range(n)]
    masks = rng.random((n, NPRINT_BITS))
    return latents, labels, masks


def _mode_context(mode: str):
    """The compiled engine, or the eager tape for the parity reference."""
    if mode == "compiled":
        return contextlib.nullcontext()
    sys.path.insert(0, str(ROOT / "tests"))
    from eager_oracle import eager_training

    return eager_training()


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(repr((arr.shape, str(arr.dtype))).encode())
        h.update(arr.tobytes())
    return h.hexdigest()[:32]


def run_phase(spec: dict, mode: str, phase: str) -> tuple[dict, float]:
    """One full training phase under ``mode``; returns (digests, seconds)."""
    pipeline = build_pipeline(spec)
    latents, labels, masks = build_data(spec)
    prompts = [pipeline.codebook.prompt_for(lbl) for lbl in labels]
    with _mode_context(mode):
        start = time.perf_counter()
        if phase == "base":
            history = pipeline._train_base(latents, prompts, verbose=False)
            module_states = (
                pipeline.denoiser.state_dict(),
                pipeline.prompt_encoder.state_dict(),
            )
        else:
            history = pipeline._train_controlnet(
                latents, prompts, masks, verbose=False
            )
            module_states = (pipeline.controlnet.state_dict(),)
        elapsed = time.perf_counter() - start
    weight_arrays = [
        state[name] for state in module_states for name in sorted(state)
    ]
    digests = {
        "loss_digest": _digest([np.asarray(history, dtype=np.float64)]),
        "weights_digest": _digest(weight_arrays),
    }
    return digests, elapsed


def bench_mode(spec: dict, mode: str, phase: str, repeats: int) -> dict:
    steps = spec["train_steps"] if phase == "base" else spec[
        "controlnet_steps"
    ]
    best = float("inf")
    digests = {}
    for _ in range(repeats):
        run_digests, elapsed = run_phase(spec, mode, phase)
        if digests and run_digests != digests:
            raise SystemExit(
                f"non-deterministic {mode}/{phase} run: loss digests "
                f"changed between repeats"
            )
        digests = run_digests
        best = min(best, elapsed)
    return {
        "mode": mode,
        "phase": phase,
        "steps": steps,
        "seconds": round(best, 6),
        "ms_per_step": round(best / steps * 1e3, 4),
        "steps_per_second": round(steps / best, 3),
        **digests,
    }


def check_digests(rows: list[dict]) -> bool:
    """Every (phase) must agree on digests across modes."""
    ok = True
    by_phase: dict[str, dict] = {}
    for row in rows:
        ref = by_phase.setdefault(row["phase"], row)
        if ref is row:
            continue
        for key in ("loss_digest", "weights_digest"):
            if row[key] != ref[key]:
                ok = False
                print(
                    f"PARITY MISMATCH [{row['phase']}/{key}]: "
                    f"{ref['mode']}={ref[key]} vs {row['mode']}={row[key]}"
                )
    return ok


def _speedups(current: list[dict], baseline: list[dict]) -> dict[str, float]:
    base = {
        r["phase"]: r["steps_per_second"]
        for r in baseline
        if r["mode"] == "eager"
    }
    out = {}
    for row in current:
        ref = base.get(row["phase"], 0)
        if ref > 0:
            out[f"{row['mode']}-{row['phase']}"] = round(
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
        "--repeats", type=int, default=3,
        help="timed repetitions per row; the best is recorded, damping "
        "scheduler noise on shared machines",
    )
    parser.add_argument(
        "--parity-check", action="store_true",
        help="exit non-zero unless the fp64 loss and post-fit weight "
        "digests match the eager tape bitwise",
    )
    parser.add_argument(
        "--out",
        default=str(ROOT / "BENCH_train.json"),
    )
    parser.add_argument(
        "--rebaseline", action="store_true",
        help="overwrite the stored baseline with this run",
    )
    args = parser.parse_args(argv)

    spec = PRESETS[args.preset]
    modes = ["eager", "compiled"] if args.parity_check else ["compiled"]

    rows = []
    for mode in modes:
        for phase in ("base", "controlnet"):
            row = bench_mode(spec, mode, phase, args.repeats)
            rows.append(row)
            print(
                f"{row['mode']:>8s} {row['phase']:>10s}: "
                f"{row['ms_per_step']:8.3f} ms/step  "
                f"{row['steps_per_second']:9.1f} steps/s  "
                f"loss {row['loss_digest'][:12]}"
            )

    parity_ok = check_digests(rows)

    section = {
        "preset": args.preset,
        "n_flows": spec["n_flows"],
        "batch_size": spec["batch_size"],
        "parity_ok": parity_ok,
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

    if not parity_ok:
        print("loss/weight digest mismatch across training engines")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
