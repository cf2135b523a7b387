"""Run every experiment and print the paper-vs-measured report.

Every experiment is declared as an independent :class:`Stage`; with
``--jobs N`` the stages fan out across worker processes, submitted
largest declared cost first.  Three properties make the parallel mode
safe:

* **Deterministic per-stage seeds.**  Every stage derives its RNG streams
  from ``config.seed`` alone, and each worker rebuilds its experiment
  context from scratch, so a stage's result is independent of scheduling
  order and of the number of workers.
* **Shared fits via the on-disk pipeline cache.**  Before fanning out,
  the parent fits the shared base pipeline once into the content-addressed
  cache (:func:`repro.core.serialization.fit_or_load`); workers load it
  instead of retraining.  ``--cache-dir`` persists the cache across runs
  (a temp directory is used otherwise).
* **Merged perf telemetry.**  Each worker returns its result, its
  wall-clock and its ``repro.perf`` snapshot through the pool's result
  pipe (a stage result pickles to well under 2 KB), and the parent folds
  the snapshot into its own registry, so ``--perf`` reports stay
  complete under ``--jobs``.

Known slowdown: on a 2-vCPU host ``--jobs 2`` is slower than ``--jobs 1``
(tiny preset: 169 s vs 130 s), because each worker's OpenBLAS thread
pool oversubscribes the cores.  Pinning BLAS to one thread is no pure
speed fix: it moves the few-shot "linear probe, pretrained encoder"
accuracy from 0.270 to 0.405, so the workers' thread count is left as
is until the foundation encoder's training changes (``ROADMAP.md``).

Usage::

    python -m repro.experiments.runner --preset quick
    python -m repro.experiments.runner --preset tiny --jobs 4 \
        --cache-dir .repro_cache --perf
    python -m repro.experiments.runner --preset tiny --skip ablations
"""

from __future__ import annotations

import argparse
import os
import shutil
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass

from repro import perf
from repro.experiments import (
    ablations,
    data,
    extensions,
    figure1,
    figure2,
    replay_exp,
    speed,
)
from repro.experiments.config import ExperimentConfig, preset
from repro.experiments.fidelity import run_fidelity
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2


# -- stage bodies (module-level so the process pool can pickle them) ---------
def _stage_table1(config: ExperimentConfig, output_dir: str | None):
    return run_table1(config)


def _stage_table2(config: ExperimentConfig, output_dir: str | None):
    return run_table2(config)


def _stage_figure1(config: ExperimentConfig, output_dir: str | None):
    return {
        "11class": figure1.run_figure1_11class(config),
        "2class": figure1.run_figure1_2class(config),
    }


def _stage_figure2(config: ExperimentConfig, output_dir: str | None):
    return figure2.run_figure2(config, output_dir=output_dir)


def _stage_speed(config: ExperimentConfig, output_dir: str | None):
    return speed.run_speed(config)


def _stage_replay(config: ExperimentConfig, output_dir: str | None):
    return replay_exp.run_replay(config)


def _stage_ablations(config: ExperimentConfig, output_dir: str | None):
    return {
        "per_class_gan": ablations.run_per_class_gan(config),
        "control": ablations.run_control_ablation(config),
        "lora": ablations.run_lora_ablation(config),
    }


def _stage_extensions(config: ExperimentConfig, output_dir: str | None):
    return {
        "deblurring": extensions.run_deblurring(config),
        "vpn_translation": extensions.run_vpn_translation(config),
        "condition_transfer": extensions.run_condition_transfer(config),
        "anomaly": extensions.run_anomaly_detection(config),
        "few_shot": extensions.run_few_shot(config),
    }


def _stage_fidelity(config: ExperimentConfig, output_dir: str | None):
    return run_fidelity(config)


@dataclass(frozen=True)
class Stage:
    """One declared harness stage; stages do not depend on each other.

    ``needs_pipeline`` marks stages that consume the shared fitted base
    pipeline; the parallel runner warms the pipeline cache once before
    fanning those out.  ``est_seconds`` is a declared cost estimate
    (tiny-preset wall-clock); the parallel runner submits stages
    longest-first by it.
    """

    name: str
    fn: object
    needs_pipeline: bool = False
    est_seconds: float = 1.0


STAGES: tuple[Stage, ...] = (
    Stage("table1", _stage_table1, est_seconds=0.5),
    Stage("table2", _stage_table2, needs_pipeline=True, est_seconds=11.0),
    Stage("figure1", _stage_figure1, needs_pipeline=True, est_seconds=4.7),
    Stage("figure2", _stage_figure2, needs_pipeline=True, est_seconds=0.1),
    Stage("speed", _stage_speed, needs_pipeline=True, est_seconds=0.5),
    Stage("replay", _stage_replay, needs_pipeline=True, est_seconds=1.2),
    Stage("ablations", _stage_ablations, needs_pipeline=True,
          est_seconds=25.0),
    Stage("extensions", _stage_extensions, needs_pipeline=True,
          est_seconds=69.0),
    Stage("fidelity", _stage_fidelity, needs_pipeline=True,
          est_seconds=21.0),
)

_STAGE_BY_NAME = {s.name: s for s in STAGES}

EXPERIMENTS = tuple(s.name for s in STAGES)


def _render_result(result) -> None:
    parts = result.values() if isinstance(result, dict) else [result]
    for part in parts:
        print(part.render())
        print()


def _run_stage_worker(
    name: str,
    config: ExperimentConfig,
    output_dir: str | None,
    cache_dir: str | None,
):
    """Execute one stage in a worker process.

    Starts from a clean slate — fresh perf registry, fresh experiment
    context, the shared cache directory — so the result only depends on
    ``config`` and the stage itself.  Returns the result, the stage
    wall-clock, and the worker's perf snapshot for the parent to merge.
    """
    perf.reset()
    data.clear_contexts()
    data.set_cache_dir(cache_dir)
    start = time.perf_counter()
    result = _STAGE_BY_NAME[name].fn(config, output_dir)
    elapsed = time.perf_counter() - start
    return result, elapsed, perf.snapshot()


def _run_sequential(
    stages: list[Stage],
    config: ExperimentConfig,
    output_dir: str | None,
    results: dict[str, object],
    timings: dict[str, float],
) -> None:
    for stage in stages:
        print(f"\n=== {stage.name} ===", flush=True)
        start = time.perf_counter()
        results[stage.name] = stage.fn(config, output_dir)
        elapsed = time.perf_counter() - start
        timings[stage.name] = elapsed
        print(f"=== {stage.name} done ({elapsed:.1f}s) ===")
        _render_result(results[stage.name])


def _run_parallel(
    stages: list[Stage],
    config: ExperimentConfig,
    output_dir: str | None,
    jobs: int,
    cache_dir: str | None,
    results: dict[str, object],
    timings: dict[str, float],
) -> None:
    temp_cache = None
    if cache_dir is None:
        # Workers still need a shared fit — use a run-scoped temp cache.
        temp_cache = tempfile.mkdtemp(prefix="repro-pipeline-cache-")
        cache_dir = temp_cache
    data.set_cache_dir(cache_dir)
    try:
        if any(s.needs_pipeline for s in stages):
            print("\n=== prewarm (shared pipeline -> cache) ===", flush=True)
            start = time.perf_counter()
            data.get_context(config).pipeline
            elapsed = time.perf_counter() - start
            timings["prewarm"] = elapsed
            print(f"=== prewarm done ({elapsed:.1f}s) ===")

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            # Longest-first: the long poles start at once and overlap the
            # short tail instead of serialising behind it.
            pending = {}
            for stage in sorted(stages, key=lambda s: s.est_seconds,
                                reverse=True):
                print(f"\n=== {stage.name} started ===", flush=True)
                future = pool.submit(
                    _run_stage_worker, stage.name, config, output_dir,
                    cache_dir,
                )
                pending[future] = stage
            for future in as_completed(pending):
                stage = pending[future]
                result, elapsed, snap = future.result()
                results[stage.name] = result
                timings[stage.name] = elapsed
                perf.get_registry().merge_snapshot(snap)
                print(f"\n=== {stage.name} done ({elapsed:.1f}s) ===")
                _render_result(result)
    finally:
        if temp_cache is not None:
            shutil.rmtree(temp_cache, ignore_errors=True)


def run_all(
    config: ExperimentConfig,
    skip: tuple[str, ...] = (),
    output_dir: str | None = None,
    jobs: int = 1,
    cache_dir: str | None = None,
    timings: dict[str, float] | None = None,
) -> dict[str, object]:
    """Run the full harness; returns {experiment: result object}.

    ``jobs > 1`` runs the stages on that many worker processes, largest
    declared ``est_seconds`` first.  ``cache_dir`` enables the on-disk
    fitted-pipeline cache (always enabled — via a temp directory — in
    parallel mode).  ``timings``, when given, is filled with per-stage
    wall-clock seconds (feed it to :func:`write_markdown`).
    """
    results: dict[str, object] = {}
    timings = timings if timings is not None else {}
    previous_cache_dir = data.get_cache_dir()
    if cache_dir is not None:
        data.set_cache_dir(str(cache_dir))
    stages = [s for s in STAGES if s.name not in skip]
    try:
        if jobs <= 1:
            _run_sequential(stages, config, output_dir, results, timings)
        else:
            _run_parallel(stages, config, output_dir, jobs, cache_dir,
                          results, timings)
            # Completion order is scheduling-dependent; report in stage
            # order.
            results = {
                name: results[name]
                for name in EXPERIMENTS if name in results
            }
    finally:
        data.set_cache_dir(previous_cache_dir)
    return results


def write_markdown(results: dict[str, object], path: str,
                   config: ExperimentConfig,
                   timings: dict[str, float] | None = None) -> None:
    """Write every result's rendering into one markdown report."""
    lines = [
        "# Experiment report",
        "",
        f"Preset: `{config.name}` (seed {config.seed}, "
        f"dataset scale {config.dataset_scale})",
        "",
    ]
    if timings:
        lines.append("## Stage timings")
        lines.append("")
        lines.append("| stage | wall-clock (s) |")
        lines.append("| --- | ---: |")
        for name, seconds in timings.items():
            lines.append(f"| {name} | {seconds:.2f} |")
        lines.append(f"| **total** | **{sum(timings.values()):.2f}** |")
        lines.append("")
    for name, result in results.items():
        lines.append(f"## {name}")
        lines.append("")
        parts = result.values() if isinstance(result, dict) else [result]
        for part in parts:
            lines.append("```")
            lines.append(part.render())
            lines.append("```")
            lines.append("")
    with open(path, "w") as f:
        f.write("\n".join(lines))


def _parse_jobs(value: str) -> int:
    """``--jobs`` argument: a positive int, or ``auto`` for the core count."""
    if value.strip().lower() == "auto":
        return os.cpu_count() or 1
    jobs = int(value)
    if jobs < 1:
        raise argparse.ArgumentTypeError("--jobs must be >= 1 or 'auto'")
    return jobs


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", default="quick",
                        choices=("tiny", "quick", "paper"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--skip", nargs="*", default=[],
                        choices=EXPERIMENTS)
    parser.add_argument("--output-dir", default="experiment_outputs")
    parser.add_argument("--markdown", default=None,
                        help="also write the report to this markdown file")
    parser.add_argument("--jobs", type=_parse_jobs, default=1,
                        help="worker processes for independent stages "
                        "(1 = sequential, 'auto' = one per CPU core)")
    parser.add_argument("--cache-dir", default=None,
                        help="on-disk fitted-pipeline cache directory "
                        "(persists fits across runs; parallel runs use a "
                        "temp cache when unset)")
    parser.add_argument("--perf", action="store_true",
                        help="print the merged perf report afterwards")
    args = parser.parse_args(argv)
    config = preset(args.preset, seed=args.seed)
    if args.perf:
        perf.reset()
    timings: dict[str, float] = {}
    results = run_all(config, skip=tuple(args.skip),
                      output_dir=args.output_dir, jobs=args.jobs,
                      cache_dir=args.cache_dir, timings=timings)
    if args.markdown:
        write_markdown(results, args.markdown, config, timings=timings)
        print(f"\nmarkdown report written to {args.markdown}")
    if args.perf:
        print()
        print(perf.render("run_all perf"))


if __name__ == "__main__":
    main()
