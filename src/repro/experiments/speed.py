"""Experiment E-X3: generative speed (§4, "Generative speed").

The paper flags the multi-step sampling procedure of diffusion models as
a hurdle for high-throughput trace generation.  This experiment sweeps
the sampler step count — every training timestep (the "ddpm" row, a
T-step deterministic pass) down to few-step DDIM — and reports flows/second together with a fidelity proxy (per-bit marginal
agreement against real data), regenerating the speed/quality trade-off.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro import perf
from repro.experiments.config import ExperimentConfig
from repro.experiments.data import get_context
from repro.experiments.report import render_table
from repro.ml.metrics import bit_fidelity
from repro.nprint.encoder import encode_flows


@dataclass
class SpeedRow:
    sampler: str
    steps: int
    seconds: float
    flows_per_second: float
    fidelity: float
    denoiser_forwards: int = 0
    #: flows generated for this row (mirrors SpeedResult.n_flows)
    flows: int = 0

    @property
    def forwards_per_flow(self) -> float:
        return self.denoiser_forwards / max(self.flows, 1)


@dataclass
class SpeedResult:
    rows: list[SpeedRow]
    n_flows: int
    perf: dict = None  # perf-registry snapshot taken after the sweep

    def render(self) -> str:
        return render_table(
            ["Sampler", "Steps", "Seconds", "Flows/s", "Bit fidelity",
             "Denoiser fwd"],
            [
                (r.sampler, r.steps, r.seconds, r.flows_per_second,
                 r.fidelity, r.denoiser_forwards)
                for r in self.rows
            ],
            title=f"Generative speed sweep ({self.n_flows} flows per point)",
        )

    def render_perf(self) -> str:
        return perf.render("speed sweep perf")


def run_speed(
    config: ExperimentConfig,
    class_name: str = "netflix",
    n_flows: int = 16,
    ddim_steps: tuple[int, ...] = (50, 20, 5),
    include_full_ddpm: bool = True,
) -> SpeedResult:
    """Time generation at several sampler budgets; measure fidelity."""
    ctx = get_context(config)
    pipeline = ctx.pipeline
    real = [f for f in ctx.test_flows if f.label == class_name]
    real_matrices = (
        encode_flows(real, config.pipeline.max_packets) if real else None
    )

    rows: list[SpeedRow] = []
    budgets: list[tuple[str, int]] = []
    if include_full_ddpm:
        budgets.append(("ddpm", config.pipeline.timesteps))
    budgets.extend(("ddim", s) for s in ddim_steps
                   if s <= config.pipeline.timesteps)

    for sampler, steps in budgets:
        rng = np.random.default_rng(config.seed + steps)
        forwards_before = perf.counter("infer.forward")
        start = time.perf_counter()
        result = pipeline.generate_raw(
            class_name, n_flows, steps=steps, rng=rng
        )
        elapsed = time.perf_counter() - start
        forwards = perf.counter("infer.forward") - forwards_before
        quantised = encode_flows(result.flows, config.pipeline.max_packets)
        fidelity = (
            bit_fidelity(real_matrices, quantised)
            if real_matrices is not None
            else float("nan")
        )
        rows.append(
            SpeedRow(
                sampler=sampler,
                steps=steps,
                seconds=elapsed,
                flows_per_second=n_flows / elapsed if elapsed > 0 else float("inf"),
                fidelity=fidelity,
                denoiser_forwards=forwards,
                flows=n_flows,
            )
        )
    return SpeedResult(rows=rows, n_flows=n_flows, perf=perf.snapshot())
