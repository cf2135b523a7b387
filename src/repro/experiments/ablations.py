"""Ablation experiments: E-X2 (per-class GAN), E-A1 (ControlNet), E-A2 (LoRA).

* **E-X2** — the paper's supplemental experiment: "even when generating
  traces by training a GAN-based model per class, there is negligible
  improvement, e.g., we still observe ~20% accuracy in micro-level
  classification when the model is trained on synthetic and tested on
  real NetFlow data" (§2.3).
* **E-A1** — controllability ablation: dominant-protocol compliance of
  our generated flows with and without control guidance (ControlNet
  branch + hard structure projection), isolating where Figure 2's
  compliance comes from.
* **E-A2** — coverage-extension ablation: add a held-out class to a
  pretrained base via LoRA vs full fine-tuning; compare trainable
  parameter counts, base-weight drift, and quality on the new class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.netshare import PerClassNetShare
from repro.core.pipeline import PipelineConfig, TextToTrafficPipeline
from repro.experiments.config import ExperimentConfig
from repro.experiments.data import fit_forest, fit_pipeline, get_context
from repro.experiments.figure2 import expected_protocols, flow_compliance
from repro.experiments.report import render_table
from repro.experiments.table2 import _fit_and_score, _netflow_matrix
from repro.ml.metrics import bit_fidelity
from repro.nprint.encoder import encode_flows


# -- E-X2: per-class GAN ------------------------------------------------------
@dataclass
class PerClassGANResult:
    macro_accuracy: float
    micro_accuracy: float
    joint_gan_micro: float  # the single-GAN Table 2 number for reference
    paper_micro: float = 0.20

    def render(self) -> str:
        return render_table(
            ["Setup", "Macro", "Micro"],
            [
                ("per-class GAN synthetic/real", self.macro_accuracy,
                 self.micro_accuracy),
                ("joint GAN synthetic/real (ref)", "-", self.joint_gan_micro),
                ("paper (per-class, micro)", "-", self.paper_micro),
            ],
            title="E-X2 — per-class GAN ablation",
        )


def run_per_class_gan(config: ExperimentConfig) -> PerClassGANResult:
    """Train one GAN per class; score Synthetic/Real transfer."""
    ctx = get_context(config)
    model = PerClassNetShare(config.gan)
    model.fit(ctx.train_flows)
    rng = np.random.default_rng(config.seed + 21)
    records = model.generate(config.synthetic_train_per_class, rng)

    test_records = ctx.real_netflow_records(ctx.test_flows)
    X_test = _netflow_matrix(test_records)
    test_labels = [r.label for r in test_records]
    X_train = _netflow_matrix(records)
    train_labels = [r.label for r in records]

    joint = ctx.synthetic_gan(
        config.synthetic_train_per_class * len(ctx.classes)
    )
    joint_micro = _fit_and_score(
        _netflow_matrix(joint), [r.label for r in joint],
        X_test, test_labels, ctx.classes, config, macro=False,
    )
    return PerClassGANResult(
        macro_accuracy=_fit_and_score(
            X_train, train_labels, X_test, test_labels, ctx.classes,
            config, macro=True),
        micro_accuracy=_fit_and_score(
            X_train, train_labels, X_test, test_labels, ctx.classes,
            config, macro=False),
        joint_gan_micro=joint_micro,
    )


# -- E-A1: ControlNet on/off -----------------------------------------------------
@dataclass
class ControlAblationRow:
    setting: str
    compliance: float


@dataclass
class ControlAblationResult:
    rows: list[ControlAblationRow]

    def value(self, setting: str) -> float:
        for r in self.rows:
            if r.setting == setting:
                return r.compliance
        raise KeyError(setting)

    def render(self) -> str:
        return render_table(
            ["Guidance setting", "Dominant-protocol compliance"],
            [(r.setting, r.compliance) for r in self.rows],
            title="E-A1 — control guidance ablation",
        )


def run_control_ablation(
    config: ExperimentConfig,
    classes: tuple[str, ...] = ("netflix", "teams", "amazon"),
    n_per_class: int = 12,
) -> ControlAblationResult:
    """Compliance with: no control, soft ControlNet only, soft + hard."""
    ctx = get_context(config)
    pipeline = ctx.pipeline
    expected = expected_protocols(ctx.train_flows)

    settings = [
        ("none", dict(use_control=False, hard_guidance=False)),
        ("controlnet", dict(use_control=True, hard_guidance=False)),
        ("controlnet+hard", dict(use_control=True, hard_guidance=True)),
    ]
    rows = []
    for name, kwargs in settings:
        scores = []
        for cls in classes:
            rng = np.random.default_rng(config.seed + 31)
            flows = pipeline.generate(cls, n_per_class, rng=rng, **kwargs)
            proto = expected[cls]
            scores.extend(
                flow_compliance(f, proto) for f in flows if len(f) > 0
            )
        rows.append(ControlAblationRow(
            setting=name,
            compliance=float(np.mean(scores)) if scores else 0.0,
        ))
    return ControlAblationResult(rows=rows)


# -- E-A3: classifier-free guidance weight sweep -------------------------------------
@dataclass
class GuidanceSweepRow:
    weight: float
    transfer_accuracy: float  # RF trained on real bits, tested on synthetic
    fidelity: float  # per-bit marginal agreement with real flows


@dataclass
class GuidanceSweepResult:
    rows: list[GuidanceSweepRow]

    def best_weight(self) -> float:
        return max(self.rows, key=lambda r: r.transfer_accuracy).weight

    def render(self) -> str:
        return render_table(
            ["Guidance weight", "Real->Synthetic micro accuracy",
             "Bit fidelity"],
            [(r.weight, r.transfer_accuracy, r.fidelity) for r in self.rows],
            title="E-A3 — classifier-free guidance weight sweep",
        )


def run_guidance_sweep(
    config: ExperimentConfig,
    weights: tuple[float, ...] = (0.0, 1.0, 2.0, 4.0),
    per_class: int = 8,
) -> GuidanceSweepResult:
    """Sweep the guidance weight; measure class transfer and fidelity.

    Guidance trades diversity for conditioning strength — the
    "balance between generation diversity and controllability" of the
    paper's research question 2, measured on the axis our architecture
    actually exposes.
    """
    from repro.ml.features import nprint_features
    from repro.ml.metrics import accuracy
    from repro.ml.split import encode_labels

    ctx = get_context(config)
    pipeline = ctx.pipeline
    classes = ctx.classes
    train_labels = [f.label for f in ctx.train_flows]
    X_train = nprint_features(ctx.train_flows,
                              max_packets=config.rf_feature_packets)
    y_train, _ = encode_labels(train_labels, classes)
    rf = fit_forest(X_train, y_train, config)

    real_bits = encode_flows(ctx.test_flows, config.rf_feature_packets)
    rows = []
    for weight in weights:
        flows = []
        for name in classes:
            rng = np.random.default_rng(config.seed + int(weight * 10))
            flows.extend(pipeline.generate(
                name, per_class, guidance_weight=weight, rng=rng))
        flows = [f for f in flows if len(f)]
        X = nprint_features(flows, max_packets=config.rf_feature_packets)
        y, _ = encode_labels([f.label for f in flows], classes)
        synth_bits = encode_flows(flows, config.rf_feature_packets)
        rows.append(GuidanceSweepRow(
            weight=weight,
            transfer_accuracy=accuracy(y, rf.predict(X)),
            fidelity=bit_fidelity(real_bits, synth_bits),
        ))
    return GuidanceSweepResult(rows=rows)


# -- E-A2: LoRA vs full fine-tune --------------------------------------------------
@dataclass
class LoraAblationResult:
    lora_trainable: int
    full_trainable: int
    lora_base_drift: float  # L2 drift of base weights under LoRA (must be 0)
    full_base_drift: float
    lora_fidelity: float  # bit fidelity of generated new-class flows
    full_fidelity: float

    def render(self) -> str:
        return render_table(
            ["Method", "Trainable params", "Base drift", "New-class fidelity"],
            [
                ("LoRA", self.lora_trainable, self.lora_base_drift,
                 self.lora_fidelity),
                ("Full fine-tune", self.full_trainable, self.full_base_drift,
                 self.full_fidelity),
            ],
            title="E-A2 — LoRA vs full fine-tune for class addition",
        )


def run_lora_ablation(
    config: ExperimentConfig,
    holdout: str = "zoom",
    steps: int = 250,
    rank: int = 4,
) -> LoraAblationResult:
    """Pretrain without ``holdout``; add it back via LoRA vs full FT."""
    ctx = get_context(config)
    base_flows = [f for f in ctx.finetune_flows if f.label != holdout]
    new_flows = [f for f in ctx.finetune_flows if f.label == holdout]
    if not new_flows:
        raise RuntimeError(f"no flows for holdout class {holdout!r}")

    real_matrices = encode_flows(new_flows, config.pipeline.max_packets)

    def pretrain(seed_offset: int) -> TextToTrafficPipeline:
        cfg = PipelineConfig(
            **{**config.pipeline.__dict__, "seed": config.seed + seed_offset}
        )
        # Cached pretrains: the LoRA / full-FT continuations mutate the
        # returned object, never the archive, so reuse across runs is safe.
        return fit_pipeline(cfg, base_flows)

    # -- LoRA path
    lora_pipe = pretrain(41)
    snapshot = {
        name: p.data.copy()
        for name, p in lora_pipe.denoiser.named_parameters()
    }
    lora_pipe.add_class(holdout, new_flows, rank=rank, steps=steps)
    drift = 0.0
    for name, p in lora_pipe.denoiser.named_parameters():
        if name in snapshot:
            drift += float(np.sum((p.data - snapshot[name]) ** 2))
    from repro.core.lora import lora_parameters

    lora_trainable = sum(p.size for p in lora_parameters(lora_pipe.denoiser))
    lora_flows = [f for f in lora_pipe.generate(holdout, 12) if len(f) > 0]
    lora_fid = _fidelity(lora_flows, real_matrices, config)

    # -- full fine-tune path: continue training every base parameter
    full_pipe = pretrain(43)
    before = {
        name: p.data.copy()
        for name, p in full_pipe.denoiser.named_parameters()
    }
    full_trainable = sum(p.size for p in full_pipe.denoiser.parameters())
    _full_finetune(full_pipe, holdout, new_flows, steps)
    full_drift = 0.0
    for name, p in full_pipe.denoiser.named_parameters():
        full_drift += float(np.sum((p.data - before[name]) ** 2))
    full_flows = [f for f in full_pipe.generate(holdout, 12) if len(f) > 0]
    full_fid = _fidelity(full_flows, real_matrices, config)

    return LoraAblationResult(
        lora_trainable=lora_trainable,
        full_trainable=full_trainable,
        lora_base_drift=drift,
        full_base_drift=full_drift,
        lora_fidelity=lora_fid,
        full_fidelity=full_fid,
    )


def _fidelity(flows, real_matrices, config: ExperimentConfig) -> float:
    if not flows:
        return 0.0
    matrices = encode_flows(flows, config.pipeline.max_packets)
    return bit_fidelity(real_matrices, matrices)


def _full_finetune(
    pipeline: TextToTrafficPipeline,
    class_name: str,
    flows,
    steps: int,
) -> None:
    """Register the new class and fine-tune *all* denoiser weights."""
    from repro.ml.nn import Adam

    prompt, latents = pipeline._register_class(class_name, flows)
    params = pipeline.denoiser.parameters() + pipeline.prompt_encoder.parameters()
    optimizer = Adam(params, lr=pipeline.config.learning_rate)
    pipeline._training_loop(
        latents, [prompt] * len(flows), optimizer, steps,
        masks=None, verbose=False, tag="full-ft",
    )
