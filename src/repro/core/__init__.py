"""The paper's contribution: controllable diffusion-based trace synthesis.

A three-tier text-to-traffic system (§3.1): a latent diffusion base model
for granularity, LoRA adapters for coverage extension, and a ControlNet
branch (plus hard structure guidance) for inter-packet constraints.
"""

from repro.core.autoencoder import LatentCodec
from repro.core.controlnet import (
    ControlNetBranch,
    apply_structure_guidance,
    structure_mask,
)
from repro.core.ddim import DDIMSampler, ddim_timesteps
from repro.core.ddpm import GaussianDiffusion
from repro.core.denoiser import ConditionalDenoiser, sinusoidal_time_embedding
from repro.core.infer import CompiledDenoiser, compile_denoiser
from repro.core.train import CompiledTrainer, compile_training
from repro.core.lora import LoRALinear, inject_lora, lora_parameters, merge_lora
from repro.core.pipeline import (
    NULL_PROMPT,
    GenerationResult,
    NonFiniteLatentsError,
    PipelineConfig,
    TextToTrafficPipeline,
)
from repro.core.postprocess import (
    channel_to_gaps,
    gaps_to_channel,
    matrix_to_flow,
    quantize_matrix,
    repair_guided,
    repair_matrix,
)
from repro.core.prompt import PromptCodebook, PromptEncoder, Vocabulary
from repro.core.schedule import NoiseSchedule, cosine_betas
from repro.core.staterepair import repair_flow_state, repair_flows_state
from repro.core.inpaint import DeblurResult, TrafficDeblurrer, field_mask
from repro.core.serialization import load_pipeline, save_pipeline
from repro.core.transfer import ConditionDirection, TrafficTranslator
from repro.core.anomaly import AnomalyReport, AnomalyScorer

__all__ = [
    "NoiseSchedule",
    "cosine_betas",
    "GaussianDiffusion",
    "DDIMSampler",
    "ddim_timesteps",
    "ConditionalDenoiser",
    "sinusoidal_time_embedding",
    "CompiledDenoiser",
    "compile_denoiser",
    "CompiledTrainer",
    "compile_training",
    "LatentCodec",
    "ControlNetBranch",
    "structure_mask",
    "apply_structure_guidance",
    "LoRALinear",
    "inject_lora",
    "lora_parameters",
    "merge_lora",
    "PromptCodebook",
    "PromptEncoder",
    "Vocabulary",
    "NULL_PROMPT",
    "PipelineConfig",
    "TextToTrafficPipeline",
    "GenerationResult",
    "NonFiniteLatentsError",
    "quantize_matrix",
    "repair_matrix",
    "repair_guided",
    "matrix_to_flow",
    "gaps_to_channel",
    "channel_to_gaps",
    "repair_flow_state",
    "repair_flows_state",
    "TrafficDeblurrer",
    "DeblurResult",
    "field_mask",
    "save_pipeline",
    "load_pipeline",
    "TrafficTranslator",
    "ConditionDirection",
    "AnomalyScorer",
    "AnomalyReport",
]
