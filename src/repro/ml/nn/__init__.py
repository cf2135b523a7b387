"""Minimal NumPy neural-network framework (autograd, modules, optimizers).

Every trainable model in the repository — the latent-diffusion denoiser,
ControlNet branch, LoRA adapters, and the GAN baselines — is built from
these pieces.  The autograd engine is finite-difference checked in the
test suite.
"""

from repro.ml.nn.autograd import Tensor, concat, embedding_lookup, where
from repro.ml.nn.functional import bce_with_logits, mse_loss, softmax_cross_entropy
from repro.ml.nn.modules import (
    Embedding,
    LayerNorm,
    LeakyReLU,
    Linear,
    Module,
    ReLU,
    Sequential,
    SiLU,
    Tanh,
    ZeroLinear,
    mlp,
)
from repro.ml.nn.ema import ExponentialMovingAverage
from repro.ml.nn.optim import SGD, Adam, CosineWarmupSchedule, Optimizer

__all__ = [
    "Tensor",
    "concat",
    "embedding_lookup",
    "where",
    "Module",
    "Linear",
    "ZeroLinear",
    "Embedding",
    "LayerNorm",
    "Sequential",
    "SiLU",
    "ReLU",
    "LeakyReLU",
    "Tanh",
    "mlp",
    "Optimizer",
    "SGD",
    "Adam",
    "CosineWarmupSchedule",
    "ExponentialMovingAverage",
    "mse_loss",
    "bce_with_logits",
    "softmax_cross_entropy",
]
