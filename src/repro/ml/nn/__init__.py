"""Minimal NumPy neural-network framework (autograd, modules, Adam).

Every trainable model in the repository — the latent-diffusion denoiser,
ControlNet branch, LoRA adapters, and the GAN baselines — is built from
these pieces.  The autograd engine is finite-difference checked in the
test suite.
"""

from repro.ml.nn.autograd import Tensor
from repro.ml.nn.functional import bce_with_logits, mse_loss, softmax_cross_entropy
from repro.ml.nn.modules import (
    Embedding,
    LayerNorm,
    LeakyReLU,
    Linear,
    Module,
    Sequential,
    SiLU,
    Tanh,
    ZeroLinear,
    mlp,
)
from repro.ml.nn.optim import Adam

__all__ = [
    "Tensor",
    "Module",
    "Linear",
    "ZeroLinear",
    "Embedding",
    "LayerNorm",
    "Sequential",
    "SiLU",
    "LeakyReLU",
    "Tanh",
    "mlp",
    "Adam",
    "mse_loss",
    "bce_with_logits",
    "softmax_cross_entropy",
]
