"""Eager-tape oracles for the compiled sampling and training engines.

The compiled plans (:mod:`repro.core.infer`, :mod:`repro.core.train`)
are the only engines the pipeline runs.  These helpers rebuild the
reference they must match straight from the modules' autograd forwards:

* :func:`eager_eps_model` — the fused classifier-free-guided eps closure
  over :meth:`ConditionalDenoiser.forward` on ``Tensor`` inputs (at
  float32, over float32 copies of the modules: :func:`modules_at`);
* :func:`eager_sample_latents` — that closure driven through
  :class:`~repro.core.ddim.DDIMSampler` with the pipeline's batch split,
  the oracle for :meth:`TextToTrafficPipeline.sample_latents`;
* :func:`eager_training` — routes every ``_training_loop`` of a fit
  through the tape branch (``eager=True``).
"""

from __future__ import annotations

import copy
from contextlib import contextmanager

import numpy as np

from repro.core.ddim import DDIMSampler
from repro.core.pipeline import NULL_PROMPT, TextToTrafficPipeline
from repro.ml.nn import Tensor


def modules_at(pipeline, dtype=None):
    """(prompt_encoder, denoiser, controlnet) with parameters in ``dtype``.

    float64 (or ``None``) returns the live modules; any other dtype
    deep-copies each one and casts every parameter with ``astype`` — a
    reference cast made independently of the engine's weight packs.
    """
    modules = (pipeline.prompt_encoder, pipeline.denoiser,
               pipeline.controlnet)
    if dtype is None or np.dtype(dtype) == np.float64:
        return modules
    copies = []
    for module in modules:
        if module is not None:
            module = copy.deepcopy(module)
            for _, param in module.named_parameters():
                param.data = param.data.astype(dtype)
        copies.append(module)
    return tuple(copies)


def eager_eps_model(pipeline, prompt, n, mask, guidance_weight, dtype=None,
                    modules=None):
    """Hoisted-conditioning eps closure evaluated on the autograd tape."""
    prompt_encoder, denoiser, controlnet = (
        modules or modules_at(pipeline, dtype))
    cond_full = prompt_encoder([prompt] * n).data
    null_full = (
        prompt_encoder([NULL_PROMPT] * n).data if guidance_weight > 0
        else None
    )
    controls_full = None
    if mask is not None and controlnet is not None:
        mask_batch = np.ascontiguousarray(
            np.broadcast_to(mask, (n, mask.shape[0])))
        if dtype is not None:
            mask_batch = mask_batch.astype(dtype, copy=False)
        controls_full = [c.data for c in controlnet(mask_batch)]

    def eps(x_t, t):
        m = len(x_t)
        if guidance_weight <= 0:
            controls = None
            if controls_full is not None:
                controls = [Tensor(c[:m]) for c in controls_full]
            return denoiser(
                Tensor(x_t), t, Tensor(cond_full[:m]), controls).data
        # Fused guidance: [cond rows; null rows], zero null injections.
        x2 = np.concatenate([x_t, x_t], axis=0)
        t2 = np.concatenate([t, t], axis=0)
        c2 = Tensor(np.concatenate([cond_full[:m], null_full[:m]], axis=0))
        controls2 = None
        if controls_full is not None:
            controls2 = [
                Tensor(np.concatenate([c[:m], np.zeros_like(c[:m])], axis=0))
                for c in controls_full
            ]
        out = denoiser(Tensor(x2), t2, c2, controls2).data
        return (1 + guidance_weight) * out[:m] - guidance_weight * out[m:]

    return eps


def eager_sample_latents(pipeline, class_name, n, steps=None,
                         use_control=True, guidance_weight=None, rng=None,
                         dtype=None):
    """The eager-tape twin of ``pipeline.sample_latents``."""
    cfg = pipeline.config
    steps = steps or cfg.ddim_steps
    weight = cfg.guidance_weight if guidance_weight is None \
        else guidance_weight
    prompt = pipeline.codebook.prompt_for(class_name)
    mask = pipeline.class_masks.get(class_name) if use_control else None
    sampler = DDIMSampler(pipeline.diffusion)
    modules = modules_at(pipeline, dtype)
    out = []
    remaining = n
    while remaining > 0:
        batch = min(remaining, cfg.generation_batch)
        eps = eager_eps_model(pipeline, prompt, batch, mask, weight, dtype,
                              modules)
        out.append(sampler.sample(
            eps, (batch, pipeline.codec.latent_dim), rng,
            steps=steps, dtype=dtype))
        remaining -= batch
    return np.concatenate(out, axis=0)


@contextmanager
def eager_training():
    """Fit on the autograd tape: every ``_training_loop`` gets eager=True."""
    original = TextToTrafficPipeline._training_loop

    def tape_loop(self, *args, **kwargs):
        return original(self, *args, **{**kwargs, "eager": True})

    TextToTrafficPipeline._training_loop = tape_loop
    try:
        yield
    finally:
        TextToTrafficPipeline._training_loop = original
