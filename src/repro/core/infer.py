"""Compiled inference plans for the denoiser sampling path.

§4 of the paper names generative speed — the ``steps x chunks x workers``
denoiser evaluations of the sampling loop — as *the* open challenge for
high-throughput trace generation.  The eager path pays three taxes per
evaluation that training never needs: autograd ``Tensor`` bookkeeping,
fresh allocations for every intermediate, and re-projection of per-step /
per-class conditioning that is constant across an entire streaming run.

:func:`compile_denoiser` removes all three.  It walks a
:class:`~repro.core.denoiser.ConditionalDenoiser` module tree once and
emits a flat plan of raw-``ndarray`` kernels:

* **Fused kernels** — ``Linear -> SiLU`` and ``LayerNorm ->
  add-conditioning`` execute as in-place ufunc chains writing through
  ``out=`` / ``np.matmul(..., out=)`` into buffers from a shape-keyed
  :class:`WorkspacePool`, so steady-state DDIM steps perform **zero**
  large allocations (counter-pinned by ``tests/test_infer.py``).
* **Weight packs** — per-layer contiguous weight/bias arrays fed
  straight to ``np.matmul``, the same BLAS product the eager path runs.
* **Conditioning caches** — for a fixed DDIM schedule, the projected
  time embedding ``t_hidden`` is computed once per (timestep, rows), and
  the class conditioning ``c_hidden`` / ControlNet injections once per
  (prompt, rows, weight, mask), then reused across every step, chunk and
  worker batch of a streaming run.  That hoist runs off packs of the
  prompt encoder's embedding table and the ControlNet's ``Linear``
  layers, cast to the engine dtype once at compile time — one cast per
  dtype, no module copies.

Parity is a hard guarantee, not a tolerance: every kernel replicates the
eager op sequence ufunc-for-ufunc (``sum * (1/n)`` for means,
``np.power(v + eps, -0.5)`` for the inverse std, ``x * (1/(1+exp(-x)))``
for SiLU, NEP-50 Python-float scalars), so float64 compiled output is
**bitwise identical** to the eager tape and float32 matches the eager
tape run on float32 copies of the modules bitwise as well.
``tests/test_infer.py`` pins both.

This engine is the only sampler behind
:meth:`~repro.core.pipeline.TextToTrafficPipeline._eps_model`.  Module
trees it does not recognise raise :class:`CompileError`; the pipeline
compiles a :func:`~repro.core.lora.merge_lora`'d copy when the live
denoiser carries LoRA adapters, so every class runs compiled.  The eager
autograd tape (:meth:`ConditionalDenoiser.forward`) remains the oracle
the parity tests compare against.
"""

from __future__ import annotations

import sys

import numpy as np

from repro import perf
from repro.core.controlnet import ControlNetBranch
from repro.core.denoiser import ConditionalDenoiser, sinusoidal_time_embedding
from repro.core.prompt import PromptEncoder, pooling_weights
from repro.ml.nn.modules import LayerNorm, Linear

__all__ = [
    "CompileError",
    "CompiledDenoiser",
    "WorkspacePool",
    "compile_denoiser",
]


class CompileError(TypeError):
    """The module tree is not expressible as a compiled plan."""


class WorkspacePool:
    """Refcount-guarded reusable buffers keyed by (shape, dtype).

    A buffer is free for reuse iff its only references are the bucket
    list, the scan loop variable and ``sys.getrefcount``'s own argument
    (== 3).  Buffers the caller still holds — the previous step's
    ``eps`` kept alive by the sampler loop, a view's ``.base`` — bump
    the count and are skipped, so a live array is never handed out
    twice.  After a warm-up step or two the per-step working set
    settles onto the same buffers and ``infer.ws_miss`` /
    ``infer.ws_bytes`` stop moving: steady-state sampling allocates
    nothing.

    Single-threaded by design: one engine per process.
    """

    _MAX_PER_KEY = 8

    def __init__(self) -> None:
        self._store: dict[tuple, list[np.ndarray]] = {}

    def take(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        key = (tuple(shape), np.dtype(dtype).str)
        bucket = self._store.get(key)
        if bucket is None:
            bucket = self._store[key] = []
        for arr in bucket:
            if sys.getrefcount(arr) == 3:
                perf.incr("infer.ws_hit")
                return arr
        arr = np.empty(shape, dtype)
        perf.incr("infer.ws_miss")
        perf.incr("infer.ws_bytes", arr.nbytes)
        if len(bucket) < self._MAX_PER_KEY:
            bucket.append(arr)
        return arr

    def clear(self) -> None:
        self._store.clear()


# -- weight packs ----------------------------------------------------------


class _LinearPack:
    """Contiguous weight/bias arrays for one affine layer."""

    __slots__ = ("w", "b")

    def __init__(self, layer: Linear, dtype: np.dtype, name: str):
        if (
            not isinstance(layer, Linear)
            or type(layer).forward is not Linear.forward
        ):
            raise CompileError(
                f"{name}: expected a plain Linear, got "
                f"{type(layer).__name__}"
            )
        self.w = np.ascontiguousarray(layer.weight.data, dtype=dtype)
        self.b = (
            np.ascontiguousarray(layer.bias.data, dtype=dtype)
            if layer.bias is not None
            else None
        )


class _NormPack:
    """Gamma/beta/eps for one LayerNorm, plus the 1/H mean scale."""

    __slots__ = ("gamma", "beta", "eps", "inv_dim")

    def __init__(self, layer: LayerNorm, dtype: np.dtype, name: str):
        if (
            not isinstance(layer, LayerNorm)
            or type(layer).forward is not LayerNorm.forward
        ):
            raise CompileError(
                f"{name}: expected a LayerNorm, got {type(layer).__name__}"
            )
        self.gamma = np.ascontiguousarray(layer.gamma.data, dtype=dtype)
        self.beta = np.ascontiguousarray(layer.beta.data, dtype=dtype)
        # Python floats: NEP 50 keeps them weak, matching the eager
        # Tensor scalar lift at either dtype.
        self.eps = float(layer.eps)
        self.inv_dim = 1.0 / self.gamma.shape[0]


class _PromptPack:
    """The prompt encoder's embedding table at the engine dtype."""

    __slots__ = ("table", "tokenize")

    def __init__(self, encoder: PromptEncoder, dtype: np.dtype):
        self.table = np.ascontiguousarray(
            encoder.embedding.table.data, dtype=dtype
        )
        self.tokenize = encoder.prompt_table

    def encode(self, prompt: str, rows: int) -> np.ndarray:
        """``rows`` conditioning rows for ``prompt``.

        The row gather, pooling weights and token sum of
        :meth:`~repro.core.prompt.PromptEncoder.forward_ids` (and of the
        compiled trainer) over all ``rows`` rows.
        """
        perf.incr("infer.hoist_prompt")
        ids, mask = self.tokenize([prompt] * rows)
        weights = pooling_weights(mask)[:, :, None].astype(
            self.table.dtype, copy=False
        )
        return (self.table[ids] * weights).sum(axis=1)


class _ControlPack:
    """The ControlNet branch's ``Linear`` layers at the engine dtype."""

    __slots__ = ("pool_mask", "encoder1", "encoder2", "zero")

    def __init__(self, controlnet: ControlNetBranch, dtype: np.dtype):
        self.pool_mask = controlnet.pool_mask
        self.encoder1 = _LinearPack(
            controlnet.encoder1, dtype, "controlnet.encoder1"
        )
        self.encoder2 = _LinearPack(
            controlnet.encoder2, dtype, "controlnet.encoder2"
        )
        self.zero = [
            _LinearPack(proj, dtype, f"controlnet.zero{i}")
            for i, proj in enumerate(controlnet.zero_projections)
        ]

    def injections(self, masks: np.ndarray) -> list[np.ndarray]:
        """Per-block injections for a ``(rows, 1088)`` mask batch.

        ``[t.data for t in controlnet(masks)]``: the same pooling,
        products and ufunc order, with no autograd tape.
        """
        perf.incr("infer.hoist_controls")
        h = _dense(self.encoder1, self.pool_mask(masks))
        h = _silu(h, np.empty_like(h))
        h = _dense(self.encoder2, h)
        h = _silu(h, np.empty_like(h))
        return [_dense(proj, h) for proj in self.zero]


# -- fused kernels ---------------------------------------------------------
#
# Each kernel replicates the eager Tensor op sequence exactly; in-place
# ufuncs (``out=``) are bitwise-identical to their allocating forms, and
# commuted operands are only used for commutative ufuncs.


def _affine(pack: _LinearPack, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out = x @ w + b``, the product written straight into ``out``."""
    np.matmul(x, pack.w, out=out)
    if pack.b is not None:
        out += pack.b
    return out


def _dense(pack: _LinearPack, x: np.ndarray) -> np.ndarray:
    """``x @ w + b`` into a fresh array, for the cached conditioning."""
    out = np.empty((x.shape[0], pack.w.shape[1]), pack.w.dtype)
    return _affine(pack, x, out)


def _silu(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out = x * (1 / (1 + exp(-x)))`` — eager ``Tensor.silu`` order."""
    np.negative(x, out=out)
    np.exp(out, out=out)
    out += 1.0
    np.divide(1.0, out, out=out)
    np.multiply(x, out, out=out)
    return out


def _layernorm(
    pack: _NormPack,
    x: np.ndarray,
    out: np.ndarray,
    sq: np.ndarray,
    mu: np.ndarray,
    var: np.ndarray,
) -> np.ndarray:
    """LayerNorm into ``out``; ``sq`` is (rows, H) scratch.

    Mirrors the eager form ufunc-for-ufunc: means as ``sum * (1/H)``
    (not ``np.mean``), the inverse std as ``np.power(var + eps, -0.5)``
    (not ``1/sqrt``), and ``x - mu`` computed once — the eager path
    computes it twice, bitwise-identically.
    """
    np.sum(x, axis=-1, keepdims=True, out=mu)
    mu *= pack.inv_dim
    np.subtract(x, mu, out=out)  # == x + (-mu) bitwise
    np.multiply(out, out, out=sq)
    np.sum(sq, axis=-1, keepdims=True, out=var)
    var *= pack.inv_dim
    var += pack.eps
    np.power(var, -0.5, out=var)
    np.multiply(out, var, out=out)
    np.multiply(out, pack.gamma, out=out)
    out += pack.beta
    return out


# -- the compiled engine ---------------------------------------------------


class CompiledDenoiser:
    """A flat no-tape execution plan for one denoiser at one dtype.

    Weight packs alias the live float64 parameters (contiguous float64
    input makes ``ascontiguousarray`` a no-op) and are cast copies at
    float32, so the engine must be rebuilt when the weights change — the
    pipeline drops its engines on fit / add_class.  The optional prompt
    encoder and ControlNet packs feed :meth:`conditioned_eps`.
    """

    def __init__(
        self,
        denoiser: ConditionalDenoiser,
        dtype=None,
        prompt_encoder: PromptEncoder | None = None,
        controlnet: ControlNetBranch | None = None,
    ):
        if not isinstance(denoiser, ConditionalDenoiser):
            raise CompileError(
                f"expected a ConditionalDenoiser, got "
                f"{type(denoiser).__name__}"
            )
        self.dtype = np.dtype(dtype or np.float64)
        if self.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise CompileError(f"unsupported dtype {self.dtype}")
        self.hidden = denoiser.hidden
        self.time_dim = denoiser.time_dim
        self.latent_dim = denoiser.latent_dim

        dt = self.dtype
        self.input_proj = _LinearPack(denoiser.input_proj, dt, "input_proj")
        self.time_proj1 = _LinearPack(denoiser.time_proj1, dt, "time_proj1")
        self.time_proj2 = _LinearPack(denoiser.time_proj2, dt, "time_proj2")
        self.cond_proj = _LinearPack(denoiser.cond_proj, dt, "cond_proj")
        self.blocks = [
            (
                _NormPack(block.norm, dt, f"block{i}.norm"),
                _LinearPack(block.fc1, dt, f"block{i}.fc1"),
                _LinearPack(block.fc2, dt, f"block{i}.fc2"),
            )
            for i, block in enumerate(denoiser.blocks)
        ]
        self.out_norm = _NormPack(denoiser.out_norm, dt, "out_norm")
        self.output_proj = _LinearPack(
            denoiser.output_proj, dt, "output_proj"
        )
        self.prompts = (
            _PromptPack(prompt_encoder, dt)
            if prompt_encoder is not None else None
        )
        self.controls = (
            _ControlPack(controlnet, dt) if controlnet is not None else None
        )

        self.pool = WorkspacePool()
        #: (timestep, rows) -> projected time embedding, shared by every
        #: step of every chunk/batch with that row count
        self._t_hidden: dict[tuple[int, int], np.ndarray] = {}
        #: conditioning key -> ready eps closure (see ``eps_model``)
        self.eps_cache: dict[tuple, "EpsClosure"] = {}
        perf.incr("infer.compile")

    #: cache bounds for long-lived processes (the serving tier sees a
    #: new (rows, prompt) key per distinct batch composition); oldest
    #: entries are evicted first.  A batch-export run never hits these.
    max_eps_cache = 128
    max_t_cache = 4096

    # -- conditioning caches ----------------------------------------------

    def t_hidden(self, timestep: int, rows: int) -> np.ndarray:
        """``time_proj2(silu(time_proj1(embed(t))))`` cached per (t, rows).

        One embedded row broadcast to ``rows`` (bitwise what the eager
        forward computes row by row: the embedding is elementwise), then
        projected once and reused for every forward at this (timestep,
        batch) for the lifetime of the engine.
        """
        key = (int(timestep), int(rows))
        cached = self._t_hidden.get(key)
        if cached is not None:
            perf.incr("infer.t_cache_hit")
            return cached
        perf.incr("infer.t_cache_miss")
        row = sinusoidal_time_embedding(
            np.asarray([key[0]], dtype=np.int64), self.time_dim
        ).astype(self.dtype, copy=False)
        h1 = _dense(
            self.time_proj1, np.broadcast_to(row, (rows, self.time_dim))
        )
        th = _dense(self.time_proj2, _silu(h1, np.empty_like(h1)))
        self._t_hidden[key] = th
        if len(self._t_hidden) > self.max_t_cache:
            self._t_hidden.pop(next(iter(self._t_hidden)))
            perf.incr("infer.t_cache_evict")
        return th

    def cond_hidden(self, cond: np.ndarray) -> np.ndarray:
        """Project a conditioning batch once (cached via ``eps_model``)."""
        return _dense(self.cond_proj, cond)

    # -- the plan ----------------------------------------------------------

    def forward(
        self,
        x: np.ndarray,
        timestep: int,
        c_hidden: np.ndarray,
        controls: list[np.ndarray] | None,
    ) -> np.ndarray:
        """One no-tape denoiser evaluation; returns a pooled buffer.

        The returned array stays valid until the caller drops its
        reference (the refcount guard protects it from reuse while
        held).  Bitwise-identical to
        ``denoiser(Tensor(x), t_vec, Tensor(cond), controls).data``.
        """
        rows = x.shape[0]
        hid = self.hidden
        dt = self.dtype
        perf.incr("infer.forward")
        perf.incr("infer.rows", rows)
        pool = self.pool
        h = pool.take((rows, hid), dt)
        a = pool.take((rows, hid), dt)
        b = pool.take((rows, hid), dt)
        c = pool.take((rows, hid), dt)
        mu = pool.take((rows, 1), dt)
        var = pool.take((rows, 1), dt)
        t_h = self.t_hidden(timestep, rows)

        _affine(self.input_proj, x, h)
        for i, (norm, fc1, fc2) in enumerate(self.blocks):
            # LayerNorm -> add-conditioning, fused in place.
            _layernorm(norm, h, out=a, sq=b, mu=mu, var=var)
            a += t_h
            a += c_hidden
            if controls is not None:
                a += controls[i]
            # Linear -> SiLU, fused through scratch buffers.
            _affine(fc1, a, out=b)
            _silu(b, out=c)
            _affine(fc2, c, out=a)
            h += a
        _layernorm(self.out_norm, h, out=a, sq=b, mu=mu, var=var)
        out = pool.take((rows, self.latent_dim), dt)
        _affine(self.output_proj, a, out=out)
        return out

    def prewarm(self, batch: int, guided: bool = True) -> None:
        """Preallocate the per-forward buffers for ``batch`` sampler rows.

        Guided sampling runs the plan over ``2 * batch`` fused-CFG rows
        and combines into two alternating ``(batch, latent)`` buffers.
        Taking the buffers and dropping the references leaves them in
        the pool at refcount 3 — allocated, and free for the first step.
        """
        rows = 2 * batch if guided else batch
        shapes = (
            [(rows, self.hidden)] * 4
            + [(rows, 1)] * 2
            + [(rows, self.latent_dim)] * 2
        )
        if guided:
            shapes += [(batch, self.latent_dim)] * 2
        grabbed = [self.pool.take(shape, self.dtype) for shape in shapes]
        del grabbed

    # -- sampler-facing closures ------------------------------------------

    def conditioned_eps(
        self,
        prompt: str,
        null_prompt: str,
        rows: int,
        mask: np.ndarray | None,
        guidance_weight: float,
    ):
        """The eps closure for ``rows`` rows of ``prompt``, hoisted once.

        Encodes ``prompt`` (and ``null_prompt`` when guidance is on) and
        the ControlNet injections of ``mask`` off the compile-time packs,
        then hands them to :meth:`eps_model`.  Every product runs over
        all ``rows`` rows: one row broadcast would round differently
        from the same row inside a GEMM.  The closure is cached under
        ``(prompt, rows, weight, mask bytes)``, so a class whose mask is
        replaced never samples with the old mask's injections.
        """
        if mask is not None:
            mask = np.asarray(mask, dtype=np.float64)
        weight = float(guidance_weight)
        key = (
            prompt, int(rows), weight,
            None if mask is None else mask.tobytes(),
        )
        cached = self.eps_cache.get(key)
        if cached is not None:
            perf.incr("infer.eps_cache_hit")
            return cached
        with perf.timer("infer.hoist"):
            cond = self.prompts.encode(prompt, rows)
            null = (
                self.prompts.encode(null_prompt, rows) if weight > 0
                else None
            )
            controls = None
            if mask is not None and self.controls is not None:
                # A writable (rows, 1088) batch, not a zero-stride view.
                masks = np.ascontiguousarray(
                    np.broadcast_to(mask, (rows, mask.shape[0])),
                    dtype=self.dtype,
                )
                controls = self.controls.injections(masks)
        return self.eps_model(cond, null, weight, controls=controls, key=key)

    def eps_model(
        self,
        cond: np.ndarray,
        null_cond: np.ndarray | None,
        guidance_weight: float,
        controls: list[np.ndarray] | None = None,
        key: tuple | None = None,
    ):
        """Build (or fetch) an eps closure with cached conditioning.

        ``cond`` / ``null_cond`` are raw conditioning batches of the
        closure's fixed row count; ``controls`` the per-block ControlNet
        injections for the conditional half.  The projected conditioning
        and the guided-mode concatenations are computed here, once, and
        captured — repeated calls with the same ``key`` return the same
        closure, so a streaming run re-encodes nothing per chunk.
        """
        if key is not None:
            cached = self.eps_cache.get(key)
            if cached is not None:
                perf.incr("infer.eps_cache_hit")
                return cached
            perf.incr("infer.eps_cache_miss")
        weight = float(guidance_weight)
        rows = cond.shape[0]
        pool = self.pool
        latent = self.latent_dim

        if null_cond is None or weight <= 0:
            c_h = self.cond_hidden(cond)
            ctrl = (
                [np.asarray(ci) for ci in controls]
                if controls is not None
                else None
            )

            def eps(x_t: np.ndarray, t) -> np.ndarray:
                return self.forward(
                    x_t, _constant_timestep(t), c_h, ctrl
                )

        else:
            cond2 = np.concatenate([cond, null_cond], axis=0)
            c_h = self.cond_hidden(cond2)
            ctrl = None
            if controls is not None:
                # Null half receives zero injections: bitwise the
                # unconditional forward with controls=None.
                ctrl = [
                    np.concatenate([ci, np.zeros_like(ci)], axis=0)
                    for ci in controls
                ]

            def eps(x_t: np.ndarray, t) -> np.ndarray:
                m = len(x_t)
                if m != rows:
                    raise ValueError(
                        f"compiled eps model is specialised for {rows} "
                        f"rows, got {m}"
                    )
                x2 = pool.take((2 * m, x_t.shape[1]), self.dtype)
                x2[:m] = x_t
                x2[m:] = x_t
                out = self.forward(
                    x2, _constant_timestep(t), c_h, ctrl
                )
                guided = pool.take((m, latent), self.dtype)
                scratch = pool.take((m, latent), self.dtype)
                # (1 + w) * eps_cond - w * eps_null, in place.
                np.multiply(out[:m], 1.0 + weight, out=guided)
                np.multiply(out[m:], weight, out=scratch)
                np.subtract(guided, scratch, out=guided)
                return guided

        if key is not None:
            self.eps_cache[key] = eps
            if len(self.eps_cache) > self.max_eps_cache:
                self.eps_cache.pop(next(iter(self.eps_cache)))
                perf.incr("infer.eps_cache_evict")
        return eps


def _constant_timestep(t) -> int:
    """The single timestep shared by a sampler batch."""
    t_arr = np.asarray(t)
    if t_arr.ndim == 0:
        return int(t_arr)
    t0 = t_arr.flat[0]
    if t_arr.size > 1 and not np.all(t_arr == t0):
        raise CompileError(
            "compiled inference requires a constant timestep vector"
        )
    return int(t0)


def compile_denoiser(
    denoiser: ConditionalDenoiser,
    batch: int | None = None,
    dtype=None,
    prompt_encoder: PromptEncoder | None = None,
    controlnet: ControlNetBranch | None = None,
) -> CompiledDenoiser:
    """Compile ``denoiser`` into a :class:`CompiledDenoiser` plan.

    ``batch`` pre-warms the workspace pool for that row count so even
    the first step of a run allocates nothing large.  ``prompt_encoder``
    and ``controlnet`` are packed at ``dtype`` alongside the denoiser
    for :meth:`CompiledDenoiser.conditioned_eps`.  Raises
    :class:`CompileError` for module trees the plan cannot express
    (LoRA-wrapped layers, subclassed forwards, non-float dtypes).
    """
    engine = CompiledDenoiser(
        denoiser, dtype=dtype,
        prompt_encoder=prompt_encoder, controlnet=controlnet,
    )
    if batch is not None:
        engine.prewarm(batch)
    return engine
