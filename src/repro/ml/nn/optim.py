"""The Adam optimizer.

Updates run as in-place ufunc chains through per-shape scratch buffers:
a step allocates nothing once the scratch pool is warm, and every chain
replicates the legacy allocating expressions operation-for-operation
(same operand order up to ufunc commutativity), so parameter trajectories
stay bitwise-identical — pinned by ``tests/test_optim_inplace.py``.
"""

from __future__ import annotations

import numpy as np

from repro.ml.nn.autograd import Tensor


class Adam:
    """Adam (Kingma & Ba, 2015) with bias correction."""

    def __init__(self, params: list[Tensor], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0
        # shape -> scratch ndarrays shared by every same-shape parameter;
        # filled lazily so construction stays allocation-free.
        self._scratch: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self._t
        bias2 = 1.0 - b2 ** self._t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            shape = p.data.shape
            scratch = self._scratch.get(shape)
            if scratch is None:
                scratch = self._scratch[shape] = (
                    np.empty(shape, dtype=np.float64),
                    np.empty(shape, dtype=np.float64),
                )
            s1, s2 = scratch
            grad = p.grad
            m *= b1
            np.multiply(grad, 1 - b1, out=s1)  # (1 - b1) * grad
            m += s1
            v *= b2
            np.multiply(grad, 1 - b2, out=s1)  # ((1 - b2) * grad) * grad
            np.multiply(s1, grad, out=s1)
            v += s1
            np.divide(m, bias1, out=s2)  # m_hat
            np.divide(v, bias2, out=s1)  # v_hat
            np.sqrt(s1, out=s1)
            s1 += self.eps
            # p.data -= lr * m_hat / (sqrt(v_hat) + eps)
            np.multiply(s2, self.lr, out=s2)
            np.divide(s2, s1, out=s2)
            np.subtract(p.data, s2, out=p.data)
