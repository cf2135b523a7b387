"""Bitwise parity and allocation tests for the in-place Adam.

``Adam.step`` runs as an in-place ufunc chain through per-shape scratch
buffers instead of building fresh temporaries for every parameter every
step.  Two guarantees:

* **Parity** — the chain replicates the legacy allocating expressions
  operation-for-operation (up to ufunc commutativity), so parameter
  trajectories are bitwise-identical to the pre-change optimizer,
  reimplemented here as ``_legacy_adam_step``.
* **Steady state allocates nothing** — after the first step the scratch
  pool is warm: later steps reuse the exact same buffers and the pool
  never grows.

Also pinned here: the lazy gradient buffer in ``Tensor._accumulate`` —
``zero_grad`` only drops the reference, the persistent ``_grad_buf`` is
rewritten next step, and a caller still holding last step's ``p.grad``
gets a fresh array instead of having it clobbered.
"""

import numpy as np

from repro.ml.nn import Adam, Tensor


def _params(seed, shapes=((7, 5), (5,), (3, 7), (1,))):
    rng = np.random.default_rng(seed)
    return [
        Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes
    ]


def _grads(rng, params):
    return [rng.standard_normal(p.data.shape) for p in params]


def _legacy_adam_step(params, lr, betas, eps, m, v, t):
    """The pre-change allocating Adam update, expression-for-expression."""
    b1, b2 = betas
    bias1 = 1.0 - b1 ** t
    bias2 = 1.0 - b2 ** t
    for i, p in enumerate(params):
        if p.grad is None:
            continue
        grad = p.grad
        m[i] = b1 * m[i] + (1 - b1) * grad
        v[i] = b2 * v[i] + (1 - b2) * grad * grad
        m_hat = m[i] / bias1
        v_hat = v[i] / bias2
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + eps)


class TestAdamParity:
    def test_trajectory_bitwise_equal(self):
        fast = _params(0)
        slow = _params(0)
        opt = Adam(fast, lr=3e-3)
        m = [np.zeros_like(p.data) for p in slow]
        v = [np.zeros_like(p.data) for p in slow]
        rng_a, rng_b = np.random.default_rng(1), np.random.default_rng(1)
        for t in range(1, 26):
            for p, g in zip(fast, _grads(rng_a, fast)):
                p.grad = g
            for p, g in zip(slow, _grads(rng_b, slow)):
                p.grad = g
            opt.step()
            _legacy_adam_step(
                slow, opt.lr, (opt.beta1, opt.beta2), opt.eps, m, v, t,
            )
            for pf, ps in zip(fast, slow):
                np.testing.assert_array_equal(pf.data, ps.data)
        for mf, ms, vf, vs in zip(opt._m, m, opt._v, v):
            np.testing.assert_array_equal(mf, ms)
            np.testing.assert_array_equal(vf, vs)

    def test_none_grads_skipped(self):
        params = _params(2)
        opt = Adam(params, lr=1e-2)
        before = [p.data.copy() for p in params]
        params[0].grad = np.ones(params[0].data.shape)
        opt.step()
        assert not np.array_equal(params[0].data, before[0])
        for p, b in zip(params[1:], before[1:]):
            np.testing.assert_array_equal(p.data, b)

    def test_scratch_pool_warm_after_first_step(self):
        params = _params(3)
        opt = Adam(params, lr=1e-3)
        rng = np.random.default_rng(4)
        for p, g in zip(params, _grads(rng, params)):
            p.grad = g
        opt.step()
        snapshot = {
            shape: [id(b) for b in bufs]
            for shape, bufs in opt._scratch.items()
        }
        for _ in range(5):
            for p, g in zip(params, _grads(rng, params)):
                p.grad = g
            opt.step()
        assert {
            shape: [id(b) for b in bufs]
            for shape, bufs in opt._scratch.items()
        } == snapshot


class TestGradBufferReuse:
    def test_buffer_reused_across_zero_grad(self):
        p = Tensor(np.zeros(8), requires_grad=True)
        p._accumulate(np.ones(8))
        # Track identity without keeping a reference: a held reference
        # would (correctly) defeat the refcount guard.  ``_grad_buf``
        # keeps the array alive, so the id stays valid.
        addr = id(p.grad)
        p.zero_grad()
        assert p.grad is None
        p._accumulate(np.full(8, 2.0))
        assert id(p.grad) == addr
        np.testing.assert_array_equal(p.grad, np.full(8, 2.0))

    def test_held_reference_not_clobbered(self):
        p = Tensor(np.zeros(8), requires_grad=True)
        p._accumulate(np.ones(8))
        held = p.grad
        p.zero_grad()
        p._accumulate(np.full(8, 2.0))
        assert p.grad is not held
        np.testing.assert_array_equal(held, np.ones(8))
        np.testing.assert_array_equal(p.grad, np.full(8, 2.0))

    def test_second_accumulation_adds_in_place(self):
        p = Tensor(np.zeros(4), requires_grad=True)
        p._accumulate(np.ones(4))
        buf = p.grad
        p._accumulate(np.full(4, 3.0))
        assert p.grad is buf
        np.testing.assert_array_equal(p.grad, np.full(4, 4.0))

    def test_shape_change_allocates_fresh(self):
        p = Tensor(np.zeros(4), requires_grad=True)
        p._accumulate(np.ones(4))
        p.zero_grad()
        p._grad_buf = np.zeros(2)  # stale buffer from another life
        p._accumulate(np.full(4, 2.0))
        assert p.grad.shape == (4,)
        np.testing.assert_array_equal(p.grad, np.full(4, 2.0))
