"""Finite-difference verification of the autograd engine."""

import numpy as np
import pytest

from repro.ml.nn.autograd import Tensor, embedding_lookup, where


def numeric_grad(fn, tensor, index, eps=1e-6):
    orig = tensor.data[index]
    tensor.data[index] = orig + eps
    plus = fn()
    tensor.data[index] = orig - eps
    minus = fn()
    tensor.data[index] = orig
    return (plus - minus) / (2 * eps)


def check_gradient(fn, tensors, atol=1e-6, samples=5, seed=0):
    """Compare analytic vs numeric gradients on random entries."""
    loss = fn()
    for t in tensors:
        t.zero_grad()
    loss = fn()
    loss.backward()
    rng = np.random.default_rng(seed)
    for t in tensors:
        assert t.grad is not None, "missing gradient"
        flat_indices = rng.choice(t.data.size, size=min(samples, t.data.size),
                                  replace=False)
        for fi in flat_indices:
            index = np.unravel_index(fi, t.data.shape)
            analytic = t.grad[index]
            numeric = numeric_grad(lambda: float(fn().data), t, index)
            assert analytic == pytest.approx(numeric, abs=atol), \
                f"grad mismatch at {index}: {analytic} vs {numeric}"


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestElementwiseOps:
    @pytest.mark.parametrize("op", [
        lambda a, b: a + b,
        lambda a, b: a - b,
        lambda a, b: a * b,
        lambda a, b: a / (b + 3.0),
    ])
    def test_binary_ops(self, rng, op):
        a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        check_gradient(lambda: op(a, b).sum(), [a, b])

    def test_broadcasting(self, rng):
        a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)
        check_gradient(lambda: (a * b + b).sum(), [a, b])

    def test_broadcast_keepdim_axis(self, rng):
        a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 1)), requires_grad=True)
        check_gradient(lambda: (a + b).sum(), [a, b])

    def test_scalar_operands(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        check_gradient(lambda: (2.0 * a + 1.0 - a / 2.0).sum(), [a])

    def test_pow(self, rng):
        a = Tensor(rng.uniform(0.5, 2.0, size=(5,)), requires_grad=True)
        check_gradient(lambda: (a ** 3).sum(), [a])

    @pytest.mark.parametrize("name", ["exp", "log", "tanh", "sigmoid",
                                      "silu", "sqrt"])
    def test_unary_ops(self, rng, name):
        a = Tensor(rng.uniform(0.3, 2.0, size=(6,)), requires_grad=True)
        check_gradient(lambda: getattr(a, name)().sum(), [a])

    def test_leaky_relu(self, rng):
        a = Tensor(rng.normal(size=(8,)) + 0.05, requires_grad=True)
        check_gradient(lambda: a.leaky_relu(0.1).sum(), [a])


class TestMatmul:
    def test_2d(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        check_gradient(lambda: (a @ b).sum(), [a, b])

    def test_vector_matrix(self, rng):
        a = Tensor(rng.normal(size=(4,)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        check_gradient(lambda: (a @ b).sum(), [a, b])

    def test_inner_product(self, rng):
        a = Tensor(rng.normal(size=(4,)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        check_gradient(lambda: a @ b, [a, b])


class TestReductionsAndShape:
    def test_sum_axis(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        check_gradient(lambda: (a.sum(axis=0) ** 2).sum(), [a])

    def test_sum_keepdims(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        check_gradient(
            lambda: (a - a.sum(axis=1, keepdims=True)).sum() + (a * a).sum(),
            [a],
        )

    def test_mean_and_var(self, rng):
        a = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        check_gradient(lambda: a.var(axis=1).sum() + a.mean(), [a])

    def test_reshape_transpose(self, rng):
        a = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
        check_gradient(
            lambda: (a.reshape(3, 4).transpose() ** 2).sum(), [a])

    def test_getitem(self, rng):
        a = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        check_gradient(lambda: (a[1:3] * 2).sum(), [a])

    def test_getitem_fancy(self, rng):
        a = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        rows = np.array([0, 0, 2])
        cols = np.array([1, 1, 3])
        check_gradient(lambda: a[rows, cols].sum(), [a])


class TestCompositeOps:
    def test_embedding_lookup_scatter(self, rng):
        table = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        idx = np.array([1, 1, 4])
        out = embedding_lookup(table, idx)
        out.sum().backward()
        # Row 1 looked up twice -> gradient 2 everywhere in that row.
        assert (table.grad[1] == 2.0).all()
        assert (table.grad[4] == 1.0).all()
        assert (table.grad[0] == 0.0).all()

    def test_where(self, rng):
        a = Tensor(rng.normal(size=(6,)), requires_grad=True)
        b = Tensor(rng.normal(size=(6,)), requires_grad=True)
        cond = rng.random(6) > 0.5
        check_gradient(lambda: where(cond, a, b).sum(), [a, b])

    def test_diamond_graph_accumulates(self, rng):
        a = Tensor(np.array([2.0]), requires_grad=True)
        y = a * a + a * 3.0
        y.backward()
        assert a.grad[0] == pytest.approx(2 * 2.0 + 3.0)

    def test_reused_tensor_many_paths(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        check_gradient(
            lambda: (a * a + a.tanh() * a + a.exp()).sum(), [a])


class TestBookkeeping:
    def test_no_grad_for_constants(self):
        a = Tensor(np.ones(3))
        b = Tensor(np.ones(3))
        out = a + b
        assert out._parents == ()

    def test_detach_cuts_graph(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        out = (a.detach() * 2).sum()
        out.backward()
        assert a.grad is None

    def test_zero_grad(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        (a * 2).sum().backward()
        assert a.grad is not None
        a.zero_grad()
        assert a.grad is None

    def test_backward_accumulates_across_calls(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        (a * 2).sum().backward()
        (a * 3).sum().backward()
        assert a.grad[0] == pytest.approx(5.0)

    def test_numpy_array_does_not_hijack_radd(self):
        a = Tensor(np.ones(3), requires_grad=True)
        out = np.ones(3) + a  # __array_priority__ routes to our __radd__
        assert isinstance(out, Tensor)
