"""Unit tests for NN modules, losses and optimizers."""

import numpy as np
import pytest

from repro.ml.nn import (
    Adam,
    Embedding,
    LayerNorm,
    Linear,
    Module,
    Sequential,
    SiLU,
    Tensor,
    ZeroLinear,
    bce_with_logits,
    mlp,
    mse_loss,
    softmax_cross_entropy,
)


@pytest.fixture
def rng():
    return np.random.default_rng(3)


class TestLinear:
    def test_output_shape(self, rng):
        layer = Linear(4, 7, rng=rng)
        out = layer(Tensor(rng.normal(size=(5, 4))))
        assert out.shape == (5, 7)

    def test_no_bias(self, rng):
        layer = Linear(4, 7, bias=False, rng=rng)
        assert layer.bias is None
        out = layer(Tensor(np.zeros((2, 4))))
        assert (out.data == 0).all()

    def test_parameters_registered(self, rng):
        layer = Linear(4, 7, rng=rng)
        assert len(layer.parameters()) == 2

    def test_zero_linear_is_identity_add(self, rng):
        layer = ZeroLinear(4, 4, rng=rng)
        out = layer(Tensor(rng.normal(size=(3, 4))))
        assert (out.data == 0).all()


class TestEmbedding:
    def test_lookup(self, rng):
        emb = Embedding(10, 4, rng=rng)
        out = emb(np.array([0, 3, 3]))
        assert out.shape == (3, 4)
        assert (out.data[1] == out.data[2]).all()

    def test_out_of_range_raises(self, rng):
        emb = Embedding(10, 4, rng=rng)
        with pytest.raises(IndexError):
            emb(np.array([10]))
        with pytest.raises(IndexError):
            emb(np.array([-1]))


class TestLayerNorm:
    def test_normalises_last_axis(self, rng):
        ln = LayerNorm(8)
        x = Tensor(rng.normal(3.0, 5.0, size=(4, 8)))
        out = ln(x).data
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        assert np.allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_affine_params_trainable(self):
        ln = LayerNorm(8)
        assert len(ln.parameters()) == 2


class TestModuleTree:
    def test_named_parameters_nested(self, rng):
        net = Sequential(Linear(2, 3, rng=rng), SiLU(), Linear(3, 1, rng=rng))
        names = [n for n, _ in net.named_parameters()]
        assert "layer0.weight" in names
        assert "layer2.bias" in names

    def test_state_dict_roundtrip(self, rng):
        net = mlp([3, 5, 2], rng=rng)
        state = net.state_dict()
        net2 = mlp([3, 5, 2], rng=np.random.default_rng(99))
        net2.load_state_dict(state)
        x = Tensor(rng.normal(size=(4, 3)))
        assert np.allclose(net(x).data, net2(x).data)

    def test_load_state_dict_missing_key_raises(self, rng):
        net = mlp([3, 5, 2], rng=rng)
        with pytest.raises(KeyError):
            net.load_state_dict({})

    def test_load_state_dict_shape_mismatch_raises(self, rng):
        net = mlp([3, 5, 2], rng=rng)
        state = net.state_dict()
        first = next(iter(state))
        state[first] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            net.load_state_dict(state)

    def test_frozen_params_excluded(self, rng):
        layer = Linear(3, 3, rng=rng)
        layer.weight.requires_grad = False
        assert layer.weight not in layer.parameters()
        assert dict(layer.named_parameters())["weight"] is layer.weight

    def test_n_parameters(self, rng):
        net = Linear(3, 4, rng=rng)
        assert net.n_parameters() == 3 * 4 + 4

    def test_mlp_validation(self):
        with pytest.raises(ValueError):
            mlp([5])


class TestLosses:
    def test_mse_zero_for_identical(self, rng):
        x = rng.normal(size=(4, 3))
        assert float(mse_loss(Tensor(x), x).data) == pytest.approx(0.0)

    def test_mse_matches_numpy(self, rng):
        a, b = rng.normal(size=(5, 2)), rng.normal(size=(5, 2))
        assert float(mse_loss(Tensor(a), b).data) == pytest.approx(
            np.mean((a - b) ** 2))

    def test_bce_matches_reference(self, rng):
        logits = rng.normal(size=(10, 1)) * 8
        targets = (rng.random((10, 1)) > 0.5).astype(float)
        ours = float(bce_with_logits(Tensor(logits), targets).data)
        ref = np.mean(
            np.maximum(logits, 0) - logits * targets
            + np.log1p(np.exp(-np.abs(logits)))
        )
        assert ours == pytest.approx(ref)

    def test_bce_stable_for_huge_logits(self):
        logits = Tensor(np.array([[1000.0], [-1000.0]]), requires_grad=True)
        loss = bce_with_logits(logits, np.array([[1.0], [0.0]]))
        assert np.isfinite(float(loss.data))
        loss.backward()
        assert np.isfinite(logits.grad).all()

    def test_softmax_ce_gradient(self, rng):
        logits = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        labels = rng.integers(0, 4, size=6)
        loss = softmax_cross_entropy(logits, labels)
        loss.backward()
        p = np.exp(logits.data - logits.data.max(-1, keepdims=True))
        p /= p.sum(-1, keepdims=True)
        expected = p.copy()
        expected[np.arange(6), labels] -= 1
        expected /= 6
        assert np.allclose(logits.grad, expected, atol=1e-9)

    def test_softmax_ce_perfect_prediction_near_zero(self):
        logits = Tensor(np.array([[100.0, 0.0], [0.0, 100.0]]))
        loss = softmax_cross_entropy(logits, np.array([0, 1]))
        assert float(loss.data) == pytest.approx(0.0, abs=1e-6)


class TestOptimizers:
    def _quadratic(self):
        target = np.array([3.0, -2.0])
        p = Tensor(np.zeros(2), requires_grad=True)

        def loss():
            diff = p - target
            return (diff * diff).sum()

        return p, loss, target

    def test_adam_converges(self):
        p, loss, target = self._quadratic()
        opt = Adam([p], lr=0.3)
        for _ in range(200):
            opt.zero_grad()
            loss().backward()
            opt.step()
        assert np.allclose(p.data, target, atol=1e-3)

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.0)

    def test_skips_params_without_grad(self):
        p = Tensor(np.ones(2), requires_grad=True)
        opt = Adam([p], lr=0.1)
        opt.step()  # no backward happened; must not crash
        assert (p.data == 1.0).all()

    def test_mlp_regression_end_to_end(self, rng):
        net = mlp([2, 32, 1], rng=rng)
        opt = Adam(net.parameters(), lr=1e-2)
        X = rng.normal(size=(128, 2))
        Y = X[:, :1] * X[:, 1:2]
        loss = None
        for _ in range(300):
            opt.zero_grad()
            loss = mse_loss(net(Tensor(X)), Y)
            loss.backward()
            opt.step()
        assert float(loss.data) < 0.05
