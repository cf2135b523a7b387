"""A small reverse-mode automatic differentiation engine over NumPy.

Everything trainable in this repository — the diffusion denoiser, the
ControlNet branch, LoRA adapters, the GAN baselines — backpropagates
through this engine.  It is deliberately minimal: a :class:`Tensor` wraps
an ``ndarray``, records the operation that produced it, and ``backward()``
walks the tape in reverse topological order.

Broadcasting follows NumPy semantics; gradients are summed back over
broadcast dimensions (:func:`_unbroadcast`).  The engine is validated by
finite-difference gradient checks in ``tests/test_autograd.py``.
"""

from __future__ import annotations

import sys
from typing import Callable, Sequence

import numpy as np

Array = np.ndarray


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Reduce ``grad`` back to ``shape`` by summing broadcast axes."""
    if grad.shape == shape:
        return grad
    # Sum leading axes added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum axes that were 1 in the original shape.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """A NumPy array with an autograd tape.

    Only float arrays participate in gradients.  Construct leaves with
    ``Tensor(data, requires_grad=True)``; intermediate tensors are created
    by the operators below.

    Arrays are stored as float64 except float32 input, which is kept as-is:
    a module whose parameters are float32 runs whole forward passes in
    single precision (the tape reference for the compiled float32 tier),
    while training and any integer/float64 input keep the original
    float64 behaviour bit-for-bit.
    """

    __slots__ = (
        "data", "grad", "requires_grad", "_backward", "_parents", "_grad_buf"
    )
    __array_priority__ = 100  # numpy defers to our __radd__ etc.

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _backward: Callable[[Array], None] | None = None,
        _parents: Sequence["Tensor"] = (),
    ):
        array = np.asarray(data)
        if array.dtype != np.float32:
            array = np.asarray(array, dtype=np.float64)
        self.data = array
        self.grad: Array | None = None
        self.requires_grad = requires_grad
        self._backward = _backward
        self._parents = tuple(_parents)
        #: persistent first-accumulation buffer, reused across steps for
        #: leaf parameters (refcount-guarded; see ``_accumulate``).
        self._grad_buf: Array | None = None

    # -- bookkeeping -------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def numpy(self) -> Array:
        return self.data

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, grad: Array) -> None:
        grad = np.asarray(grad, dtype=np.float64)
        if self.grad is None:
            # ``zero_grad`` only drops the reference; the buffer itself is
            # kept and rewritten here, so steady-state training never
            # reallocates parameter gradients.  A buffer is reusable iff
            # its only references are the slot, the local binding and
            # getrefcount's argument (== 3): callers still holding last
            # step's ``p.grad`` get a fresh array instead.
            buf = self._grad_buf
            if (
                buf is not None
                and buf.shape == grad.shape
                and sys.getrefcount(buf) == 3
            ):
                np.copyto(buf, grad)
            else:
                buf = self._grad_buf = grad.copy()
            self.grad = buf
        elif self.grad is self._grad_buf:
            self.grad += grad  # owned buffer: in-place == self.grad + grad
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Array | None = None) -> None:
        """Backpropagate from this tensor (default seed: ones)."""
        if grad is None:
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        seen: set[int] = set()

        def visit(t: Tensor) -> None:
            if id(t) in seen or not (t.requires_grad or t._parents):
                return
            seen.add(id(t))
            for p in t._parents:
                visit(p)
            topo.append(t)

        visit(self)
        self._accumulate(np.asarray(grad, dtype=np.float64))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- operator helpers ----------------------------------------------------
    @staticmethod
    def _lift(other, dtype=None) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        # Scalars are lifted at the operand's dtype: a 0-d float64 array
        # would silently promote a float32 operand back to float64 under
        # NEP 50 (the float64 path is unchanged — scalars became float64
        # before too).
        if dtype is not None and np.ndim(other) == 0:
            return Tensor(np.asarray(other, dtype=dtype))
        return Tensor(other)

    def _make(self, data: Array, parents: Sequence["Tensor"],
              backward: Callable[[Array], None]) -> "Tensor":
        needs = any(p.requires_grad or p._parents for p in parents)
        if not needs:
            return Tensor(data)
        return Tensor(data, _backward=backward, _parents=parents)

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = self._lift(other, self.data.dtype)
        out_data = self.data + other.data

        def backward(grad: Array) -> None:
            self._accumulate(_unbroadcast(grad, self.shape))
            other._accumulate(_unbroadcast(grad, other.shape))

        return self._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: Array) -> None:
            self._accumulate(-grad)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-self._lift(other, self.data.dtype))

    def __rsub__(self, other) -> "Tensor":
        return self._lift(other, self.data.dtype) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._lift(other, self.data.dtype)
        out_data = self.data * other.data

        def backward(grad: Array) -> None:
            self._accumulate(_unbroadcast(grad * other.data, self.shape))
            other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return self._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._lift(other, self.data.dtype)
        out_data = self.data / other.data

        def backward(grad: Array) -> None:
            self._accumulate(_unbroadcast(grad / other.data, self.shape))
            other._accumulate(
                _unbroadcast(-grad * self.data / (other.data ** 2), other.shape)
            )

        return self._make(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return self._lift(other, self.data.dtype) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data ** exponent

        def backward(grad: Array) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return self._make(out_data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = self._lift(other)
        out_data = self.data @ other.data

        def backward(grad: Array) -> None:
            a, b = self.data, other.data
            if a.ndim == 1 and b.ndim == 1:  # inner product
                self._accumulate(grad * b)
                other._accumulate(grad * a)
                return
            ga = grad @ np.swapaxes(b, -1, -2) if b.ndim > 1 else np.outer(grad, b)
            gb = np.swapaxes(a, -1, -2) @ grad if a.ndim > 1 else np.outer(a, grad)
            self._accumulate(_unbroadcast(ga, a.shape))
            other._accumulate(_unbroadcast(gb, b.shape))

        return self._make(out_data, (self, other), backward)

    # -- reductions ------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: Array) -> None:
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return self._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    # -- shape ops ---------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.shape
        out_data = self.data.reshape(shape)

        def backward(grad: Array) -> None:
            self._accumulate(grad.reshape(original))

        return self._make(out_data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = np.argsort(axes)
        out_data = self.data.transpose(axes)

        def backward(grad: Array) -> None:
            self._accumulate(grad.transpose(inverse))

        return self._make(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: Array) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate(full)

        return self._make(out_data, (self,), backward)

    # -- elementwise nonlinearities ------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: Array) -> None:
            self._accumulate(grad * out_data)

        return self._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: Array) -> None:
            self._accumulate(grad / self.data)

        return self._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: Array) -> None:
            self._accumulate(grad * (1.0 - out_data ** 2))

        return self._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: Array) -> None:
            self._accumulate(grad * out_data * (1.0 - out_data))

        return self._make(out_data, (self,), backward)

    def leaky_relu(self, slope: float = 0.2) -> "Tensor":
        mask = self.data > 0
        out_data = np.where(mask, self.data, slope * self.data)

        def backward(grad: Array) -> None:
            self._accumulate(grad * np.where(mask, 1.0, slope))

        return self._make(out_data, (self,), backward)

    def silu(self) -> "Tensor":
        """x * sigmoid(x) — the activation used throughout the denoiser."""
        sig = 1.0 / (1.0 + np.exp(-self.data))
        out_data = self.data * sig

        def backward(grad: Array) -> None:
            self._accumulate(grad * (sig * (1.0 + self.data * (1.0 - sig))))

        return self._make(out_data, (self,), backward)


def embedding_lookup(table: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup ``table[indices]`` with scatter-add gradient."""
    indices = np.asarray(indices, dtype=np.int64)
    out_data = table.data[indices]

    def backward(grad: Array) -> None:
        full = np.zeros_like(table.data)
        np.add.at(full, indices, grad)
        table._accumulate(full)

    if not (table.requires_grad or table._parents):
        return Tensor(out_data)
    return Tensor(out_data, _backward=backward, _parents=(table,))


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select; ``condition`` is a plain boolean array."""
    a, b = Tensor._lift(a), Tensor._lift(b)
    cond = np.asarray(condition, dtype=bool)
    out_data = np.where(cond, a.data, b.data)

    def backward(grad: Array) -> None:
        a._accumulate(_unbroadcast(np.where(cond, grad, 0.0), a.shape))
        b._accumulate(_unbroadcast(np.where(cond, 0.0, grad), b.shape))

    if not any(t.requires_grad or t._parents for t in (a, b)):
        return Tensor(out_data)
    return Tensor(out_data, _backward=backward, _parents=(a, b))
