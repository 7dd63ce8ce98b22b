"""Minimal dense-tensor reverse-mode autodiff on numpy arrays.

Just enough machinery to train the routed-expert classifier and the
importance predictor: 1-D/2-D tensors, a tape-free graph of closures, and a
handful of fused ops (softmax, layer norm, cross entropy) whose gradients are
written out analytically. Everything runs in float64 by default so that
finite-difference checks are meaningful.
"""

from __future__ import annotations

import contextlib
from typing import Iterable, Sequence

import numpy as np

# Finite stand-in for -inf inside logits: keeps arithmetic NaN-free while
# guaranteeing exact-zero softmax mass (see softmax()).
NEG_INF = -1e9
_MASK_THRESHOLD = -5e8

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording (evaluation / Monte-Carlo paths)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def grad_enabled() -> bool:
    return _grad_enabled


class ShapeError(ValueError):
    pass


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad) and _grad_enabled
        self.grad = None
        self._parents: tuple = ()
        self._backward_fn = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self):
        self.grad = None

    def _accum_grad(self, g: np.ndarray):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    # -- operator sugar ----------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __neg__(self):
        return mul(self, -1.0)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("tensor/tensor division not supported")
        return mul(self, 1.0 / float(other))

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class DivergenceError(RuntimeError):
    """A training loss became NaN or infinite."""


class Module:
    """Base for the models: named trainable tensors and their initializer."""

    def parameters(self) -> dict:
        raise NotImplementedError

    def zero_grad(self):
        for p in self.parameters().values():
            p.zero_grad()

    @staticmethod
    def _p(rng, shape, scale: float) -> Tensor:
        """Trainable tensor drawn as scale * N(0, 1) from `rng`; zeros when
        scale is 0 (no draw)."""
        data = rng.normal(0.0, 1.0, shape) * scale if scale else np.zeros(shape)
        return Tensor(data, requires_grad=True)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, parents: tuple, backward_fn) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward_fn = backward_fn
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting expanded."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


# -- elementwise / linear ops ---------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accum_grad(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accum_grad(_unbroadcast(g, b.data.shape))

    return _make(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accum_grad(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accum_grad(_unbroadcast(g * a.data, b.data.shape))

    return _make(data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(
            f"matmul shape mismatch: {a.data.shape} x {b.data.shape}"
        )
    data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            a._accum_grad(g @ b.data.T)
        if b.requires_grad:
            b._accum_grad(a.data.T @ g)

    return _make(data, (a, b), backward)


def transpose(a: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a._accum_grad(g.T)

    return _make(a.data.T, (a,), backward)


def relu(a: Tensor) -> Tensor:
    keep = a.data > 0.0

    def backward(g):
        if a.requires_grad:
            a._accum_grad(g * keep)

    return _make(a.data * keep, (a,), backward)


def exp(a: Tensor) -> Tensor:
    data = np.exp(a.data)

    def backward(g):
        if a.requires_grad:
            a._accum_grad(g * data)

    return _make(data, (a,), backward)


def log(a: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a._accum_grad(g / a.data)

    return _make(np.log(a.data), (a,), backward)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if a.requires_grad:
            gg = np.asarray(g)
            if axis is not None and not keepdims:
                gg = np.expand_dims(gg, axis)
            a._accum_grad(np.broadcast_to(gg, a.data.shape).copy())

    return _make(data, (a,), backward)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    n = a.data.size if axis is None else a.data.shape[axis]
    return tsum(a, axis=axis, keepdims=keepdims) * (1.0 / n)


def reshape(a: Tensor, shape) -> Tensor:
    old = a.data.shape

    def backward(g):
        if a.requires_grad:
            a._accum_grad(g.reshape(old))

    return _make(a.data.reshape(shape), (a,), backward)


# -- indexing ops ----------------------------------------------------------

def gather_rows(a: Tensor, idx) -> Tensor:
    idx = np.asarray(idx, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= a.data.shape[0]):
        raise IndexError(
            f"row index out of range: {idx} for {a.data.shape[0]} rows"
        )

    def backward(g):
        if a.requires_grad:
            acc = np.zeros_like(a.data)
            np.add.at(acc, idx, g)
            a._accum_grad(acc)

    return _make(a.data[idx], (a,), backward)


def scatter_rows(a: Tensor, idx, num_rows: int) -> Tensor:
    """Place rows of `a` at positions `idx` of an otherwise-zero matrix."""
    idx = np.asarray(idx, dtype=np.intp)
    data = np.zeros((num_rows,) + a.data.shape[1:], dtype=np.float64)
    data[idx] = a.data

    def backward(g):
        if a.requires_grad:
            a._accum_grad(g[idx])

    return _make(data, (a,), backward)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    sl = [slice(None)] * a.data.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)

    def backward(g):
        if a.requires_grad:
            acc = np.zeros_like(a.data)
            acc[sl] = g
            a._accum_grad(acc)

    return _make(a.data[sl].copy(), (a,), backward)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                p._accum_grad(g[tuple(sl)])

    return _make(data, tuple(parts), backward)


def gather_elems(a: Tensor, rows, cols) -> Tensor:
    """Pick a[rows[i], cols[i]] for each i; returns a 1-D tensor."""
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)

    def backward(g):
        if a.requires_grad:
            acc = np.zeros_like(a.data)
            np.add.at(acc, (rows, cols), g)
            a._accum_grad(acc)

    return _make(a.data[rows, cols], (a,), backward)


def masked_fill(a: Tensor, mask: np.ndarray, value: float) -> Tensor:
    """Replace entries where mask is True by a constant; no grad there."""
    mask = np.asarray(mask, dtype=bool)
    data = np.where(mask, value, a.data)

    def backward(g):
        if a.requires_grad:
            a._accum_grad(np.where(mask, 0.0, g))

    return _make(data, (a,), backward)


def straight_through(soft: Tensor, hard_values: np.ndarray) -> Tensor:
    """Forward takes the hard values, backward is the identity onto `soft`.

    Equivalent to soft + stop_gradient(hard - soft).
    """
    hard_values = np.asarray(hard_values, dtype=np.float64)
    if hard_values.shape != soft.data.shape:
        raise ShapeError(
            f"straight_through shape mismatch: {hard_values.shape} vs {soft.data.shape}"
        )

    def backward(g):
        if soft.requires_grad:
            soft._accum_grad(g)

    return _make(hard_values, (soft,), backward)


def reciprocal(a: Tensor) -> Tensor:
    data = 1.0 / a.data

    def backward(g):
        if a.requires_grad:
            a._accum_grad(-g * data * data)

    return _make(data, (a,), backward)


# -- fused ops -------------------------------------------------------------

def softmax(a: Tensor, temperature: float = 1.0, axis: int = -1) -> Tensor:
    """Numerically stable softmax with sentinel-masking support.

    Entries at or below the NEG_INF sentinel are treated as excluded: their
    output is exactly 0 and no gradient flows into them. A fully excluded
    slice is a contract violation.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    x = a.data
    masked = x <= _MASK_THRESHOLD
    if np.any(masked.all(axis=axis)):
        raise ValueError("no admissible component: softmax input fully masked")
    safe = np.where(masked, -np.inf, x / temperature)
    m = safe.max(axis=axis, keepdims=True)
    e = np.exp(safe - m)
    e = np.where(masked, 0.0, e)
    z = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        if a.requires_grad:
            inner = (g * z).sum(axis=axis, keepdims=True)
            a._accum_grad((z * (g - inner)) / temperature)

    return _make(z, (a,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, epsilon: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    gain, bias = as_tensor(gain), as_tensor(bias)
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + epsilon)
    y = (x.data - mu) * inv
    data = gain.data * y + bias.data

    def backward(g):
        gy = g * gain.data
        if x.requires_grad:
            gmean = gy.mean(axis=-1, keepdims=True)
            gymean = (gy * y).mean(axis=-1, keepdims=True)
            x._accum_grad(inv * (gy - gmean - y * gymean))
        if gain.requires_grad:
            gain._accum_grad(_unbroadcast(g * y, gain.data.shape))
        if bias.requires_grad:
            bias._accum_grad(_unbroadcast(g, bias.data.shape))

    return _make(data, (x, gain, bias), backward)


def cross_entropy_batch(logits: Tensor, labels) -> Tensor:
    """Per-row -ln softmax(logits)[label]; returns a (B,) tensor."""
    labels = np.asarray(labels, dtype=np.intp)
    x = logits.data
    if labels.min() < 0 or labels.max() >= x.shape[1]:
        raise IndexError(f"label out of range for {x.shape[1]} classes")
    m = x.max(axis=1, keepdims=True)
    e = np.exp(x - m)
    p = e / e.sum(axis=1, keepdims=True)
    rows = np.arange(x.shape[0])
    data = -np.log(p[rows, labels])

    def backward(g):
        if logits.requires_grad:
            gl = p.copy()
            gl[rows, labels] -= 1.0
            logits._accum_grad(gl * g.reshape(-1, 1))

    return _make(data, (logits,), backward)


# -- backward pass ---------------------------------------------------------

def backward(loss: Tensor):
    """Populate .grad on every requires_grad ancestor of a scalar loss."""
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar, got shape {loss.data.shape}")
    if not loss.requires_grad:
        raise ValueError("loss does not require grad (no recorded graph)")

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))

    loss._accum_grad(np.ones_like(loss.data))
    for node in reversed(topo):
        if node._backward_fn is not None:
            node._backward_fn(node.grad)


def assert_finite(t: Tensor, name: str = "tensor"):
    if not np.all(np.isfinite(t.data)):
        raise FloatingPointError(f"{name} contains NaN/Inf")


def parameters_finite(params: Iterable[Tensor]) -> bool:
    return all(np.all(np.isfinite(p.data)) for p in params)
