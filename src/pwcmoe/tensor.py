"""Minimal dense-tensor reverse-mode autodiff on numpy arrays.

Just enough machinery to train the routed-expert classifier and the
importance predictor: 1-D/2-D tensors, a tape-free graph of closures, and a
handful of fused ops (softmax, segment sum, segment softmax, segment
attention, top-1 expert dispatch, layer norm, cross entropy) whose gradients
are written out analytically.
Everything runs in float64 by default so that finite-difference checks are
meaningful.
"""

from __future__ import annotations

import contextlib
import math

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
        # the first `g` is kept: backwards hand on arrays no other tensor
        # holds (`_unbroadcast`, `reshape` and `straight_through` copy theirs)
        if self.grad is None:
            self.grad = g
        else:
            self.grad += g

    # -- operator sugar ----------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

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
    """Sum gradient over axes that numpy broadcasting expanded; a copy of `g`
    when nothing was summed, so the caller owns the result."""
    out = g
    while out.ndim > len(shape):
        out = out.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and out.shape[axis] != 1:
            out = out.sum(axis=axis, keepdims=True)
    return (out.copy() if out is g else out).reshape(shape)


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


def relu(a: Tensor) -> Tensor:
    keep = a.data > 0.0

    def backward(g):
        if a.requires_grad:
            a._accum_grad(g * keep)

    return _make(a.data * keep, (a,), backward)


def log(a: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a._accum_grad(g / a.data)

    return _make(np.log(a.data), (a,), backward)


def tsum(a: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a._accum_grad(np.broadcast_to(g, a.data.shape).copy())

    return _make(a.data.sum(), (a,), backward)


def tmean(a: Tensor) -> Tensor:
    return tsum(a) * (1.0 / a.data.size)


def reshape(a: Tensor, shape) -> Tensor:
    old = a.data.shape

    def backward(g):
        if a.requires_grad:
            a._accum_grad(g.reshape(old).copy())

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
            # one flat bincount: element (idx[i], j) of the gradient sums g[i, j]
            n, width = a.data.shape[0], a.data[:1].size
            flat = (idx.reshape(-1, 1) * width + np.arange(width)).reshape(-1)
            acc = np.bincount(flat, weights=g.reshape(-1), minlength=n * width)
            a._accum_grad(acc.reshape(a.data.shape))

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
            soft._accum_grad(g.copy())

    return _make(hard_values, (soft,), backward)


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
    e = np.exp(safe - m)  # exactly 0 where masked
    z = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        if a.requires_grad:
            inner = (g * z).sum(axis=axis, keepdims=True)
            a._accum_grad((z * (g - inner)) / temperature)

    return _make(z, (a,), backward)


def _segment_positions(seg: np.ndarray, n_segments: int) -> tuple:
    """(position of each row in its segment, rows per segment); segments are
    contiguous runs of `seg`, numbered 0..n_segments-1 in order, none empty."""
    if n_segments == 1 and seg.size and not seg.any():
        return np.arange(seg.size), np.array([seg.size])
    counts = None
    if seg.size and seg[0] >= 0 and not (seg[1:] < seg[:-1]).any():
        counts = np.bincount(seg, minlength=n_segments)
    if counts is None or counts.size != n_segments or counts.min() == 0:
        raise ValueError("segments must be contiguous and non-empty")
    return np.arange(seg.size) - (np.cumsum(counts) - counts)[seg], counts


def segment_sum(a: Tensor, seg, n_segments: int) -> Tensor:
    """Row sums of each segment: output row s adds the rows i of `a` with
    seg[i] == s. Segments are contiguous, in order and non-empty."""
    seg = np.asarray(seg, dtype=np.intp)
    pos, counts = _segment_positions(seg, n_segments)
    # a sum over the padded axis adds each segment's rows in row order;
    # np.add.reduceat reorders them, which moves trained weights in low bits
    padded = np.zeros((n_segments, counts.max()) + a.data.shape[1:])
    padded[seg, pos] = a.data

    def backward(g):
        if a.requires_grad:
            a._accum_grad(g[seg])

    return _make(padded.sum(axis=1), (a,), backward)


def segment_softmax(a: Tensor, seg, n_segments: int) -> Tensor:
    """Softmax of a column of scores (n, 1) within each segment: row i is
    normalized over the rows j with seg[j] == seg[i]. Computed as
    e * (1 / segment sum of e), the sums by bincount. Segments are
    contiguous, in order and non-empty."""
    seg = np.asarray(seg, dtype=np.intp)
    _, counts = _segment_positions(seg, n_segments)
    x = a.data
    # per-segment max as a gradient-free shift
    shift = np.maximum.reduceat(x.reshape(-1), counts.cumsum() - counts)
    e = np.exp(x - shift[seg].reshape(x.shape))
    sums = np.bincount(seg, weights=e.reshape(-1), minlength=n_segments)
    r = (1.0 / sums)[seg].reshape(x.shape)

    def backward(g):
        if a.requires_grad:
            acc = np.bincount(seg, weights=(-(g * e) * r * r).reshape(-1),
                              minlength=n_segments)
            a._accum_grad((g * r + acc[seg].reshape(x.shape)) * e)

    return _make(e * r, (a,), backward)


def segment_attention(q: Tensor, k: Tensor, v: Tensor, seg, n_segments: int,
                      heads: int) -> Tensor:
    """Multi-head scaled dot-product self-attention within each segment of a
    packed (N, p) token matrix: a token attends only to the tokens of its own
    segment. Segments are contiguous runs of `seg` (non-decreasing) and none
    is empty. The heads are the `heads` equal column blocks of q, k and v.
    Runs padded to (n_segments, heads, longest segment, p / heads), with
    padded keys masked out; the output (N, p) has the heads side by side."""
    seg = np.asarray(seg, dtype=np.intp)
    n, p = q.data.shape
    if p % heads:
        raise ShapeError(f"{heads} heads do not divide width {p}")
    pos, counts = _segment_positions(seg, n_segments)
    dh = p // heads
    L = int(counts.max())
    scale = 1.0 / math.sqrt(dh)

    def pad(x):
        out = np.zeros((n_segments, heads, L, dh))
        out[seg, :, pos] = x.reshape(n, heads, dh)
        return out

    def unpad(x):
        return x[seg, :, pos].reshape(n, p)

    Q, K, V = pad(q.data), pad(k.data), pad(v.data)
    s = (Q @ K.transpose(0, 1, 3, 2)) * scale
    key_ok = (np.arange(L) < counts[:, None])[:, None, None, :]
    s = np.where(key_ok, s, -np.inf)
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    w = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        go = pad(g)
        gw = go @ V.transpose(0, 1, 3, 2)
        gs = w * (gw - (gw * w).sum(axis=-1, keepdims=True)) * scale
        if q.requires_grad:
            q._accum_grad(unpad(gs @ K))
        if k.requires_grad:
            k._accum_grad(unpad(gs.transpose(0, 1, 3, 2) @ Q))
        if v.requires_grad:
            v._accum_grad(unpad(w.transpose(0, 1, 3, 2) @ go))

    return _make(unpad(w @ V), (q, k, v), backward)


def expert_dispatch(h: Tensor, routed: Tensor, assign, experts, active=None) -> Tensor:
    """Top-1 expert MLPs over a token matrix (L, d) as one node. Expert j
    runs relu(x w1 + b1) w2 + b2 on the rows i of `h` with assign[i] == j
    (only rows marked in the boolean mask `active`, when given), and each
    output row is scaled by its gate routed[i, j]; rows no expert ran on stay
    zero. Experts own disjoint rows, so the gradients into `h` and `routed`
    are written rather than accumulated, and an expert with no row gets no
    gradient at all. `experts[j]` is a dict of the tensors w1, b1, w2, b2."""
    assign = np.asarray(assign, dtype=np.intp)
    pos = np.arange(assign.size) if active is None else np.flatnonzero(active)
    # rows grouped by expert, one block each; a stable sort keeps each
    # expert's rows ascending
    order = pos[np.argsort(assign[pos], kind="stable")]
    counts = np.bincount(assign[pos], minlength=len(experts))
    ends = counts.cumsum()
    x = h.data[order]
    gate = routed.data[order, assign[order]].reshape(-1, 1)
    y = np.empty(x.shape)
    saved, params = [], []
    for j in counts.nonzero()[0]:
        blk = slice(ends[j] - counts[j], ends[j])
        e = experts[j]
        params.extend(e.values())
        a = x[blk] @ e["w1"].data + e["b1"].data
        on = a > 0
        r = a * on
        o = r @ e["w2"].data + e["b2"].data
        y[blk] = o * gate[blk]
        saved.append((e, blk, on, r, o))
    out = np.zeros(h.data.shape)
    out[order] = y

    def backward(g):
        g = g[order]
        gx, gg = np.empty(x.shape), np.empty(gate.shape)
        for e, blk, on, r, o in saved:
            go = g[blk]
            gg[blk, 0] = (go * o).sum(axis=1)
            go = go * gate[blk]
            ga = (go @ e["w2"].data.T) * on
            for name, grad in (("b2", go.sum(axis=0)), ("w2", r.T @ go),
                               ("b1", ga.sum(axis=0)), ("w1", x[blk].T @ ga)):
                if e[name].requires_grad:
                    e[name]._accum_grad(grad)
            gx[blk] = ga @ e["w1"].data.T
        gh, gr = np.zeros(h.data.shape), np.zeros(routed.data.shape)
        gh[order] = gx
        gr[order, assign[order]] = gg[:, 0]
        if h.requires_grad:
            h._accum_grad(gh)
        if routed.requires_grad:
            routed._accum_grad(gr)

    return _make(out, (h, routed, *params), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, epsilon: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    gain, bias = as_tensor(gain), as_tensor(bias)
    # sum / n is bitwise numpy's mean and var, without their per-call overhead
    n = x.data.shape[-1]
    dev = x.data - x.data.sum(axis=-1, keepdims=True) / n
    var = (dev * dev).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + epsilon)
    y = dev * inv
    data = gain.data * y + bias.data

    def backward(g):
        gy = g * gain.data
        if x.requires_grad:
            gmean = gy.sum(axis=-1, keepdims=True) / n
            gymean = (gy * y).sum(axis=-1, keepdims=True) / n
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
