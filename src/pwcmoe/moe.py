"""Privacy-aware sparse mixture-of-experts classifier.

Each token is embedded, scored by a gating network, and routed to exactly one
expert. Sensitive tokens (privacy mask = 1) may only reach the first
`num_privacy_experts` experts; non-sensitive tokens may only reach the rest.
Expert outputs are softmax-weighted into a pooled representation which a
linear head classifies. Training uses hard Gumbel-Softmax routing with a
straight-through gradient and a group-wise load-balancing penalty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import tensor as T
from .checkpoint import MAGIC_MODEL, load_params, save_params
from .corpus import TokenSequence
from .rng import RngStream
from .tensor import Tensor


@dataclass
class MoEConfig:
    vocab_size: int
    num_classes: int
    d: int = 64
    num_experts: int = 8
    num_privacy_experts: int = 2
    expert_hidden: int = 128
    tau: float = 1.0
    lambda_lb: float = 0.01
    learning_rate: float = 0.2
    momentum: float = 0.9
    epochs: int = 40
    batch_size: int = 32
    use_layernorm: bool = True

    def __post_init__(self):
        if not (1 <= self.num_privacy_experts < self.num_experts):
            raise ValueError(
                f"need 1 <= privacy experts < total experts, got "
                f"{self.num_privacy_experts}/{self.num_experts}"
            )
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.lambda_lb < 0:
            raise ValueError("lambda_lb must be nonnegative")


# -- gating primitives (also used standalone in tests) ---------------------

def gate_logits(h: Tensor, w_g: Tensor, b_g: Tensor) -> Tensor:
    """Per-token gating logits: rows are W_g h_i + b_g."""
    return T.matmul(h, w_g) + b_g


def privacy_isolation_mask(mask, num_experts: int, k_p: int) -> np.ndarray:
    """Boolean (L, K) matrix of inadmissible (token, expert) pairs."""
    mask = np.asarray(mask, dtype=int)
    L = mask.shape[0]
    out = np.zeros((L, num_experts), dtype=bool)
    out[mask == 1, k_p:] = True
    out[mask == 0, :k_p] = True
    return out


def apply_privacy_isolation(g: Tensor, mask, k_p: int) -> Tensor:
    """Forbid cross-group routing by pushing inadmissible logits to -inf
    (finite sentinel; downstream softmax yields exactly zero mass there)."""
    K = g.shape[1]
    if k_p >= K:
        raise ValueError(f"privacy expert count {k_p} must be < total {K}")
    return T.masked_fill(g, privacy_isolation_mask(mask, K, k_p), T.NEG_INF)


def gumbel_softmax(g_prime: Tensor, tau: float, gamma: np.ndarray) -> Tensor:
    """Soft expert-selection probabilities with Gumbel noise added to the
    admissible logits. Sentinel entries stay exactly zero."""
    try:
        return T.softmax(g_prime + Tensor(gamma), temperature=tau, axis=-1)
    except ValueError as exc:
        raise ValueError("no admissible expert") from exc


def hard_select(z: Tensor, g_prime: Tensor, gamma: np.ndarray):
    """One-hot selection by argmax of noisy logits, with a straight-through
    backward pass: gradients flow as if the output were z."""
    noisy = g_prime.data + gamma
    assign = noisy.argmax(axis=1)
    one_hot = np.zeros_like(z.data)
    one_hot[np.arange(len(assign)), assign] = 1.0
    return T.straight_through(z, one_hot), assign


def total_loss(task: Tensor, lb: Tensor, lambda_lb: float) -> Tensor:
    return task + lb * lambda_lb


def aggregate(rows: Tensor, w: Tensor, seg, n_segments: int) -> tuple:
    """Softmax-weighted pooling of token rows within each segment (example).

    `rows` holds only the tokens to pool and `seg` the segment of each row, so
    a token that is not pooled never enters the softmax. Returns (alpha
    (n, 1), pooled (n_segments, d)).
    """
    seg = np.asarray(seg, dtype=np.intp)
    if np.bincount(seg, minlength=n_segments).min() == 0:
        raise ValueError("no tokens to aggregate")
    scores = T.matmul(rows, w)  # (n, 1)
    # per-segment max as a gradient-free shift
    shift = np.full(n_segments, -np.inf)
    np.maximum.at(shift, seg, scores.data.reshape(-1))
    e = T.exp(scores - shift[seg].reshape(-1, 1))
    sel = np.zeros((n_segments, seg.size))
    sel[seg, np.arange(seg.size)] = 1.0
    sel = Tensor(sel)
    alpha = e * T.reciprocal(T.gather_rows(T.matmul(sel, e), seg))
    return alpha, T.matmul(sel, alpha * rows)


@dataclass
class ForwardResult:
    logits: Tensor          # (B, C)
    alpha: Tensor           # (n_active, 1) pooling weights of the active tokens
    active: np.ndarray      # active token positions in the concatenated batch
    z: Tensor               # (N, K) soft routing probabilities
    routed: Tensor          # (N, K) straight-through one-hot (or z in soft mode)
    assign: np.ndarray      # selected expert per token
    h: Tensor               # (N, d) embeddings
    h_prime: Tensor         # (N, d) expert outputs, zero on inactive tokens
    mask: np.ndarray        # (N,) privacy mask
    seg: np.ndarray         # (N,) example index of each token

    def probs(self) -> np.ndarray:
        """Class probabilities of a single-example result."""
        x = self.logits.data.reshape(-1)
        e = np.exp(x - x.max())
        return e / e.sum()


class MoEModel(T.Module):
    """Parameter container plus the forward pass."""

    def __init__(self, config: MoEConfig, rng: RngStream):
        self.config = config
        c = config
        r = rng.spawn("init")
        d, K, H = c.d, c.num_experts, c.expert_hidden
        self.embedding = self._p(r, (c.vocab_size, d), 0.5)
        self.w_g = self._p(r, (d, K), 1.0 / math.sqrt(d))
        self.b_g = self._p(r, (K,), 0.0)
        self.experts = []
        for _ in range(K):
            self.experts.append({
                "w1": self._p(r, (d, H), math.sqrt(2.0 / d)),
                "b1": self._p(r, (H,), 0.0),
                "w2": self._p(r, (H, d), math.sqrt(2.0 / H)),
                "b2": self._p(r, (d,), 0.0),
            })
        self.agg_w = self._p(r, (d, 1), 1.0 / math.sqrt(d))
        self.ln_gain = Tensor(np.ones(d), requires_grad=True)
        self.ln_bias = Tensor(np.zeros(d), requires_grad=True)
        self.w_o = self._p(r, (d, c.num_classes), 1.0 / math.sqrt(d))
        self.b_o = self._p(r, (c.num_classes,), 0.0)

    def parameters(self) -> dict:
        params = {
            "embedding": self.embedding,
            "w_g": self.w_g, "b_g": self.b_g,
            "agg_w": self.agg_w,
            "ln_gain": self.ln_gain, "ln_bias": self.ln_bias,
            "w_o": self.w_o, "b_o": self.b_o,
        }
        for j, e in enumerate(self.experts):
            for k, v in e.items():
                params[f"expert{j}.{k}"] = v
        return params

    # -- forward ----------------------------------------------------------

    def expert_apply(self, j: int, x: Tensor) -> Tensor:
        e = self.experts[j]
        return T.matmul(T.relu(T.matmul(x, e["w1"]) + e["b1"]), e["w2"]) + e["b2"]

    def route_hard(self, h: Tensor, routed: Tensor, assign: np.ndarray,
                   rows=None) -> Tensor:
        """Sparse dispatch: each expert runs only on its assigned tokens, and
        the straight-through gate value (forward 1) scales each output row.
        When `rows` is given, only those tokens are processed (dropped tokens
        need no expert output); the rest stay zero."""
        L = h.shape[0]
        keep = np.zeros(L, dtype=bool)
        keep[np.arange(L) if rows is None else np.asarray(rows, dtype=np.intp)] = True
        pieces = []
        for j in np.unique(assign[keep]):
            idx = np.flatnonzero((assign == j) & keep)
            out = self.expert_apply(int(j), T.gather_rows(h, idx))
            gate = T.reshape(T.gather_elems(routed, idx, np.full(idx.shape, j)), (len(idx), 1))
            pieces.append(T.scatter_rows(out * gate, idx, L))
        if not pieces:
            return Tensor(np.zeros((L, self.config.d)))
        h_prime = pieces[0]
        for p in pieces[1:]:
            h_prime = h_prime + p
        return h_prime

    def route_soft(self, h: Tensor, z: Tensor) -> Tensor:
        """Dense relaxation: every expert processes every token, outputs mixed
        by z. Used for finite-difference gradient validation."""
        L, K = z.shape
        h_prime = None
        for j in range(K):
            out = self.expert_apply(j, h)
            piece = out * T.reshape(T.narrow(z, 1, j, 1), (L, 1))
            h_prime = piece if h_prime is None else h_prime + piece
        return h_prime

    def forward_batch(self, batch, rng: Optional[RngStream] = None,
                      mode: str = "eval", actives=None) -> ForwardResult:
        """The one MoE forward. Concatenates a list of (seq, label) pairs
        into one token matrix, so that expert dispatch and pooling run as a
        few large numpy ops.

        Modes: 'train' (Gumbel noise + hard straight-through), 'eval'
        (noise-free, hard argmax), 'soft' (noise-free dense soft routing;
        fully differentiable). `actives[e]` lists the tokens of example e
        that are processed and pooled (default: all of them); an example
        with none raises ValueError.
        """
        c = self.config
        ids, mask, seg, active = _concat_batch(batch, actives)
        n_tok = ids.shape[0]
        h = T.gather_rows(self.embedding, ids)
        g = gate_logits(h, self.w_g, self.b_g)
        g_prime = apply_privacy_isolation(g, mask, c.num_privacy_experts)
        if mode == "train":
            if rng is None:
                raise ValueError("train mode needs an RngStream for Gumbel noise")
            gamma = rng.gumbel((n_tok, c.num_experts))
        else:
            gamma = np.zeros((n_tok, c.num_experts))
        z = gumbel_softmax(g_prime, c.tau, gamma)
        if mode == "soft":
            routed = z
            assign = (g_prime.data + gamma).argmax(axis=1)
            h_prime = self.route_soft(h, z)
        else:
            routed, assign = hard_select(z, g_prime, gamma)
            h_prime = self.route_hard(h, routed, assign, rows=active)

        # training pools every token: skip the gather and its scatter-add backward
        rows = h_prime if active.size == n_tok else T.gather_rows(h_prime, active)
        alpha, pooled = aggregate(rows, self.agg_w, seg[active], len(batch))
        if c.use_layernorm:
            pooled = T.layer_norm(pooled, self.ln_gain, self.ln_bias)
        logits = T.matmul(pooled, self.w_o) + self.b_o
        return ForwardResult(logits=logits, alpha=alpha, active=active, z=z,
                             routed=routed, assign=assign, h=h, h_prime=h_prime,
                             mask=mask, seg=seg)

    def forward(self, seq: TokenSequence, rng: Optional[RngStream] = None,
                active=None, mode: str = "eval") -> ForwardResult:
        """`forward_batch` on one sequence, pooled over `active` (default:
        every token)."""
        return self.forward_batch([(seq, None)], rng=rng, mode=mode,
                                  actives=None if active is None else [active])

    def example_loss(self, seq: TokenSequence, label: int,
                     rng: Optional[RngStream] = None, mode: str = "train"):
        res = self.forward(seq, rng=rng, mode=mode)
        task = T.tmean(T.cross_entropy_batch(res.logits, [label]))
        lb = batch_load_balance(res.z, res.mask, res.seg, 1,
                                self.config.num_privacy_experts)
        return total_loss(task, lb, self.config.lambda_lb), res


def _concat_batch(batch, actives=None):
    """Token ids, privacy mask and example index of every token of the batch,
    plus the positions of the active tokens."""
    ids, mask, seg = [], [], []
    active_flags = []
    for e, (seq, _) in enumerate(batch):
        ids.extend(seq.ids)
        mask.extend(seq.mask)
        seg.extend([e] * seq.length)
        flags = np.zeros(seq.length, dtype=bool)
        flags[np.arange(seq.length) if actives is None else actives[e]] = True
        active_flags.append(flags)
    return (np.asarray(ids), np.asarray(mask), np.asarray(seg),
            np.flatnonzero(np.concatenate(active_flags)))


def batch_forward(model: MoEModel, batch, rng=None, mode: str = "eval",
                  actives=None):
    """`MoEModel.forward_batch` as (logits (B, C), z (N_tok, K), mask array,
    seg ids)."""
    res = model.forward_batch(batch, rng=rng, mode=mode, actives=actives)
    return res.logits, res.z, res.mask, res.seg


def batch_load_balance(z: Tensor, mask: np.ndarray, seg: np.ndarray,
                       n_examples: int, k_p: int) -> Tensor:
    """Mean over examples of the group-wise load-balancing loss: the squared
    deviation of mean expert usage from uniform, computed separately over each
    example's sensitive and non-sensitive tokens. Empty groups contribute zero."""
    K = z.shape[1]
    k_np = K - k_p

    def group_term(member: np.ndarray, start: int, width: int):
        counts = np.bincount(seg[member], minlength=n_examples).astype(float)
        weights = np.zeros((n_examples, z.shape[0]))
        nonzero = counts > 0
        weights[seg[member], np.flatnonzero(member)] = 1.0
        weights[nonzero] /= counts[nonzero, None]
        usage = T.matmul(Tensor(weights), T.narrow(z, 1, start, width))
        dev = usage - (1.0 / width)
        return T.tsum(dev * dev * nonzero.astype(float).reshape(-1, 1))

    total = group_term(mask == 1, 0, k_p) + group_term(mask == 0, k_p, k_np)
    return total * (1.0 / n_examples)


# -- training / evaluation -------------------------------------------------

@dataclass
class TrainTrace:
    rounds: list = field(default_factory=list)
    test_accuracy: list = field(default_factory=list)
    mean_loss: list = field(default_factory=list)


def active_set(seq: TokenSequence, decision) -> np.ndarray:
    """Tokens processed at inference: all sensitive plus the selected
    non-sensitive ones."""
    if decision is None:
        return np.arange(seq.length)
    idx = sorted(set(seq.sensitive_indices()) | set(decision.selected))
    return np.asarray(idx, dtype=np.intp)


def evaluate(model: MoEModel, data, decision_provider: Optional[Callable] = None) -> float:
    """Accuracy under optional per-example offload decisions. Examples whose
    active set comes out empty count as incorrect; the rest are scored in
    batches of up to 256."""
    pending, acts = [], []
    for i, (seq, label) in enumerate(data):
        act = active_set(seq, decision_provider(i, seq) if decision_provider else None)
        if act.size:
            pending.append((seq, label))
            acts.append(act)
    correct = 0
    with T.no_grad():
        for s in range(0, len(pending), 256):
            batch = pending[s:s + 256]
            logits, _, _, _ = batch_forward(model, batch, mode="eval",
                                            actives=acts[s:s + 256])
            labels = np.asarray([label for _, label in batch])
            correct += int(np.sum(logits.data.argmax(axis=1) == labels))
    return correct / len(data)


def train_model(
    model: MoEModel,
    train_data,
    test_data,
    seed: int,
    log: Optional[Callable[[str], None]] = None,
) -> TrainTrace:
    """Minibatch SGD with momentum on task + load-balancing loss.

    Records test accuracy after every round (epoch). Deterministic for a
    fixed seed in single-threaded use.
    """
    c = model.config
    params = model.parameters()
    velocity = {k: np.zeros_like(p.data) for k, p in params.items()}
    shuffle_rng = RngStream(seed, "train/shuffle")
    noise_rng = RngStream(seed, "train/gumbel")
    trace = TrainTrace()
    n = len(train_data)
    for epoch in range(c.epochs):
        order = shuffle_rng.permutation(n)
        losses = []
        for start in range(0, n, c.batch_size):
            batch = [train_data[i] for i in order[start:start + c.batch_size]]
            model.zero_grad()
            logits, z, mask_all, seg = batch_forward(model, batch, rng=noise_rng,
                                                     mode="train")
            task = T.tmean(T.cross_entropy_batch(logits, [lb for _, lb in batch]))
            lb = batch_load_balance(z, mask_all, seg, len(batch),
                                    c.num_privacy_experts)
            batch_loss = total_loss(task, lb, c.lambda_lb)
            if not np.isfinite(batch_loss.item()):
                raise T.DivergenceError(f"loss diverged (NaN/Inf) at round {epoch + 1}")
            T.backward(batch_loss)
            losses.append(batch_loss.item())
            for k, p in params.items():
                if p.grad is None:
                    continue
                velocity[k] = c.momentum * velocity[k] - c.learning_rate * p.grad
                p.data = p.data + velocity[k]
        acc = evaluate(model, test_data)
        trace.rounds.append(epoch + 1)
        trace.test_accuracy.append(acc)
        trace.mean_loss.append(float(np.mean(losses)))
        if log:
            log(f"round {epoch + 1}: loss {trace.mean_loss[-1]:.4f} test_acc {acc:.4f}")
    return trace


def save_model(model: MoEModel, path: str):
    save_params(path, MAGIC_MODEL, model)


def load_model(path: str) -> MoEModel:
    return load_params(path, MAGIC_MODEL, MoEModel, MoEConfig)


def soft_expert_usage(model: MoEModel, data) -> np.ndarray:
    """Mean soft routing mass per expert (noise-free), the usage notion the
    load-balancing loss is defined on. Each group normalized to sum 1."""
    k_p = model.config.num_privacy_experts
    with T.no_grad():
        _, z, mask, _ = batch_forward(model, data, mode="eval")
    usage = np.zeros(model.config.num_experts)
    if np.any(mask == 1):
        up = z.data[mask == 1, :k_p].mean(axis=0)
        usage[:k_p] = up / up.sum()
    if np.any(mask == 0):
        unp = z.data[mask == 0, k_p:].mean(axis=0)
        usage[k_p:] = unp / unp.sum()
    return usage


def group_usage_ratio(usage: np.ndarray, k_p: int) -> tuple:
    """Within-group max/min usage ratios (privacy, non-privacy groups)."""
    def ratio(u):
        lo = u.min()
        return float("inf") if lo == 0 else float(u.max() / lo)
    return ratio(usage[:k_p]), ratio(usage[k_p:])
