"""Privacy-aware sparse mixture-of-experts classifier.

Each token is embedded, scored by a gating network, and routed to exactly one
expert. Sensitive tokens (privacy mask = 1) may only reach the first
`num_privacy_experts` experts; non-sensitive tokens may only reach the rest.
Expert outputs are softmax-weighted into a pooled representation which a
linear head classifies. Training uses hard Gumbel-Softmax routing with a
straight-through gradient and a group-wise load-balancing penalty.
"""

from __future__ import annotations

import functools
import itertools
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
    """Boolean (L, K) matrix of inadmissible (token, expert) pairs: a
    sensitive token (mask 1) may not reach expert k_p or above, and a
    non-sensitive one (mask 0) no expert below k_p."""
    sensitive = np.asarray(mask).reshape(-1, 1) == 1
    return sensitive != (np.arange(num_experts) < k_p)


def apply_privacy_isolation(g: Tensor, mask, k_p: int) -> Tensor:
    """Forbid cross-group routing by pushing inadmissible logits to -inf
    (finite sentinel; downstream softmax yields exactly zero mass there)."""
    K = g.shape[1]
    if k_p >= K:
        raise ValueError(f"privacy expert count {k_p} must be < total {K}")
    return T.masked_fill(g, privacy_isolation_mask(mask, K, k_p), T.NEG_INF)


def gumbel_softmax(g_prime: Tensor, tau: float, gamma: Optional[np.ndarray]) -> Tensor:
    """Soft expert-selection probabilities with Gumbel noise added to the
    admissible logits (none when `gamma` is None). Sentinel entries stay
    exactly zero."""
    noisy = g_prime if gamma is None else g_prime + Tensor(gamma)
    try:
        return T.softmax(noisy, temperature=tau, axis=-1)
    except ValueError as exc:
        raise ValueError("no admissible expert") from exc


def hard_select(z: Tensor, g_prime: Tensor, gamma: Optional[np.ndarray]):
    """One-hot selection by argmax of noisy logits (none when `gamma` is
    None), with a straight-through backward pass: gradients flow as if the
    output were z."""
    noisy = g_prime.data if gamma is None else g_prime.data + gamma
    assign = noisy.argmax(axis=1)
    one_hot = np.zeros_like(z.data)
    one_hot[np.arange(len(assign)), assign] = 1.0
    return T.straight_through(z, one_hot), assign


def aggregate(rows: Tensor, w: Tensor, seg, n_segments: int) -> tuple:
    """Softmax-weighted pooling of token rows within each segment (example).

    `rows` holds only the tokens to pool and `seg` the segment of each row, so
    a token that is not pooled never enters the softmax. Returns (alpha
    (n, 1), pooled (n_segments, d)).
    """
    scores = T.matmul(rows, w)
    try:
        alpha = T.segment_softmax(scores, seg, n_segments)  # (n, 1)
    except ValueError as exc:
        raise ValueError("no tokens to aggregate") from exc
    return alpha, T.segment_sum(alpha * rows, seg, n_segments)


@dataclass
class ForwardResult:
    logits: Tensor          # (B, C)
    alpha: Tensor           # (n_active, 1) pooling weights of the active tokens
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

    def route_hard(self, h: Tensor, routed: Tensor, assign: np.ndarray,
                   active=None) -> Tensor:
        """Sparse dispatch: each expert runs only on its assigned tokens (only
        on those marked in the boolean mask `active`, when given), scaled by
        the straight-through gate value."""
        return T.expert_dispatch(h, routed, assign, self.experts, active)

    def route_soft(self, h: Tensor, z: Tensor) -> Tensor:
        """Dense relaxation: every expert processes every token, outputs mixed
        by z. Used for finite-difference gradient validation."""
        L, K = z.shape
        pieces = [T.expert_dispatch(h, z, np.full(L, j), self.experts) for j in range(K)]
        return functools.reduce(T.add, pieces)

    def forward_batch(self, batch, rng: Optional[RngStream] = None,
                      mode: str = "eval", active=None) -> ForwardResult:
        """The one MoE forward. Packs a list of (seq, label) pairs into one
        token matrix (`pack`), so that expert dispatch and pooling run as a
        few large numpy ops.

        Modes: 'train' (Gumbel noise + hard straight-through), 'eval'
        (noise-free, hard argmax), 'soft' (noise-free dense soft routing;
        fully differentiable). `active` is a boolean mask over the packed
        tokens: only the marked ones are processed and pooled (default: all
        of them); an example with none raises ValueError.
        """
        c = self.config
        ids, mask, seg, _ = pack(batch)
        n_tok = ids.shape[0]
        h = T.gather_rows(self.embedding, ids)
        g = gate_logits(h, self.w_g, self.b_g)
        g_prime = apply_privacy_isolation(g, mask, c.num_privacy_experts)
        gamma = None  # eval and soft modes add no noise
        if mode == "train":
            if rng is None:
                raise ValueError("train mode needs an RngStream for Gumbel noise")
            gamma = rng.gumbel((n_tok, c.num_experts))
        z = gumbel_softmax(g_prime, c.tau, gamma)
        if mode == "soft":
            routed = z
            assign = g_prime.data.argmax(axis=1)
            h_prime = self.route_soft(h, z)
        else:
            routed, assign = hard_select(z, g_prime, gamma)
            h_prime = self.route_hard(h, routed, assign, active)

        pos = np.arange(n_tok) if active is None else np.flatnonzero(active)
        # training pools every token: skip the gather and its scatter-add backward
        rows = h_prime if pos.size == n_tok else T.gather_rows(h_prime, pos)
        alpha, logits = self.classify(rows, seg[pos], len(batch))
        return ForwardResult(logits=logits, alpha=alpha, z=z, routed=routed,
                             assign=assign, h=h, h_prime=h_prime, mask=mask, seg=seg)

    def classify(self, rows: Tensor, seg, n_examples: int) -> tuple:
        """Pool expert-output rows per example (`seg`), then layer norm and
        the linear head. Returns (alpha, logits (n_examples, C))."""
        alpha, pooled = aggregate(rows, self.agg_w, seg, n_examples)
        pooled = T.layer_norm(pooled, self.ln_gain, self.ln_bias)
        return alpha, T.matmul(pooled, self.w_o) + self.b_o

    def forward(self, seq: TokenSequence, rng: Optional[RngStream] = None,
                active=None, mode: str = "eval") -> ForwardResult:
        """`forward_batch` on one sequence, pooled over the tokens that
        `active` indexes as numpy indexing would (default: every token)."""
        if active is not None:
            flags = np.zeros(seq.length, dtype=bool)
            flags[active] = True
            active = flags
        return self.forward_batch([(seq, None)], rng=rng, mode=mode, active=active)

    def loss(self, batch, rng: Optional[RngStream] = None, mode: str = "train"):
        """(loss, ForwardResult) over a list of (seq, label) pairs: mean
        cross-entropy plus `lambda_lb` times the load-balancing loss."""
        res = self.forward_batch(batch, rng=rng, mode=mode)
        task = T.tmean(T.cross_entropy_batch(res.logits, [label for _, label in batch]))
        lb = batch_load_balance(res.z, res.mask, res.seg, len(batch),
                                self.config.num_privacy_experts)
        return task + lb * self.config.lambda_lb, res


def pack(pairs) -> tuple:
    """The packed layout of a list of (seq, label) pairs: token ids, privacy
    mask and example index (`seg`) of every token, example after example,
    and the `offsets` by which example e owns tokens `offsets[e]:offsets[e + 1]`."""
    lengths = [seq.length for seq, _ in pairs]
    ids = np.concatenate([seq.ids for seq, _ in pairs])
    mask = np.concatenate([seq.mask for seq, _ in pairs])
    seg = np.arange(len(pairs)).repeat(lengths)
    return ids, mask, seg, np.array([0, *itertools.accumulate(lengths)])


def batch_forward(model: MoEModel, batch, mode: str = "eval"):
    """`MoEModel.forward_batch` as (logits (B, C), z (N_tok, K), mask array,
    seg ids)."""
    res = model.forward_batch(batch, mode=mode)
    return res.logits, res.z, res.mask, res.seg


def batch_load_balance(z: Tensor, mask: np.ndarray, seg: np.ndarray,
                       n_examples: int, k_p: int) -> Tensor:
    """Mean over examples of the group-wise load-balancing loss: the squared
    deviation of mean expert usage from uniform, computed separately over each
    example's sensitive and non-sensitive tokens. Empty groups contribute zero."""
    K = z.shape[1]
    privacy = np.arange(K) < k_p  # the expert columns of the privacy group
    sensitive = np.asarray(mask) == 1
    # (n_examples, K): the example's token count in the group owning the column
    counts = np.where(privacy, np.bincount(seg[sensitive], minlength=n_examples)[:, None],
                      np.bincount(seg[~sensitive], minlength=n_examples)[:, None])
    # each token weighs 1 / its group's size on its group's columns, 0 elsewhere
    weight = (sensitive[:, None] == privacy) / np.maximum(counts, 1)[seg]
    usage = T.segment_sum(z * weight, seg, n_examples)
    dev = usage - np.where(privacy, 1.0 / k_p, 1.0 / (K - k_p))
    return T.tsum(dev * dev * (counts > 0)) * (1.0 / n_examples)


# -- training / evaluation -------------------------------------------------

@dataclass
class TrainTrace:
    rounds: list = field(default_factory=list)
    test_accuracy: list = field(default_factory=list)
    mean_loss: list = field(default_factory=list)


def active_set(seq: TokenSequence, decision) -> np.ndarray:
    """Boolean mask of the tokens processed at inference: all sensitive plus
    the selected non-sensitive ones."""
    active = np.array(seq.mask, dtype=bool)
    active[decision.selected] = True
    return active


EVAL_CHUNK = 256  # examples per eval forward; bounds the forward's working memory


class MaskScorer:
    """One eval forward over `data`, kept so that any choice of active tokens
    can be scored by pooling alone.

    In eval mode a token's gate and expert output depend on that token only,
    so an offload decision changes only which expert-output rows are pooled.
    A choice is a boolean mask over the tokens of `data` in `pack`'s layout,
    whose arrays the scorer keeps.
    """

    def __init__(self, model: MoEModel, data):
        self.model = model
        rows = []
        with T.no_grad():
            for s in range(0, len(data), EVAL_CHUNK):
                rows.append(model.forward_batch(data[s:s + EVAL_CHUNK], mode="eval").h_prime.data)
        self.ids, mask, self.seg, self.offsets = pack(data)
        self.h_prime = np.concatenate(rows)
        self.sensitive = mask == 1
        self.labels = np.asarray([label for _, label in data])

    def accuracy(self, active: np.ndarray) -> float:
        """Accuracy when each example pools only its tokens marked in
        `active`, all examples in one pooling pass. Examples with no active
        token count as wrong."""
        pos = np.flatnonzero(active)
        if not pos.size:
            return 0.0
        present, local = np.unique(self.seg[pos], return_inverse=True)
        with T.no_grad():
            _, logits = self.model.classify(Tensor(self.h_prime[pos]), local, present.size)
        correct = np.sum(logits.data.argmax(axis=1) == self.labels[present])
        return int(correct) / self.labels.size


def evaluate(model: MoEModel, data) -> float:
    """Accuracy with every token of every example pooled."""
    scorer = MaskScorer(model, data)
    return scorer.accuracy(np.ones(scorer.seg.size, dtype=bool))


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
            batch_loss, _ = model.loss(batch, rng=noise_rng)
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
