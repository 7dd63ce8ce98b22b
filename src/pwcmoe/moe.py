"""Privacy-aware sparse mixture-of-experts classifier.

Each token is embedded, scored by a gating network, and routed to exactly one
expert. Sensitive tokens (privacy mask = 1) may only reach the first
`num_privacy_experts` experts; non-sensitive tokens may only reach the rest.
Expert outputs are pooled by the softmax of their scores against `agg_w`
into a representation which a linear head classifies: `MoEModel.encode` is
the per-token part (expert output, routing and pooling score) and
`MoEModel.classify` the per-example part. Training uses hard Gumbel-Softmax
routing with a straight-through gradient and a group-wise load-balancing
penalty. Without the noise a token's per-token outputs depend on its id and
privacy flag alone, so inference gathers them from one table of every pair.
"""

from __future__ import annotations

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


def privacy_isolation_mask(mask, num_experts: int, k_p: int) -> np.ndarray:
    """Boolean (L, K) matrix of inadmissible (token, expert) pairs: a
    sensitive token (mask 1) may not reach expert k_p or above, and a
    non-sensitive one (mask 0) no expert below k_p."""
    sensitive = np.asarray(mask).reshape(-1, 1) == 1
    return sensitive != (np.arange(num_experts) < k_p)


@dataclass
class ForwardResult:
    logits: Tensor          # (B, C)
    z: Tensor               # (N, K) soft routing probabilities

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
        self._table_key, self._table = (), None

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

    def _route(self, ids, mask, gamma: Optional[np.ndarray]) -> tuple:
        """Embedding, privacy-isolated top-1 gate and expert dispatch of the
        tokens, and each token's pooling score: (h_prime (N, d), z (N, K),
        score (N, 1)). The gate logits plus Gumbel noise `gamma` (none when
        None) give z, their softmax at temperature tau with the inadmissible
        pairs at exactly 0, and each token's expert, their argmax over its
        admissible experts. The dispatch scales each output row by the
        one-hot choice, with z's gradient (straight-through)."""
        c = self.config
        h = T.gather_rows(self.embedding, ids)
        g = T.matmul(h, self.w_g) + self.b_g
        if gamma is not None:
            g = g + Tensor(gamma)
        exclude = privacy_isolation_mask(mask, c.num_experts, c.num_privacy_experts)
        z = T.softmax(g, c.tau, exclude)
        assign = np.where(exclude, -np.inf, g.data).argmax(axis=1)
        routed = T.straight_through(z, np.eye(c.num_experts)[assign])
        h_prime = T.expert_dispatch(h, routed, assign, self.experts)
        return h_prime, z, T.matmul(h_prime, self.agg_w)

    def _token_table(self) -> tuple:
        """The noise-free `_route` of every (token id, privacy flag) pair as
        (h_prime (2V, d), z (2V, K), score (2V, 1)), row `id + V * flag`.
        Rebuilt when an array it reads has been replaced (parameters are
        never written in place)."""
        arrays = tuple(p.data for p in (self.embedding, self.w_g, self.b_g, self.agg_w,
                                        *(v for e in self.experts for v in e.values())))
        key = self._table_key
        if len(key) != len(arrays) or any(a is not b for a, b in zip(key, arrays)):
            V = self.config.vocab_size
            with T.no_grad():
                self._table = self._route(np.tile(np.arange(V), 2), np.repeat([0, 1], V), None)
            self._table_key = arrays
        return self._table

    def encode(self, ids, mask, rng: Optional[RngStream] = None) -> tuple:
        """Embedding, privacy-isolated gate, hard routing and pooling score of
        tokens packed as by `pack` (token ids and privacy mask): (h_prime
        (N, d), z (N, K), score (N, 1)). Gumbel noise is added to the gate
        exactly when `rng` is given (training). Without it each token takes
        its argmax expert, so all three outputs depend on the token's
        (id, flag) alone and are read from `_token_table`, without a
        gradient. Every token reaches its expert; which rows are pooled is
        `forward_batch`'s choice."""
        c = self.config
        if rng is not None:
            return self._route(ids, mask, rng.gumbel((ids.shape[0], c.num_experts)))
        ids = np.asarray(ids, dtype=np.intp)
        if ids.size and (ids.min() < 0 or ids.max() >= c.vocab_size):
            raise IndexError(f"token id out of range: {ids} for {c.vocab_size} ids")
        rows = ids + c.vocab_size * (np.asarray(mask) == 1)
        return tuple(Tensor(t.data[rows]) for t in self._token_table())

    def classify(self, rows: Tensor, score: Tensor, seg, n_examples: int) -> Tensor:
        """Pool expert-output rows per example (`seg`), weighted by the
        softmax of their pooling scores within the example, then layer norm
        and the linear head: logits (n_examples, C). `rows` and `score` hold
        only the tokens to pool, so a token that is not pooled never enters
        the softmax; an example with none raises ValueError."""
        try:
            alpha = T.segment_softmax(score, seg, n_examples)  # (n, 1)
        except ValueError as exc:
            raise ValueError("no tokens to aggregate") from exc
        pooled = T.layer_norm(T.segment_sum(alpha * rows, seg, n_examples),
                              self.ln_gain, self.ln_bias)
        return T.matmul(pooled, self.w_o) + self.b_o

    def forward_batch(self, ids, mask, seg, rng: Optional[RngStream] = None,
                      active=None) -> ForwardResult:
        """The one MoE forward, `encode` then `classify`, over examples
        packed as by `pack` (token ids, privacy mask and `seg`), so that
        expert dispatch and pooling run as a few large numpy ops. Each
        example pools its tokens marked in `active` (default: all of them);
        an example with none raises ValueError."""
        h_prime, z, score = self.encode(ids, mask, rng)
        pos = np.arange(ids.shape[0]) if active is None else np.flatnonzero(active)
        # training pools every token: skip the gathers and their scatter-add backward
        if pos.size != ids.shape[0]:
            h_prime, score = T.gather_rows(h_prime, pos), T.gather_rows(score, pos)
        logits = self.classify(h_prime, score, seg[pos], int(seg[-1]) + 1)
        return ForwardResult(logits=logits, z=z)

    def forward(self, seq: TokenSequence, active=None) -> ForwardResult:
        """Noise-free `forward_batch` on one sequence, pooled over the tokens
        that `active` indexes as numpy indexing would (default: every token)."""
        if active is not None:
            flags = np.zeros(seq.length, dtype=bool)
            flags[active] = True
            active = flags
        ids, mask, seg, _ = pack([(seq, None)])
        return self.forward_batch(ids, mask, seg, active=active)

    def loss(self, ids, mask, seg, labels, rng: RngStream) -> Tensor:
        """Training loss over packed examples and their labels, with Gumbel
        noise from `rng`: mean cross-entropy plus `lambda_lb` times the
        load-balancing loss."""
        res = self.forward_batch(ids, mask, seg, rng=rng)
        task = T.tmean(T.cross_entropy_batch(res.logits, labels))
        lb = batch_load_balance(res.z, mask, seg, len(labels), self.config.num_privacy_experts)
        return task + lb * self.config.lambda_lb


def pack(pairs) -> tuple:
    """The packed layout of a list of (seq, label) pairs: token ids, privacy
    mask and example index (`seg`) of every token, example after example,
    and the `offsets` by which example e owns tokens `offsets[e]:offsets[e + 1]`."""
    lengths = [seq.length for seq, _ in pairs]
    ids = np.concatenate([seq.ids for seq, _ in pairs])
    mask = np.concatenate([seq.mask for seq, _ in pairs])
    seg = np.arange(len(pairs)).repeat(lengths)
    return ids, mask, seg, np.array([0, *itertools.accumulate(lengths)])


def batches(offsets: np.ndarray, size: int, order=None):
    """Minibatches of `size` examples of a split packed by `pack` with these
    `offsets`, taken in `order` (default: packed order). Yields (examples,
    rows, seg): their indices, their packed rows, and each row's example as
    `pack` numbers those examples alone."""
    order = np.arange(offsets.size - 1) if order is None else np.asarray(order)
    for start in range(0, order.size, size):
        examples = order[start:start + size]
        first = offsets[examples]
        lengths = offsets[examples + 1] - first
        seg = np.arange(examples.size).repeat(lengths)
        # each row's position within its example, added to the example's first row
        within = np.arange(seg.size) - (np.cumsum(lengths) - lengths)[seg]
        yield examples, first[seg] + within, seg


def batch_forward(model: MoEModel, pairs):
    """`MoEModel.forward_batch` over a list of (seq, label) pairs, as
    (logits (B, C), z (N_tok, K), mask array, seg ids)."""
    ids, mask, seg, _ = pack(pairs)
    res = model.forward_batch(ids, mask, seg)
    return res.logits, res.z, mask, seg


def batch_load_balance(z: Tensor, mask: np.ndarray, seg: np.ndarray,
                       n_examples: int, k_p: int) -> Tensor:
    """Mean over examples of the group-wise load-balancing loss: the squared
    deviation of mean expert usage from uniform, computed separately over each
    example's sensitive and non-sensitive tokens. Empty groups contribute zero."""
    K = z.shape[1]
    admit = ~privacy_isolation_mask(mask, K, k_p)  # (N, K): each token's group's columns
    # (n_examples, K): the example's token count in the group owning the column
    counts = T.segment_sum(Tensor(admit), seg, n_examples).data
    # each token weighs 1 / its group's size on its group's columns, 0 elsewhere
    usage = T.segment_sum(z * (admit / np.maximum(counts, 1)[seg]), seg, n_examples)
    dev = usage - np.where(np.arange(K) < k_p, 1.0 / k_p, 1.0 / (K - k_p))
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


class MaskScorer:
    """One noise-free `encode` of `data`, kept so that any choice of active
    tokens can be scored by `classify` alone.

    Without Gumbel noise a token's gate, expert output and pooling score
    depend on that token only, so an offload decision changes only which
    rows are pooled.
    A choice is a boolean mask over the tokens of `data` in `pack`'s layout,
    whose arrays the scorer keeps.
    """

    def __init__(self, model: MoEModel, data):
        self.model = model
        self.ids, mask, self.seg, self.offsets = pack(data)
        h_prime, _, score = model.encode(self.ids, mask)
        self.h_prime, self.score = h_prime.data, score.data
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
            logits = self.model.classify(Tensor(self.h_prime[pos]), Tensor(self.score[pos]),
                                         local, present.size)
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
    ids, mask, _, offsets = pack(train_data)
    labels = np.asarray([label for _, label in train_data])
    for epoch in range(c.epochs):
        order = shuffle_rng.permutation(labels.size)
        losses = []
        for examples, rows, seg in batches(offsets, c.batch_size, order):
            model.zero_grad()
            batch_loss = model.loss(ids[rows], mask[rows], seg, labels[examples], rng=noise_rng)
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
