"""Importance predictor: estimates each token's aggregation weight from its
embedding alone, so the client can rank non-sensitive tokens without running
the remote experts.

Architecture: linear projection to a reduced width, a stack of post-norm
transformer encoder blocks (multi-head self-attention + feedforward, residual
connections, layer norm), and a scalar scoring head normalized by softmax
over the sequence. No positional encoding: importance is content-based, and
the model stays permutation-equivariant by construction. Training and
scoring run on packed token matrices (`ImportancePredictor.predict_batch`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .checkpoint import MAGIC_PREDICTOR, load_params, save_params
from .moe import batches, pack
from .rng import RngStream
from .tensor import Tensor


@dataclass
class PredictorConfig:
    d: int
    proj_dim: int = 32
    layers: int = 2
    heads: int = 4
    learning_rate: float = 2e-3
    epochs: int = 30
    batch_size: int = 16

    def __post_init__(self):
        if self.proj_dim > self.d:
            raise ValueError("proj_dim must not exceed the embedding dim")
        if self.layers < 1:
            raise ValueError("need at least one encoder layer")
        if self.proj_dim % self.heads != 0:
            raise ValueError(
                f"heads ({self.heads}) must divide proj_dim ({self.proj_dim})"
            )


class ImportancePredictor(T.Module):
    def __init__(self, config: PredictorConfig, rng: RngStream):
        self.config = config
        r = rng.spawn("predictor-init")
        d, p = config.d, config.proj_dim
        self.w_in = self._p(r, (d, p), 1.0 / math.sqrt(d))
        self.b_in = self._p(r, (p,), 0.0)
        self.blocks = []
        for _ in range(config.layers):
            blk = {
                "wq": self._p(r, (p, p), 1.0 / math.sqrt(p)),
                "wk": self._p(r, (p, p), 1.0 / math.sqrt(p)),
                "wv": self._p(r, (p, p), 1.0 / math.sqrt(p)),
                "wo": self._p(r, (p, p), 1.0 / math.sqrt(p)),
                "bo": self._p(r, (p,), 0.0),
                "ln1_g": Tensor(np.ones(p), requires_grad=True),
                "ln1_b": Tensor(np.zeros(p), requires_grad=True),
                "ffn_w1": self._p(r, (p, 2 * p), math.sqrt(2.0 / p)),
                "ffn_b1": self._p(r, (2 * p,), 0.0),
                "ffn_w2": self._p(r, (2 * p, p), math.sqrt(2.0 / (2 * p))),
                "ffn_b2": self._p(r, (p,), 0.0),
                "ln2_g": Tensor(np.ones(p), requires_grad=True),
                "ln2_b": Tensor(np.zeros(p), requires_grad=True),
            }
            self.blocks.append(blk)
        self.w_score = self._p(r, (p, 1), 1.0 / math.sqrt(p))
        self.b_score = self._p(r, (1,), 0.0)

    def parameters(self) -> dict:
        params = {"w_in": self.w_in, "b_in": self.b_in,
                  "w_score": self.w_score, "b_score": self.b_score}
        for i, blk in enumerate(self.blocks):
            for k, v in blk.items():
                params[f"block{i}.{k}"] = v
        return params

    def predict_batch(self, x: np.ndarray, seg: np.ndarray) -> Tensor:
        """The one predictor forward, over sequences packed into one (N, d)
        matrix with each row's sequence in `seg`, as `pack` numbers them;
        attention and the scoring softmax stay within each sequence (sequence
        packing without cross-contamination). Returns the importance column
        (N, 1); each sequence's rows sum to 1."""
        n = int(seg[-1]) + 1
        h = T.matmul(Tensor(x), self.w_in) + self.b_in
        for blk in self.blocks:
            att = T.segment_attention(T.matmul(h, blk["wq"]), T.matmul(h, blk["wk"]),
                                      T.matmul(h, blk["wv"]), seg, n, self.config.heads)
            att = T.matmul(att, blk["wo"]) + blk["bo"]
            h = T.layer_norm(h + att, blk["ln1_g"], blk["ln1_b"])
            ffn = T.matmul(T.relu(T.matmul(h, blk["ffn_w1"]) + blk["ffn_b1"]),
                           blk["ffn_w2"]) + blk["ffn_b2"]
            h = T.layer_norm(h + ffn, blk["ln2_g"], blk["ln2_b"])
        scores = T.matmul(h, self.w_score) + self.b_score
        return T.segment_softmax(scores, seg, n)

    def predict(self, embeddings: np.ndarray) -> Tensor:
        """Importance distribution over one sequence; shape (L, 1), sums to 1."""
        return self.predict_batch(embeddings, np.zeros(len(embeddings), dtype=np.intp))

    def scores_np(self, embeddings: np.ndarray) -> np.ndarray:
        """`predict` as a 1-D array that owns its values (no view that keeps
        the (L, 1) result alive)."""
        with T.no_grad():
            return self.predict(embeddings).data[:, 0].copy()


def kl_loss(alpha, alpha_hat: Tensor) -> Tensor:
    """KL(alpha || alpha_hat) in nats, with 0 ln 0 taken as 0; `alpha_hat`
    is an (N, 1) column, as `predict_batch` returns."""
    alpha = np.asarray(alpha, dtype=np.float64).reshape(-1)
    support = np.flatnonzero(alpha > 0)
    if np.any(alpha_hat.data[support] <= 0):
        raise ValueError("alpha_hat has zero mass where alpha > 0")
    ah = T.gather_rows(alpha_hat, support)
    a = alpha[support].reshape(-1, 1)
    const = float(np.sum(a * np.log(a)))
    return T.tsum(T.log(ah) * (-a)) + const


def collect_dataset(model, data) -> tuple:
    """The distillation set of `data`, packed: (embedding table, token ids,
    alpha, offsets), alpha being each token's aggregation weight when a
    trained classifier pools its noise-free `encode`: one segment softmax
    over every token's pooling score. The scores are encoded
    `model.config.batch_size` sequences at a time, which bounds memory and
    leaves the values alone. Minibatches gather their rows from the table:
    a freed (N, d) copy would raise glibc's mmap threshold for the process."""
    ids, mask, seg, offsets = pack(data)
    with T.no_grad():
        score = np.concatenate([model.encode(ids[rows], mask[rows])[2].data
                                for _, rows, _ in batches(offsets, model.config.batch_size)])
        alpha = T.segment_softmax(Tensor(score), seg, offsets.size - 1).data.reshape(-1)
    return model.embedding.data, ids, alpha, offsets


@dataclass
class PredictorTrace:
    epochs: list = field(default_factory=list)
    mean_kl: list = field(default_factory=list)


def train_predictor(
    dataset: tuple,
    config: PredictorConfig,
    seed: int,
    log=None,
) -> tuple:
    """Adam minibatch descent on mean KL; deterministic under a fixed seed."""
    table, ids, alpha, offsets = dataset
    n = offsets.size - 1
    if not n:
        raise ValueError("no training records")
    predictor = ImportancePredictor(config, RngStream(seed, "predictor"))
    params = predictor.parameters()
    m = {k: np.zeros_like(p.data) for k, p in params.items()}
    v = {k: np.zeros_like(p.data) for k, p in params.items()}
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    shuffle_rng = RngStream(seed, "predictor/shuffle")
    trace = PredictorTrace()
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(n)
        epoch_kl = []
        for examples, rows, seg in batches(offsets, config.batch_size, order):
            predictor.zero_grad()
            alpha_hat = predictor.predict_batch(table[ids[rows]], seg)
            loss = kl_loss(alpha[rows], alpha_hat) * (1.0 / examples.size)
            if not np.isfinite(loss.item()):
                raise T.DivergenceError(f"predictor loss diverged at epoch {epoch + 1}")
            T.backward(loss)
            epoch_kl.append(loss.item())
            step += 1
            for k, p in params.items():
                if p.grad is None:
                    continue
                m[k] = beta1 * m[k] + (1 - beta1) * p.grad
                v[k] = beta2 * v[k] + (1 - beta2) * p.grad ** 2
                mh = m[k] / (1 - beta1 ** step)
                vh = v[k] / (1 - beta2 ** step)
                p.data = p.data - config.learning_rate * mh / (np.sqrt(vh) + eps)
        trace.epochs.append(epoch + 1)
        trace.mean_kl.append(float(np.mean(epoch_kl)))
        if log:
            log(f"predictor epoch {epoch + 1}: mean KL {trace.mean_kl[-1]:.5f}")
    return predictor, trace


def save_predictor(predictor: ImportancePredictor, path: str):
    save_params(path, MAGIC_PREDICTOR, predictor)


def load_predictor(path: str) -> ImportancePredictor:
    return load_params(path, MAGIC_PREDICTOR, ImportancePredictor, PredictorConfig)
