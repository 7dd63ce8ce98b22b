"""Importance predictor: estimates each token's aggregation weight from its
embedding alone, so the client can rank non-sensitive tokens without running
the remote experts.

Architecture: linear projection to a reduced width, a stack of post-norm
transformer encoder blocks (multi-head self-attention + feedforward, residual
connections, layer norm), and a scalar scoring head normalized by softmax
over the sequence. No positional encoding: importance is content-based, and
the model stays permutation-equivariant by construction. Training packs each
minibatch into one token matrix (`ImportancePredictor.predict_batch`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .checkpoint import MAGIC_PREDICTOR, load_params, save_params
from .moe import pack
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


@dataclass
class ImportanceRecord:
    embeddings: np.ndarray  # (L, d) token embeddings
    target: np.ndarray      # (L,) ground-truth aggregation weights

    def __post_init__(self):
        self.embeddings = np.asarray(self.embeddings, dtype=np.float64)
        self.target = np.asarray(self.target, dtype=np.float64).reshape(-1)
        if self.embeddings.shape[0] != self.target.shape[0]:
            raise ValueError("embeddings/target length mismatch")
        if self.target.min() < 0 or abs(self.target.sum() - 1.0) > 1e-6:
            raise ValueError("target is not a distribution")


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

    def predict_batch(self, embeddings: list) -> Tensor:
        """The one predictor forward. Packs the sequences (each an (L_i, d)
        array) into one (N, d) matrix with a segment id per token; attention
        and the scoring softmax stay within each sequence (sequence packing
        without cross-contamination). Returns the importance column (N, 1);
        each sequence's rows sum to 1."""
        n = len(embeddings)
        seg = np.repeat(np.arange(n), [len(e) for e in embeddings])
        h = T.matmul(Tensor(np.concatenate(embeddings)), self.w_in) + self.b_in
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
        return self.predict_batch([embeddings])

    def scores_np(self, embeddings: np.ndarray) -> np.ndarray:
        with T.no_grad():
            return self.predict(embeddings).data.reshape(-1)


def kl_loss(alpha, alpha_hat: Tensor) -> Tensor:
    """KL(alpha || alpha_hat) in nats, with 0 ln 0 taken as 0."""
    alpha = np.asarray(getattr(alpha, "data", alpha), dtype=np.float64).reshape(-1)
    L = alpha.shape[0]
    ah_flat = T.reshape(alpha_hat, (L, 1))
    support = np.flatnonzero(alpha > 0)
    if np.any(ah_flat.data.reshape(-1)[support] <= 0):
        raise ValueError("alpha_hat has zero mass where alpha > 0")
    ah = T.gather_rows(ah_flat, support)
    a = alpha[support].reshape(-1, 1)
    const = float(np.sum(a * np.log(a)))
    return T.tsum(T.log(ah) * (-a)) + const


def collect_dataset(model, data) -> list:
    """(embedding, alpha) pairs from noise-free full-sequence forwards of a
    trained classifier, `model.config.batch_size` sequences per forward."""
    records = []
    step = model.config.batch_size
    _, _, _, offsets = pack(data)
    with T.no_grad():
        for start in range(0, len(data), step):
            chunk = data[start:start + step]
            res = model.forward_batch(chunk, mode="eval")
            cuts = offsets[start + 1:start + len(chunk)] - offsets[start]
            for emb, alpha in zip(np.split(res.h.data, cuts),
                                  np.split(res.alpha.data.reshape(-1), cuts)):
                records.append(ImportanceRecord(embeddings=emb, target=alpha))
    return records


def packed_kl(predictor: ImportancePredictor, records: list) -> Tensor:
    """Summed KL of `records` under one packed forward."""
    alpha_hat = predictor.predict_batch([r.embeddings for r in records])
    return kl_loss(np.concatenate([r.target for r in records]), alpha_hat)


@dataclass
class PredictorTrace:
    epochs: list = field(default_factory=list)
    mean_kl: list = field(default_factory=list)


def train_predictor(
    records: list,
    config: PredictorConfig,
    seed: int,
    log=None,
) -> tuple:
    """Adam minibatch descent on mean KL; deterministic under a fixed seed."""
    if not records:
        raise ValueError("no training records")
    predictor = ImportancePredictor(config, RngStream(seed, "predictor"))
    params = predictor.parameters()
    m = {k: np.zeros_like(p.data) for k, p in params.items()}
    v = {k: np.zeros_like(p.data) for k, p in params.items()}
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    shuffle_rng = RngStream(seed, "predictor/shuffle")
    trace = PredictorTrace()
    n = len(records)
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(n)
        epoch_kl = []
        for start in range(0, n, config.batch_size):
            batch = [records[i] for i in order[start:start + config.batch_size]]
            predictor.zero_grad()
            loss = packed_kl(predictor, batch) * (1.0 / len(batch))
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
