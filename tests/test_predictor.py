import math

import numpy as np
import pytest

from pwcmoe import moe, predictor
from pwcmoe import tensor as T
from pwcmoe.corpus import TokenSequence
from pwcmoe.rng import RngStream
from pwcmoe.tensor import Tensor

from conftest import pack_rows


def make_seq(ids, mask):
    return TokenSequence(ids=list(ids), mask=list(mask),
                         tokens=[f"t{i}" for i in ids])


def tiny_config(**kw):
    base = dict(d=8, proj_dim=8, layers=1, heads=2, epochs=3, batch_size=4)
    base.update(kw)
    return predictor.PredictorConfig(**base)


class TestConfig:
    def test_proj_dim_bounded_by_d(self):
        with pytest.raises(ValueError):
            predictor.PredictorConfig(d=4, proj_dim=8)

    def test_heads_must_divide_proj_dim(self):
        with pytest.raises(ValueError):
            predictor.PredictorConfig(d=8, proj_dim=6, heads=4)

    def test_at_least_one_layer(self):
        with pytest.raises(ValueError):
            predictor.PredictorConfig(d=8, proj_dim=8, layers=0)


class TestKlLoss:
    def test_zero_when_equal(self):
        alpha = np.array([0.25, 0.75])
        assert predictor.kl_loss(alpha, Tensor(alpha.reshape(2, 1))).item() == \
            pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        # KL([.5,.5] || [.25,.75]) = .5 ln 2 + .5 ln(2/3)
        expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        got = predictor.kl_loss(np.array([0.5, 0.5]),
                                Tensor(np.array([[0.25], [0.75]]))).item()
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.1438, abs=1e-4)

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.dirichlet(np.ones(5))
            b = rng.dirichlet(np.ones(5))
            assert predictor.kl_loss(a, Tensor(b.reshape(-1, 1))).item() >= -1e-12

    def test_zero_alpha_component_ignored(self):
        got = predictor.kl_loss(np.array([1.0, 0.0]),
                                Tensor(np.array([[0.5], [0.5]]))).item()
        assert got == pytest.approx(math.log(2.0), rel=1e-12)

    def test_zero_alpha_hat_on_support_rejected(self):
        with pytest.raises(ValueError, match="zero mass"):
            predictor.kl_loss(np.array([0.5, 0.5]),
                              Tensor(np.array([[1.0], [0.0]])))

    def test_gradient(self, fd_check):
        rng = np.random.default_rng(1)
        alpha = rng.dirichlet(np.ones(4))
        x = Tensor(rng.uniform(-1, 1, (4, 1)), requires_grad=True)
        fd_check(lambda: predictor.kl_loss(alpha, T.segment_softmax(x, np.zeros(4), 1)),
                 {"x": x})


class TestPredict:
    def test_output_is_distribution(self):
        p = predictor.ImportancePredictor(tiny_config(), RngStream(0, "p"))
        out = p.predict(np.random.default_rng(0).normal(size=(5, 8)))
        assert out.shape == (5, 1)
        assert out.data.min() > 0.0
        assert out.data.sum() == pytest.approx(1.0)

    def test_permutation_equivariant(self):
        p = predictor.ImportancePredictor(tiny_config(), RngStream(1, "p"))
        emb = np.random.default_rng(1).normal(size=(6, 8))
        perm = np.array([3, 0, 5, 1, 4, 2])
        a = p.scores_np(emb)
        b = p.scores_np(emb[perm])
        assert np.allclose(a[perm], b, atol=1e-10)

    def test_single_token_sequence(self):
        p = predictor.ImportancePredictor(tiny_config(), RngStream(2, "p"))
        assert p.scores_np(np.zeros((1, 8))) == pytest.approx([1.0])

    def test_packed_equals_per_record(self):
        p = predictor.ImportancePredictor(tiny_config(layers=2), RngStream(6, "p"))
        rng = np.random.default_rng(4)
        embs = [rng.normal(size=(L, 8)) for L in (5, 1, 3, 7, 2)]
        x, seg, offsets = pack_rows(embs)
        packed = p.predict_batch(x, seg).data.reshape(-1)
        for e, emb in enumerate(embs):
            got = packed[offsets[e]:offsets[e + 1]]
            assert np.allclose(got, p.scores_np(emb), rtol=0, atol=1e-12)

    def test_packed_records_do_not_mix(self):
        p = predictor.ImportancePredictor(tiny_config(layers=2), RngStream(7, "p"))
        rng = np.random.default_rng(5)
        embs = [rng.normal(size=(L, 8)) for L in (4, 2, 6)]
        before = p.predict_batch(*pack_rows(embs)[:2]).data
        embs[1] = rng.normal(size=(2, 8))
        after = p.predict_batch(*pack_rows(embs)[:2]).data
        keep = np.repeat([True, False, True], [4, 2, 6])
        assert np.array_equal(before[keep], after[keep])
        assert not np.array_equal(before[~keep], after[~keep])

    def test_end_to_end_gradient(self, fd_check):
        cfg = tiny_config()
        p = predictor.ImportancePredictor(cfg, RngStream(3, "p"))
        rng = np.random.default_rng(2)
        emb = rng.normal(size=(3, 8))
        alpha = rng.dirichlet(np.ones(3))
        fd_check(lambda: predictor.kl_loss(alpha, p.predict(emb)),
                 p.parameters(), tol=2e-4)


class TestCollect:
    def test_targets_come_from_aggregation_weights(self):
        # batch_size 3: the seven sequences take three forwards, the last partial
        cfg = moe.MoEConfig(vocab_size=12, num_classes=3, d=4, num_experts=3,
                            num_privacy_experts=1, expert_hidden=5, batch_size=3)
        model = moe.MoEModel(cfg, RngStream(4, "m"))
        rng = np.random.default_rng(6)
        data = []
        for L in (3, 2, 1, 5, 4, 2, 6):
            ids = rng.integers(2, 12, L)
            data.append((make_seq(ids, (ids % 2 == 0).astype(int)), 0))
        table, ids, alpha, offsets = predictor.collect_dataset(model, data)
        assert table is model.embedding.data
        assert offsets.tolist() == [0, *np.cumsum([seq.length for seq, _ in data])]
        for e, (seq, _) in enumerate(data):
            rows = slice(offsets[e], offsets[e + 1])
            seq_ids, seq_mask, seg, _ = moe.pack([(seq, 0)])
            with T.no_grad():
                _, _, score = model._route(seq_ids, seq_mask, None)
            want = T.segment_softmax(score, seg, 1)
            assert np.allclose(alpha[rows], want.data.reshape(-1), rtol=0, atol=1e-12)
            assert ids[rows].tolist() == seq.ids


def reference_kl_trace(records, config, seed):
    """`train_predictor` with one forward and one KL per (embeddings, target)
    record: the mean KL of every epoch."""
    pred = predictor.ImportancePredictor(config, RngStream(seed, "predictor"))
    params = pred.parameters()
    m = {k: np.zeros_like(p.data) for k, p in params.items()}
    v = {k: np.zeros_like(p.data) for k, p in params.items()}
    beta1, beta2 = 0.9, 0.999
    shuffle = RngStream(seed, "predictor/shuffle")
    step, trace = 0, []
    for _ in range(config.epochs):
        order = shuffle.permutation(len(records))
        kls = []
        for start in range(0, len(records), config.batch_size):
            batch = [records[i] for i in order[start:start + config.batch_size]]
            pred.zero_grad()
            loss = None
            for emb, target in batch:
                kl = predictor.kl_loss(target, pred.predict(emb))
                loss = kl if loss is None else loss + kl
            loss = loss * (1.0 / len(batch))
            T.backward(loss)
            kls.append(loss.item())
            step += 1
            for k, p in params.items():
                m[k] = beta1 * m[k] + (1 - beta1) * p.grad
                v[k] = beta2 * v[k] + (1 - beta2) * p.grad ** 2
                mh = m[k] / (1 - beta1 ** step)
                vh = v[k] / (1 - beta2 ** step)
                p.data = p.data - config.learning_rate * mh / (np.sqrt(vh) + 1e-8)
        trace.append(float(np.mean(kls)))
    return trace


def packed_dataset(records) -> tuple:
    """(embeddings, target) records as a `collect_dataset` tuple, with the
    table's rows stored in reverse so that a minibatch must gather by id."""
    emb, _, offsets = pack_rows([emb for emb, _ in records])
    ids = np.arange(len(emb))[::-1]
    return emb[ids], ids, np.concatenate([target for _, target in records]), offsets


class TestTraining:
    def _dataset(self, n, L=4, d=8, seed=0):
        rng = np.random.default_rng(seed)
        # importance is a fixed linear function of the embedding: learnable
        w = rng.normal(size=d)
        records = []
        for _ in range(n):
            emb = rng.normal(size=(L, d))
            s = emb @ w
            a = np.exp(s - s.max())
            records.append((emb, a / a.sum()))
        return packed_dataset(records)

    def test_matches_per_record_reference_trainer(self):
        rng = np.random.default_rng(7)
        records = [(rng.normal(size=(L, 8)), rng.dirichlet(np.ones(L)))
                   for L in rng.integers(1, 7, 10)]
        cfg = tiny_config(epochs=2, batch_size=4)
        _, trace = predictor.train_predictor(packed_dataset(records), cfg, seed=2)
        ref = reference_kl_trace(records, cfg, seed=2)
        assert np.allclose(trace.mean_kl, ref, rtol=1e-12, atol=0)

    def test_kl_decreases(self):
        table, ids, alpha, offsets = dataset = self._dataset(40)
        p, trace = predictor.train_predictor(dataset, tiny_config(epochs=5), seed=0)
        assert trace.mean_kl[-1] < trace.mean_kl[0]
        seg = np.arange(offsets.size - 1).repeat(np.diff(offsets))
        with T.no_grad():
            final = predictor.kl_loss(alpha, p.predict_batch(table[ids], seg)).item() / 40
        assert final < trace.mean_kl[0]

    def test_deterministic_replay(self):
        dataset = self._dataset(12)
        runs = []
        for _ in range(2):
            p, _ = predictor.train_predictor(dataset, tiny_config(epochs=2), seed=3)
            runs.append({k: v.data.copy() for k, v in p.parameters().items()})
        for k in runs[0]:
            assert np.array_equal(runs[0][k], runs[1][k])

    def test_empty_records_rejected(self):
        empty = (np.zeros((0, 8)), np.zeros(0, dtype=np.intp), np.zeros(0),
                 np.zeros(1, dtype=np.intp))
        with pytest.raises(ValueError, match="no training records"):
            predictor.train_predictor(empty, tiny_config(), seed=0)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        p = predictor.ImportancePredictor(tiny_config(), RngStream(5, "p"))
        path = str(tmp_path / "predictor.pwcp")
        predictor.save_predictor(p, path)
        loaded = predictor.load_predictor(path)
        assert loaded.config == p.config
        emb = np.random.default_rng(3).normal(size=(4, 8))
        assert np.allclose(p.scores_np(emb), loaded.scores_np(emb), atol=1e-5)

    @pytest.mark.parametrize("field", ["heads", "proj_dim", "layers"])
    def test_zero_size_rejected_by_name(self, tmp_path, field):
        from pwcmoe import checkpoint
        p = predictor.ImportancePredictor(tiny_config(), RngStream(5, "p"))
        path = str(tmp_path / "predictor.pwcp")
        predictor.save_predictor(p, path)
        config, arrays = checkpoint.load_container(path, checkpoint.MAGIC_PREDICTOR)
        config[field] = "0"
        checkpoint.save_container(path, checkpoint.MAGIC_PREDICTOR, config, arrays)
        with pytest.raises(checkpoint.CheckpointError,
                           match=f"^{path}: config field '{field}' must be >= 1, got 0$"):
            predictor.load_predictor(path)

    def test_model_magic_rejected(self, tmp_path):
        from pwcmoe.checkpoint import CheckpointError
        cfg = moe.MoEConfig(vocab_size=12, num_classes=3, d=4, num_experts=3,
                            num_privacy_experts=1, expert_hidden=5)
        model = moe.MoEModel(cfg, RngStream(6, "m"))
        path = str(tmp_path / "model.pwcm")
        moe.save_model(model, path)
        with pytest.raises(CheckpointError, match="magic"):
            predictor.load_predictor(path)
