import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwcmoe import moe
from pwcmoe import tensor as T
from pwcmoe.corpus import TokenSequence
from pwcmoe.rng import RngStream
from pwcmoe.scheduler import select_topk
from pwcmoe.tensor import Tensor


def make_seq(ids, mask):
    return TokenSequence(ids=list(ids), mask=list(mask),
                         tokens=[f"t{i}" for i in ids])


def tiny_config(**kw):
    base = dict(vocab_size=12, num_classes=3, d=4, num_experts=3,
                num_privacy_experts=1, expert_hidden=5, tau=1.0,
                lambda_lb=0.01)
    base.update(kw)
    return moe.MoEConfig(**base)


@pytest.fixture
def tiny_model():
    return moe.MoEModel(tiny_config(), RngStream(0, "m"))


class TestConfig:
    def test_privacy_expert_bounds(self):
        with pytest.raises(ValueError):
            tiny_config(num_privacy_experts=0)
        with pytest.raises(ValueError):
            tiny_config(num_privacy_experts=3)

    def test_positive_tau(self):
        with pytest.raises(ValueError):
            tiny_config(tau=0.0)

    def test_nonnegative_lambda(self):
        with pytest.raises(ValueError):
            tiny_config(lambda_lb=-0.1)


class TestPrivacyIsolation:
    def test_mask_matrix(self):
        out = moe.privacy_isolation_mask([1, 0], num_experts=4, k_p=2)
        # sensitive token barred from experts 2..3; non-sensitive from 0..1
        assert out.tolist() == [[False, False, True, True],
                                [True, True, False, False]]

    @given(st.lists(st.integers(0, 1), min_size=0, max_size=10), st.integers(2, 6),
           st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_mask_matrix_equals_row_assignment(self, mask, num_experts, k_p):
        k_p = min(k_p, num_experts - 1)
        want = np.zeros((len(mask), num_experts), dtype=bool)
        want[np.asarray(mask, dtype=int) == 1, k_p:] = True
        want[np.asarray(mask, dtype=int) == 0, :k_p] = True
        got = moe.privacy_isolation_mask(mask, num_experts, k_p)
        assert got.dtype == bool and np.array_equal(got, want)

    def test_masked_probability_exactly_zero(self):
        g = Tensor(np.zeros((2, 4)))
        g_prime = moe.apply_privacy_isolation(g, [1, 0], k_p=2)
        z = moe.gumbel_softmax(g_prime, 1.0, np.zeros((2, 4)))
        assert np.array_equal(z.data[0, 2:], [0.0, 0.0])
        assert np.array_equal(z.data[1, :2], [0.0, 0.0])
        assert np.allclose(z.data.sum(axis=1), 1.0)

    def test_no_admissible_expert(self):
        g_prime = Tensor(np.full((1, 3), T.NEG_INF))
        with pytest.raises(ValueError, match="no admissible expert"):
            moe.gumbel_softmax(g_prime, 1.0, np.zeros((1, 3)))

    def test_k_p_must_be_smaller_than_total(self):
        with pytest.raises(ValueError):
            moe.apply_privacy_isolation(Tensor(np.zeros((1, 3))), [0], k_p=3)

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_forward_routes_within_groups(self, mask):
        model = moe.MoEModel(tiny_config(), RngStream(1, "m"))
        rng = np.random.default_rng(0)
        seq = make_seq(rng.integers(0, 12, len(mask)), mask)
        res = model.forward(seq, rng=RngStream(2, "g"), mode="train")
        k_p = model.config.num_privacy_experts
        for i, m in enumerate(mask):
            if m == 1:
                assert res.assign[i] < k_p
                assert np.all(res.z.data[i, k_p:] == 0.0)
            else:
                assert res.assign[i] >= k_p
                assert np.all(res.z.data[i, :k_p] == 0.0)


def one_example_load_balance(z, mask, k_p=2):
    mask = np.asarray(mask)
    return moe.batch_load_balance(Tensor(np.asarray(z, dtype=float)), mask,
                                  np.zeros(mask.size, dtype=int), 1, k_p)


class TestLoadBalance:
    def test_concentrated_usage_hand_value(self):
        # one sensitive token fully on expert 0 of 2: sum((1-.5)^2+(0-.5)^2)=0.5
        total = one_example_load_balance([[1.0, 0.0, 0.0, 0.0]], [1])
        assert total.item() == pytest.approx(0.5)

    def test_uniform_usage_is_zero(self):
        total = one_example_load_balance(np.tile([0.0, 0.0, 0.5, 0.5], (3, 1)),
                                         [0, 0, 0])
        assert total.item() == pytest.approx(0.0, abs=1e-12)

    def test_empty_group_contributes_zero(self):
        # no sensitive token: the total is the non-privacy group's 0.5 alone
        total = one_example_load_balance([[0.0, 0.0, 1.0, 0.0]], [0])
        assert total.item() == pytest.approx(0.5)

    def test_batch_version_matches_per_example_mean(self):
        rng = np.random.default_rng(4)
        model = moe.MoEModel(tiny_config(), RngStream(5, "m"))
        batch = []
        for _ in range(4):
            L = int(rng.integers(2, 6))
            mask = rng.integers(0, 2, L)
            if mask.all():
                mask[0] = 0
            batch.append((make_seq(rng.integers(0, 12, L), mask), 0))
        _, z, mask_all, seg = moe.batch_forward(model, batch, mode="eval")
        lb = moe.batch_load_balance(z, mask_all, seg, len(batch),
                                    model.config.num_privacy_experts)
        per_example = []
        for seq, _ in batch:
            res = model.forward(seq, mode="eval")
            per_example.append(one_example_load_balance(
                res.z.data, seq.mask, model.config.num_privacy_experts).item())
        assert lb.item() == pytest.approx(np.mean(per_example), rel=1e-10)

    def test_matches_dense_weight_formula(self):
        # example 1 has no sensitive token, so its privacy group is empty
        rng = np.random.default_rng(8)
        mask = np.array([1, 0, 0, 0, 0, 1, 1, 0, 1])
        seg = np.array([0, 0, 1, 1, 1, 2, 2, 2, 3])
        z = rng.dirichlet(np.ones(4), size=mask.size)
        k_p, n_examples = 2, 4

        def dense_group_term(member, start, width):
            counts = np.bincount(seg[member], minlength=n_examples).astype(float)
            weights = np.zeros((n_examples, mask.size))
            weights[seg[member], np.flatnonzero(member)] = 1.0
            nonzero = counts > 0
            weights[nonzero] /= counts[nonzero, None]
            dev = weights @ z[:, start:start + width] - 1.0 / width
            return np.sum(dev * dev * nonzero[:, None])

        ref = (dense_group_term(mask == 1, 0, k_p)
               + dense_group_term(mask == 0, k_p, 4 - k_p)) / n_examples
        lb = moe.batch_load_balance(Tensor(z), mask, seg, n_examples, k_p)
        assert abs(lb.item() - ref) <= 1e-12


class TestAggregate:
    def test_weighted_pooling_hand_case(self):
        h = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        w = Tensor(np.array([[np.log(2.0)], [0.0]]))
        # scores (ln2, 0) -> alpha (2/3, 1/3)
        alpha, pooled = moe.aggregate(h, w, [0, 0], 1)
        assert np.allclose(alpha.data.reshape(-1), [2 / 3, 1 / 3])
        assert np.allclose(pooled.data, [[2 / 3, 1 / 3]])

    def test_restricted_active_set(self):
        # only the pooled rows are passed; each segment pools its own rows
        rows = Tensor(np.array([[1.0, 0.0], [5.0, 5.0], [0.0, 2.0]]))
        alpha, pooled = moe.aggregate(rows, Tensor(np.zeros((2, 1))), [0, 1, 1], 2)
        assert np.allclose(alpha.data, [[1.0], [0.5], [0.5]])
        assert np.allclose(pooled.data, [[1.0, 0.0], [2.5, 3.5]])

    def test_empty_active_raises(self):
        with pytest.raises(ValueError, match="no tokens to aggregate"):
            moe.aggregate(Tensor(np.zeros((0, 2))), Tensor(np.zeros((2, 1))), [], 1)
        # a segment with no rows fails even when another has some
        with pytest.raises(ValueError, match="no tokens to aggregate"):
            moe.aggregate(Tensor(np.zeros((1, 2))), Tensor(np.zeros((2, 1))), [1], 2)


class TestForward:
    def test_eval_deterministic(self, tiny_model):
        seq = make_seq([2, 3, 4], [1, 0, 0])
        a = tiny_model.forward(seq, mode="eval")
        b = tiny_model.forward(seq, mode="eval")
        assert np.array_equal(a.logits.data, b.logits.data)
        assert np.array_equal(a.assign, b.assign)

    def test_train_mode_needs_rng(self, tiny_model):
        with pytest.raises(ValueError, match="RngStream"):
            tiny_model.forward(make_seq([2, 3], [0, 0]), mode="train")

    def test_routed_rows_one_hot_in_eval(self, tiny_model):
        res = tiny_model.forward(make_seq([2, 3, 4], [1, 0, 0]), mode="eval")
        assert np.array_equal(res.routed.data.sum(axis=1), np.ones(3))
        assert set(np.unique(res.routed.data)) <= {0.0, 1.0}

    def test_inactive_tokens_skip_experts(self, tiny_model):
        seq = make_seq([2, 3, 4, 5], [0, 0, 0, 0])
        res = tiny_model.forward(seq, active=[1, 3], mode="eval")
        assert np.all(res.h_prime.data[[0, 2]] == 0.0)
        assert np.any(res.h_prime.data[[1, 3]] != 0.0)

    @pytest.mark.parametrize("rows", [[5, 1, 3, 1, -1], [6, 6, 5, 3, 1], [3, -4, 1, 5, 6, 1]])
    def test_active_positions_follow_numpy_indexing(self, tiny_model, rows):
        # unsorted and repeated positions collapse; -1 is the last token
        seq = make_seq([2, 3, 4, 5, 6, 7, 8], [0, 1, 0, 0, 1, 0, 0])
        got = tiny_model.forward(seq, active=rows)
        want = tiny_model.forward(seq, active=np.unique(np.arange(7)[rows]))
        assert np.array_equal(got.h_prime.data, want.h_prime.data)
        assert np.array_equal(got.logits.data, want.logits.data)

    def test_out_of_range_active_raises(self, tiny_model):
        seq = make_seq([4, 5, 6], [0, 0, 0])
        for active in ([3], [0, -4]):
            with pytest.raises(IndexError):
                tiny_model.forward(seq, active=active)

    def test_probs_normalized(self, tiny_model):
        res = tiny_model.forward(make_seq([2, 3], [0, 1]), mode="eval")
        assert res.probs().sum() == pytest.approx(1.0)

    def test_soft_mode_gradient_matches_finite_differences(self, fd_check):
        model = moe.MoEModel(tiny_config(), RngStream(3, "m"))
        seq = make_seq([2, 5, 7], [1, 0, 0])

        def loss_fn():
            loss, _ = model.loss([(seq, 1)], mode="soft")
            return loss

        fd_check(loss_fn, model.parameters(), tol=1e-4)

    def test_straight_through_gradients_flow_to_gate(self, tiny_model):
        seq = make_seq([2, 3, 4], [1, 0, 0])
        tiny_model.zero_grad()
        loss, _ = tiny_model.loss([(seq, 0)], rng=RngStream(7, "g"))
        T.backward(loss)
        assert tiny_model.w_g.grad is not None
        assert np.any(tiny_model.w_g.grad != 0.0)
        assert np.all(np.isfinite(tiny_model.w_g.grad))


def composed_route_hard(model, h, routed, assign, active=None):
    """Expert dispatch built from single autodiff ops, one gather, MLP,
    gate and scatter per expert: the reference for `T.expert_dispatch`."""
    L = h.shape[0]
    keep = np.ones(L, dtype=bool) if active is None else active
    h_prime = None
    for j in np.unique(assign[keep]):
        idx = np.flatnonzero((assign == j) & keep)
        e = model.experts[j]
        x = T.gather_rows(h, idx)
        out = T.matmul(T.relu(T.matmul(x, e["w1"]) + e["b1"]), e["w2"]) + e["b2"]
        gate = T.reshape(T.gather_elems(routed, idx, np.full(idx.shape, j)), (len(idx), 1))
        piece = T.scatter_rows(out * gate, idx, L)
        h_prime = piece if h_prime is None else h_prime + piece
    return h_prime


def graph_nodes(t: Tensor) -> int:
    """Number of recorded ops (non-leaf tensors) behind `t`."""
    seen, stack = set(), [t]
    while stack:
        node = stack.pop()
        if id(node) not in seen and node._backward_fn is not None:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


class TestExpertDispatch:
    def test_train_batch_bitwise_equals_composed_graph(self, monkeypatch):
        rng = np.random.default_rng(9)
        cfg = tiny_config(num_experts=5, num_privacy_experts=2, d=6, expert_hidden=7)
        batch = []
        for _ in range(6):
            L = int(rng.integers(1, 9))
            batch.append((make_seq(rng.integers(0, 12, L), rng.integers(0, 2, L)),
                          int(rng.integers(0, 3))))
        runs = []
        for route in (None, composed_route_hard):
            model = moe.MoEModel(cfg, RngStream(4, "m"))
            if route is not None:
                monkeypatch.setattr(model, "route_hard",
                                    lambda *a, **kw: route(model, *a, **kw))
            loss, res = model.loss(batch, rng=RngStream(5, "g"))
            T.backward(loss)
            grads = {k: p.grad for k, p in model.parameters().items()}
            runs.append((loss.data, res.h_prime.data, res.logits.data, grads))
        (loss, h_prime, logits, grads), (ref_loss, ref_h_prime, ref_logits, ref_grads) = runs
        assert len(np.unique(np.concatenate([s.mask for s, _ in batch]))) == 2
        assert np.array_equal(h_prime, ref_h_prime)
        assert np.array_equal(logits, ref_logits) and np.array_equal(loss, ref_loss)
        for k, g in grads.items():
            if ref_grads[k] is None:
                assert g is None, k
            else:
                assert g.tobytes() == ref_grads[k].tobytes(), k

    def test_route_hard_adds_one_node(self, tiny_model):
        h = Tensor(np.random.default_rng(0).normal(size=(5, 4)), requires_grad=True)
        routed = Tensor(np.ones((5, 3)), requires_grad=True)
        out = tiny_model.route_hard(h, routed, np.array([0, 1, 2, 1, 0]))
        assert graph_nodes(out) == 1
        ref = composed_route_hard(tiny_model, h, routed, np.array([0, 1, 2, 1, 0]))
        assert graph_nodes(ref) > 20


class TestPack:
    def test_lays_out_each_example(self):
        batch = [(make_seq([2, 3, 4], [0, 1, 0]), 0), (make_seq([5, 6], [1, 0]), 1),
                 (make_seq([7, 8, 9, 10], [0, 0, 0, 1]), 0)]
        ids, mask, seg, offsets = moe.pack(batch)
        assert ids.tolist() == [2, 3, 4, 5, 6, 7, 8, 9, 10]
        assert mask.tolist() == [0, 1, 0, 1, 0, 0, 0, 0, 1]
        assert seg.tolist() == [0, 0, 0, 1, 1, 2, 2, 2, 2]
        assert offsets.tolist() == [0, 3, 5, 9]
        for e, (seq, _) in enumerate(batch):
            assert ids[offsets[e]:offsets[e + 1]].tolist() == seq.ids


class TestBatchForward:
    def test_matches_per_example_eval(self, tiny_model):
        rng = np.random.default_rng(8)
        batch = []
        for _ in range(5):
            L = int(rng.integers(1, 7))
            mask = rng.integers(0, 2, L)
            batch.append((make_seq(rng.integers(0, 12, L), mask), int(rng.integers(0, 3))))
        logits, _, _, _ = moe.batch_forward(tiny_model, batch, mode="eval")
        for e, (seq, _) in enumerate(batch):
            single = tiny_model.forward(seq, mode="eval")
            assert np.allclose(logits.data[e], single.logits.data.reshape(-1),
                               atol=1e-10)

    def test_matches_per_example_with_active_sets(self, tiny_model):
        batch = [(make_seq([2, 3, 4], [0, 0, 0]), 0),
                 (make_seq([5, 6], [1, 0]), 1)]
        actives = [np.array([True, False, True]), np.array([True, True])]
        logits = tiny_model.forward_batch(batch, active=np.concatenate(actives)).logits
        for e, (seq, _) in enumerate(batch):
            single = tiny_model.forward(seq, active=actives[e], mode="eval")
            assert np.allclose(logits.data[e], single.logits.data.reshape(-1),
                               atol=1e-10)


    def test_inactive_token_with_extreme_scores_stays_finite(self, tiny_model):
        # example A pools one of its two tokens, and that token scores -1000:
        # an inactive token must not enter the softmax (exp(0 + 1000)
        # overflows) nor spread NaN to example B in the same batch
        seq_a, seq_b = make_seq([2, 3], [0, 0]), make_seq([4, 5, 6], [1, 0, 0])
        res = tiny_model.forward(seq_a, active=[0], mode="eval")
        score = (res.h_prime.data[0] @ tiny_model.agg_w.data).item()
        tiny_model.agg_w.data = tiny_model.agg_w.data * (-1000.0 / score)
        batch = [(seq_a, 0), (seq_b, 0)]
        actives = [np.array([True, False]), np.array([True, True, True])]
        logits = tiny_model.forward_batch(batch, active=np.concatenate(actives)).logits
        assert np.all(np.isfinite(logits.data))
        singles = [tiny_model.forward(seq, active=act, mode="eval")
                   for (seq, _), act in zip(batch, actives)]
        assert (singles[0].h_prime.data[0] @ tiny_model.agg_w.data).item() == \
            pytest.approx(-1000.0)
        for e, single in enumerate(singles):
            assert np.allclose(logits.data[e], single.logits.data.reshape(-1),
                               atol=1e-10)

        labels = [0, 1]
        data = [(seq_a, labels[0]), (seq_b, labels[1])]
        per_example = np.mean([int(s.logits.data.argmax()) == lb
                               for s, lb in zip(singles, labels)])
        assert moe.MaskScorer(tiny_model, data).accuracy(np.concatenate(actives)) == per_example


class TestEvaluate:
    def test_perfect_and_chance_bounds(self, tiny_model):
        data = [(make_seq([2, 3], [0, 1]), 0), (make_seq([4, 5], [0, 0]), 1)]
        acc = moe.evaluate(tiny_model, data)
        assert 0.0 <= acc <= 1.0

    def test_empty_active_counts_incorrect(self, tiny_model):
        data = [(make_seq([2, 3], [0, 0]), 0)]
        scorer = moe.MaskScorer(tiny_model, data)
        assert scorer.accuracy(np.zeros(2, dtype=bool)) == 0.0

    def test_scorer_matches_per_example_forward(self, tiny_model):
        # 300 examples span two forward chunks; all-non-sensitive examples
        # have nothing to pool at budget 0, and budget 12 exceeds every
        # example's non-sensitive count
        rng = np.random.default_rng(5)
        data, scores = [], []
        for e in range(300):
            L = int(rng.integers(1, 11))
            mask = np.zeros(L, dtype=int) if e % 7 == 0 else rng.integers(0, 2, L)
            data.append((make_seq(rng.integers(0, 12, L), mask), int(rng.integers(0, 3))))
            scores.append(rng.random(L))
        scorer = moe.MaskScorer(tiny_model, data)
        for budget in (0, 1, 3, 12):
            actives = [moe.active_set(seq, select_topk(sc, seq.mask, budget))
                       for (seq, _), sc in zip(data, scores)]
            correct = 0
            for (seq, label), act in zip(data, actives):
                if act.any():
                    logits = tiny_model.forward(seq, active=act).logits.data
                    correct += int(logits.argmax()) == label
            if budget == 0:
                assert sum(not act.any() for act in actives) >= 40
            assert scorer.accuracy(np.concatenate(actives)) == correct / len(data)

    def test_active_set_union(self):
        from pwcmoe.scheduler import OffloadDecision
        seq = make_seq([2, 3, 4], [1, 0, 0])
        d = OffloadDecision(selected=[2], budget=1)
        assert moe.active_set(seq, d).tolist() == [True, False, True]
        assert moe.active_set(seq, OffloadDecision(selected=[], budget=0)).tolist() == \
            [True, False, False]


class TestTraining:
    def test_learns_separable_toy_task(self):
        # class decided by which of two disjoint token groups appears
        rng = np.random.default_rng(0)
        def gen(n):
            data = []
            for i in range(n):
                label = i % 2
                ids = list(rng.integers(2 + 5 * label, 7 + 5 * label, 4))
                data.append((make_seq(ids, [0, 1, 0, 0]), label))
            return data

        cfg = moe.MoEConfig(vocab_size=12, num_classes=2, d=8, num_experts=3,
                            num_privacy_experts=1, expert_hidden=12,
                            learning_rate=0.05, epochs=8, batch_size=16)
        model = moe.MoEModel(cfg, RngStream(0, "m"))
        trace = moe.train_model(model, gen(96), gen(48), seed=0)
        assert trace.test_accuracy[-1] >= 0.9
        assert trace.mean_loss[-1] < trace.mean_loss[0]

    def test_deterministic_replay(self):
        rng = np.random.default_rng(1)
        data = [(make_seq(rng.integers(2, 12, 4), [0, 1, 0, 0]), i % 2)
                for i in range(32)]
        cfg = moe.MoEConfig(vocab_size=12, num_classes=2, d=4, num_experts=3,
                            num_privacy_experts=1, expert_hidden=5,
                            learning_rate=0.05, epochs=2, batch_size=8)
        runs = []
        for _ in range(2):
            model = moe.MoEModel(cfg, RngStream(0, "m"))
            moe.train_model(model, data, data[:8], seed=0)
            runs.append({k: p.data.copy() for k, p in model.parameters().items()})
        for k in runs[0]:
            assert np.array_equal(runs[0][k], runs[1][k])


class TestCheckpoint:
    def test_roundtrip_preserves_predictions(self, tiny_model, tmp_path):
        path = str(tmp_path / "model.pwcm")
        moe.save_model(tiny_model, path)
        loaded = moe.load_model(path)
        assert loaded.config == tiny_model.config
        seq = make_seq([2, 3, 4], [1, 0, 0])
        a = tiny_model.forward(seq, mode="eval").logits.data
        b = loaded.forward(seq, mode="eval").logits.data
        # arrays round through float32 storage
        assert np.allclose(a, b, atol=1e-4)

    def test_wrong_magic_rejected(self, tiny_model, tmp_path):
        from pwcmoe.checkpoint import CheckpointError
        path = str(tmp_path / "model.pwcm")
        moe.save_model(tiny_model, path)
        raw = bytearray(open(path, "rb").read())
        raw[:4] = b"XXXX"
        open(path, "wb").write(bytes(raw))
        with pytest.raises(CheckpointError, match="magic"):
            moe.load_model(path)

    def test_truncated_file_rejected(self, tiny_model, tmp_path):
        from pwcmoe.checkpoint import CheckpointError
        path = str(tmp_path / "model.pwcm")
        moe.save_model(tiny_model, path)
        raw = open(path, "rb").read()
        for cut in list(range(64)) + list(range(64, len(raw), 29)) + [len(raw) - 1]:
            open(path, "wb").write(raw[:cut])
            with pytest.raises(CheckpointError, match="truncated"):
                moe.load_model(path)

    @pytest.mark.parametrize("dims", [(2**31, 8), (2**32 - 1, 2**32 - 1)])
    def test_oversized_array_rejected_by_name(self, tmp_path, dims):
        # the declared size is checked against the file before any read, in
        # Python ints: no allocation, and no overflow in the byte count
        from pwcmoe import checkpoint
        path = str(tmp_path / "model.pwcm")
        checkpoint.save_container(path, checkpoint.MAGIC_MODEL, {}, {"w_o": np.zeros((2, 2))})
        raw = bytearray(open(path, "rb").read())
        raw[-24:-16] = struct.pack("<2I", *dims)  # the shape, before 16 value bytes
        open(path, "wb").write(bytes(raw))
        with pytest.raises(checkpoint.CheckpointError) as info:
            checkpoint.load_container(path, checkpoint.MAGIC_MODEL)
        assert str(info.value) == (f"{path}: truncated: array 'w_o' of shape {dims} "
                                   f"needs {4 * dims[0] * dims[1]} bytes, found 16")


    @pytest.mark.parametrize("field, value, message", [
        ("d", "abc", "config field 'd': cannot read 'abc' as int"),
        ("tau", "x1", "config field 'tau': cannot read 'x1' as float"),
        ("d", "0", "config field 'd' must be >= 1, got 0"),
        ("expert_hidden", "-2", "config field 'expert_hidden' must be >= 1, got -2"),
        ("num_privacy_experts", "0", "config field 'num_privacy_experts' must be >= 1, got 0"),
        ("num_experts", "1", "need 1 <= privacy experts < total experts, got 1/1"),
    ])
    def test_bad_config_value_rejected_before_building(self, tiny_model, tmp_path,
                                                       monkeypatch, field, value, message):
        from pwcmoe import checkpoint
        path = str(tmp_path / "model.pwcm")
        moe.save_model(tiny_model, path)
        config, arrays = checkpoint.load_container(path, checkpoint.MAGIC_MODEL)
        config[field] = value
        checkpoint.save_container(path, checkpoint.MAGIC_MODEL, config, arrays)
        built = []
        monkeypatch.setattr(moe.MoEModel, "__init__", lambda *a: built.append(a))
        with pytest.raises(checkpoint.CheckpointError) as info:
            moe.load_model(path)
        assert str(info.value) == f"{path}: {message}" and not built

    def test_untrained_epoch_count_loads(self, tmp_path):
        model = moe.MoEModel(tiny_config(epochs=0), RngStream(0, "m"))
        path = str(tmp_path / "model.pwcm")
        moe.save_model(model, path)
        assert moe.load_model(path).config.epochs == 0


class TestUsage:
    def test_soft_usage_group_normalization(self, tiny_model):
        rng = np.random.default_rng(2)
        data = [(make_seq(rng.integers(2, 12, 4), [1, 0, 0, 0]), 0)
                for _ in range(10)]
        usage = moe.soft_expert_usage(tiny_model, data)
        k_p = tiny_model.config.num_privacy_experts
        assert usage[:k_p].sum() == pytest.approx(1.0)
        assert usage[k_p:].sum() == pytest.approx(1.0)

    def test_group_usage_ratio_hand_values(self):
        ratios = moe.group_usage_ratio(np.array([0.6, 0.4, 0.2, 0.3, 0.5]), 2)
        assert ratios[0] == pytest.approx(1.5)
        assert ratios[1] == pytest.approx(2.5)

    def test_zero_usage_gives_infinite_ratio(self):
        ratios = moe.group_usage_ratio(np.array([1.0, 0.0, 0.5, 0.5]), 2)
        assert ratios[0] == float("inf")
