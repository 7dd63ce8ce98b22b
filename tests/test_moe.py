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

from conftest import (group_usage_ratio, pair_loss, record_calls, soft_expert_usage,
                      soft_loss)


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
        z = T.softmax(Tensor(np.zeros((2, 4))), 1.0, moe.privacy_isolation_mask([1, 0], 4, 2))
        assert np.array_equal(z.data[0, 2:], [0.0, 0.0])
        assert np.array_equal(z.data[1, :2], [0.0, 0.0])
        assert np.allclose(z.data.sum(axis=1), 1.0)

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_forward_routes_within_groups(self, mask):
        model = moe.MoEModel(tiny_config(), RngStream(1, "m"))
        rng = np.random.default_rng(0)
        seq = make_seq(rng.integers(0, 12, len(mask)), mask)
        ids, mask_arr, seg, _ = moe.pack([(seq, 0)])
        with pytest.MonkeyPatch.context() as mp:
            routing = record_calls(mp, T, "expert_dispatch")
            res = model.forward_batch(ids, mask_arr, seg, rng=RngStream(2, "g"))
        [((_, _, assign, _), _)] = routing
        k_p = model.config.num_privacy_experts
        for i, m in enumerate(mask):
            if m == 1:
                assert assign[i] < k_p
                assert np.all(res.z.data[i, k_p:] == 0.0)
            else:
                assert assign[i] >= k_p
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
        _, z, mask_all, seg = moe.batch_forward(model, batch)
        lb = moe.batch_load_balance(z, mask_all, seg, len(batch),
                                    model.config.num_privacy_experts)
        per_example = []
        for seq, _ in batch:
            res = model.forward(seq)
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


def pooling_of_classify(monkeypatch, rows, score, seg, n_segments) -> tuple:
    """`classify` of a d = 2 model on these rows and pooling scores: the
    pooling weights (n, 1) and pooled rows (n_segments, 2) it computes, read
    from its segment softmax and layer norm calls."""
    model = moe.MoEModel(tiny_config(d=2), RngStream(0, "m"))
    weights = record_calls(monkeypatch, T, "segment_softmax")
    normed = record_calls(monkeypatch, T, "layer_norm")
    model.classify(Tensor(np.array(rows, dtype=float)), Tensor(np.array(score, dtype=float)),
                   seg, n_segments)
    [(_, alpha)], [((pooled, _, _), _)] = weights, normed
    return alpha.data, pooled.data


class TestAggregate:
    """The softmax-weighted pooling that `classify` runs before its head."""

    def test_weighted_pooling_hand_case(self, monkeypatch):
        # scores (ln2, 0) -> alpha (2/3, 1/3)
        alpha, pooled = pooling_of_classify(monkeypatch, [[1.0, 0.0], [0.0, 1.0]],
                                            [[np.log(2.0)], [0.0]], [0, 0], 1)
        assert np.allclose(alpha.reshape(-1), [2 / 3, 1 / 3])
        assert np.allclose(pooled, [[2 / 3, 1 / 3]])

    def test_restricted_active_set(self, monkeypatch):
        # only the pooled rows are passed; each segment pools its own rows
        alpha, pooled = pooling_of_classify(monkeypatch, [[1.0, 0.0], [5.0, 5.0], [0.0, 2.0]],
                                            np.zeros((3, 1)), [0, 1, 1], 2)
        assert np.allclose(alpha, [[1.0], [0.5], [0.5]])
        assert np.allclose(pooled, [[1.0, 0.0], [2.5, 3.5]])

    def test_empty_active_raises(self, tiny_model):
        with pytest.raises(ValueError, match="no tokens to aggregate"):
            tiny_model.classify(Tensor(np.zeros((0, 4))), Tensor(np.zeros((0, 1))), [], 1)
        # a segment with no rows fails even when another has some
        with pytest.raises(ValueError, match="no tokens to aggregate"):
            tiny_model.classify(Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 1))), [1], 2)


class TestForward:
    def test_eval_deterministic(self, tiny_model, monkeypatch):
        seq = make_seq([2, 3, 4], [1, 0, 0])
        encoded = record_calls(monkeypatch, tiny_model, "encode")
        a = tiny_model.forward(seq)
        b = tiny_model.forward(seq)
        assert np.array_equal(a.logits.data, b.logits.data)
        (_, first), (_, second) = encoded
        for a, b in zip(first, second):
            assert a.data.tobytes() == b.data.tobytes()

    def test_routed_rows_one_hot_in_eval(self, tiny_model, monkeypatch):
        # eval routes through the token table: one dispatch over every
        # (id, flag) pair
        routing = record_calls(monkeypatch, T, "expert_dispatch")
        tiny_model.forward(make_seq([2, 3, 4], [1, 0, 0]))
        [((_, routed, _, _), _)] = routing
        rows = 2 * tiny_model.config.vocab_size
        assert np.array_equal(routed.data.sum(axis=1), np.ones(rows))
        assert set(np.unique(routed.data)) <= {0.0, 1.0}

    @pytest.mark.parametrize("rows", [[5, 1, 3, 1, -1], [6, 6, 5, 3, 1], [3, -4, 1, 5, 6, 1]])
    def test_active_positions_follow_numpy_indexing(self, tiny_model, rows, monkeypatch):
        # unsorted and repeated positions collapse; -1 is the last token
        seq = make_seq([2, 3, 4, 5, 6, 7, 8], [0, 1, 0, 0, 1, 0, 0])
        pooled = record_calls(monkeypatch, tiny_model, "classify")
        got = tiny_model.forward(seq, active=rows)
        want = tiny_model.forward(seq, active=np.unique(np.arange(7)[rows]))
        ((got_rows, got_score, got_seg, _), _), ((want_rows, want_score, want_seg, _), _) = pooled
        assert np.array_equal(got_rows.data, want_rows.data)
        assert np.array_equal(got_score.data, want_score.data)
        assert np.array_equal(got_seg, want_seg)
        assert np.array_equal(got.logits.data, want.logits.data)

    def test_out_of_range_active_raises(self, tiny_model):
        seq = make_seq([4, 5, 6], [0, 0, 0])
        for active in ([3], [0, -4]):
            with pytest.raises(IndexError):
                tiny_model.forward(seq, active=active)

    def test_probs_normalized(self, tiny_model):
        res = tiny_model.forward(make_seq([2, 3], [0, 1]))
        assert res.probs().sum() == pytest.approx(1.0)

    def test_soft_mode_gradient_matches_finite_differences(self, fd_check):
        model = moe.MoEModel(tiny_config(), RngStream(3, "m"))
        seq = make_seq([2, 5, 7], [1, 0, 0])

        fd_check(lambda: soft_loss(model, [(seq, 1)]), model.parameters(), tol=1e-4)

    def test_straight_through_gradients_flow_to_gate(self, tiny_model):
        seq = make_seq([2, 3, 4], [1, 0, 0])
        tiny_model.zero_grad()
        loss = pair_loss(tiny_model, [(seq, 0)], RngStream(7, "g"))
        T.backward(loss)
        assert tiny_model.w_g.grad is not None
        assert np.any(tiny_model.w_g.grad != 0.0)
        assert np.all(np.isfinite(tiny_model.w_g.grad))


def gather_elems(a: Tensor, rows, cols) -> Tensor:
    """Pick a[rows[i], cols[i]] for each i; returns an (n, 1) column."""
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)

    def backward(g):
        if a.requires_grad:
            acc = np.zeros_like(a.data)
            np.add.at(acc, (rows, cols), g[:, 0])
            a._accum_grad(acc)

    return T._make(a.data[rows, cols, None], (a,), backward)


def scatter_rows(a: Tensor, idx, num_rows: int) -> Tensor:
    """Place rows of `a` at positions `idx` of an otherwise-zero matrix."""
    idx = np.asarray(idx, dtype=np.intp)
    data = np.zeros((num_rows,) + a.data.shape[1:], dtype=np.float64)
    data[idx] = a.data

    def backward(g):
        if a.requires_grad:
            a._accum_grad(g[idx])

    return T._make(data, (a,), backward)


def composed_dispatch(h, routed, assign, experts):
    """Expert dispatch built from single autodiff ops, one gather, MLP,
    gate and scatter per expert: the reference for `T.expert_dispatch`."""
    L = h.shape[0]
    h_prime = None
    for j in np.unique(assign):
        idx = np.flatnonzero(assign == j)
        e = experts[j]
        x = T.gather_rows(h, idx)
        out = T.matmul(T.relu(T.matmul(x, e["w1"]) + e["b1"]), e["w2"]) + e["b2"]
        gate = gather_elems(routed, idx, np.full(idx.shape, j))
        piece = scatter_rows(out * gate, idx, L)
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
    def test_train_batch_bitwise_equals_composed_graph(self):
        rng = np.random.default_rng(9)
        cfg = tiny_config(num_experts=5, num_privacy_experts=2, d=6, expert_hidden=7)
        batch = []
        for _ in range(6):
            L = int(rng.integers(1, 9))
            batch.append((make_seq(rng.integers(0, 12, L), rng.integers(0, 2, L)),
                          int(rng.integers(0, 3))))
        runs = []
        for dispatch in (T.expert_dispatch, composed_dispatch):
            model = moe.MoEModel(cfg, RngStream(4, "m"))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(T, "expert_dispatch", dispatch)
                routing = record_calls(mp, T, "expert_dispatch")
                heads = record_calls(mp, model, "classify")
                loss = pair_loss(model, batch, RngStream(5, "g"))
            T.backward(loss)
            grads = {k: p.grad for k, p in model.parameters().items()}
            [(_, h_prime)], [(_, logits)] = routing, heads
            runs.append((loss.data, h_prime.data, logits.data, grads))
        (loss, h_prime, logits, grads), (ref_loss, ref_h_prime, ref_logits, ref_grads) = runs
        assert len(np.unique(np.concatenate([s.mask for s, _ in batch]))) == 2
        assert np.array_equal(h_prime, ref_h_prime)
        assert np.array_equal(logits, ref_logits) and np.array_equal(loss, ref_loss)
        for k, g in grads.items():
            if ref_grads[k] is None:
                assert g is None, k
            else:
                assert g.tobytes() == ref_grads[k].tobytes(), k

    def test_dispatch_adds_one_node(self, tiny_model):
        h = Tensor(np.random.default_rng(0).normal(size=(5, 4)), requires_grad=True)
        routed = Tensor(np.ones((5, 3)), requires_grad=True)
        assign = np.array([0, 1, 2, 1, 0])
        out = T.expert_dispatch(h, routed, assign, tiny_model.experts)
        assert graph_nodes(out) == 1
        ref = composed_dispatch(h, routed, assign, tiny_model.experts)
        assert graph_nodes(ref) > 20


def random_split(rng, n, vocab_size=12, max_len=10) -> list:
    """`n` (seq, label) pairs of random ids and privacy flags."""
    data = []
    for _ in range(n):
        L = int(rng.integers(1, max_len + 1))
        data.append((make_seq(rng.integers(0, vocab_size, L), rng.integers(0, 2, L)),
                     int(rng.integers(0, 3))))
    return data


def fresh_copy(model) -> moe.MoEModel:
    """A new model holding copies of `model`'s parameter values, so its
    token table is built from scratch."""
    clone = moe.MoEModel(model.config, RngStream(99, "other"))
    for k, p in clone.parameters().items():
        p.data = model.parameters()[k].data.copy()
    return clone


def encoded_bytes(model, ids, mask) -> tuple:
    """The bytes of each of `encode`'s outputs: h_prime, z and score."""
    return tuple(t.data.tobytes() for t in model.encode(ids, mask))


class TestTokenTable:
    def test_rows_equal_per_token_routing_of_a_packed_split(self):
        cfg = tiny_config(vocab_size=40, d=16, num_experts=5, num_privacy_experts=2,
                          expert_hidden=24)
        model = moe.MoEModel(cfg, RngStream(6, "m"))
        rng = np.random.default_rng(6)
        ids, mask, _, _ = moe.pack(random_split(rng, 120, vocab_size=40))
        with T.no_grad():
            h_prime, z, score = model._route(ids, mask, None)
        h_table, z_table, score_table = model.encode(ids, mask)
        assert h_table.data.tobytes() == h_prime.data.tobytes()
        assert z_table.data.tobytes() == z.data.tobytes()
        # the table's scores are one product over all its rows, whose last
        # bits may depend on the row count: they match to rounding
        assert np.allclose(score_table.data, score.data, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("bad", [-1, 12, 10**6])
    def test_out_of_range_ids_raise(self, tiny_model, bad):
        # -1 with flag 1 would land on a valid table row
        for flag in (0, 1):
            with pytest.raises(IndexError):
                tiny_model.encode(np.array([2, bad]), np.array([0, flag]))
            with pytest.raises(IndexError):
                tiny_model.forward(make_seq([2, bad], [flag, flag]))

    def test_follows_a_training_epoch(self):
        rng = np.random.default_rng(7)
        data = random_split(rng, 24)
        model = moe.MoEModel(tiny_config(epochs=1, batch_size=8), RngStream(7, "m"))
        ids, mask, _, _ = moe.pack(data)
        before = encoded_bytes(model, ids, mask)
        moe.train_model(model, data, data[:6], seed=7)
        after = encoded_bytes(model, ids, mask)
        assert after != before
        assert after == encoded_bytes(fresh_copy(model), ids, mask)

    def test_follows_each_replaced_array(self, tiny_model):
        ids, mask, _, _ = moe.pack(random_split(np.random.default_rng(8), 30))
        read = ["embedding", "w_g", "b_g", "agg_w"] + [f"expert{j}.{k}" for j in range(3)
                                                       for k in ("w1", "b1", "w2", "b2")]
        for name in read:
            before = encoded_bytes(tiny_model, ids, mask)
            p = tiny_model.parameters()[name]
            p.data = p.data + 0.5
            after = encoded_bytes(tiny_model, ids, mask)
            assert after != before, name
            assert after == encoded_bytes(fresh_copy(tiny_model), ids, mask), name

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_one_example_encodes_as_its_packed_rows(self, data):
        """Any split into batches: every example's rows from a noise-free
        encode of it alone equal its rows in its batch, bit for bit."""
        seed = data.draw(st.integers(0, 2**16))
        model = moe.MoEModel(tiny_config(vocab_size=30, d=8, expert_hidden=16),
                             RngStream(seed, "m"))
        split = random_split(np.random.default_rng(seed), data.draw(st.integers(1, 30)),
                             vocab_size=30)
        ids, mask, _, offsets = moe.pack(split)
        order = data.draw(st.permutations(range(len(split))))
        size = data.draw(st.integers(1, len(split)))
        for examples, rows, _ in moe.batches(offsets, size, order):
            batch = model.encode(ids[rows], mask[rows])
            starts = np.cumsum([0, *(offsets[examples + 1] - offsets[examples])])
            for e, lo, hi in zip(examples, starts[:-1], starts[1:]):
                own = slice(offsets[e], offsets[e + 1])
                for one, packed in zip(model.encode(ids[own], mask[own]), batch):
                    assert one.data.tobytes() == packed.data[lo:hi].tobytes()


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

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_batches_equal_pack_of_their_examples(self, data):
        masks = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=1, max_size=7),
                                   min_size=1, max_size=12))
        n = len(masks)
        size = data.draw(st.integers(1, n + 2))
        order = data.draw(st.none() | st.permutations(range(n)))
        pairs, first = [], 2
        for mask in masks:  # ids unique across the split
            pairs.append((make_seq(range(first, first + len(mask)), mask), 0))
            first += len(mask)
        ids, mask, _, offsets = moe.pack(pairs)
        taken, sizes = [], []
        for examples, rows, seg in moe.batches(offsets, size, order):
            want = moe.pack([pairs[e] for e in examples])
            for got, expected in zip((ids[rows], mask[rows], seg), want):
                assert got.dtype == expected.dtype and np.array_equal(got, expected)
            taken.extend(examples.tolist())
            sizes.append(examples.size)
        assert taken == (list(range(n)) if order is None else list(order))
        # only the last batch may be short
        assert sizes == [size] * (n // size) + ([n % size] if n % size else [])


class TestBatchForward:
    def test_matches_per_example_eval(self, tiny_model):
        rng = np.random.default_rng(8)
        batch = []
        for _ in range(5):
            L = int(rng.integers(1, 7))
            mask = rng.integers(0, 2, L)
            batch.append((make_seq(rng.integers(0, 12, L), mask), int(rng.integers(0, 3))))
        logits, _, _, _ = moe.batch_forward(tiny_model, batch)
        for e, (seq, _) in enumerate(batch):
            single = tiny_model.forward(seq)
            assert np.allclose(logits.data[e], single.logits.data.reshape(-1),
                               atol=1e-10)

    def test_matches_per_example_with_active_sets(self, tiny_model):
        batch = [(make_seq([2, 3, 4], [0, 0, 0]), 0),
                 (make_seq([5, 6], [1, 0]), 1)]
        actives = [np.array([True, False, True]), np.array([True, True])]
        ids, mask, seg, _ = moe.pack(batch)
        logits = tiny_model.forward_batch(ids, mask, seg, active=np.concatenate(actives)).logits
        for e, (seq, _) in enumerate(batch):
            single = tiny_model.forward(seq, active=actives[e])
            assert np.allclose(logits.data[e], single.logits.data.reshape(-1),
                               atol=1e-10)


    def test_inactive_token_with_extreme_scores_stays_finite(self, tiny_model):
        # example A pools one of its two tokens, and that token scores -1000:
        # an inactive token must not enter the softmax (exp(0 + 1000)
        # overflows) nor spread NaN to example B in the same batch
        seq_a, seq_b = make_seq([2, 3], [0, 0]), make_seq([4, 5, 6], [1, 0, 0])
        batch = [(seq_a, 0), (seq_b, 0)]
        actives = [np.array([True, False]), np.array([True, True, True])]
        ids, mask, seg, _ = moe.pack(batch)
        h_prime, _, _ = tiny_model.encode(ids[:2], mask[:2])
        score = (h_prime.data[0] @ tiny_model.agg_w.data).item()
        tiny_model.agg_w.data = tiny_model.agg_w.data * (-1000.0 / score)
        assert (h_prime.data[0] @ tiny_model.agg_w.data).item() == pytest.approx(-1000.0)
        logits = tiny_model.forward_batch(ids, mask, seg, active=np.concatenate(actives)).logits
        assert np.all(np.isfinite(logits.data))
        singles = [tiny_model.forward(seq, active=act)
                   for (seq, _), act in zip(batch, actives)]
        for e, single in enumerate(singles):
            assert np.allclose(logits.data[e], single.logits.data.reshape(-1),
                               atol=1e-10)

        labels = [0, 1]
        data = [(seq_a, labels[0]), (seq_b, labels[1])]
        per_example = np.mean([int(s.logits.data.argmax()) == lb
                               for s, lb in zip(singles, labels)])
        assert moe.MaskScorer(tiny_model, data).accuracy(np.concatenate(actives)) == per_example


class TestBatchInvariance:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_batches_of_a_partition_score_as_the_whole_split(self, data):
        """Any partition of a split into batches: each batch's distillation
        targets equal its rows of the whole split's, and each batch of two or
        more examples has the logits of its rows of the whole split, bit for
        bit. The head's product is not batch-invariant yet: one example alone
        takes numpy's matrix-vector path, and OpenBLAS gives a head of 2 or 3
        classes row bits that depend on the row's position. So the model has
        the 4 classes of the benchmark corpus."""
        from pwcmoe import predictor
        seed = data.draw(st.integers(0, 2**16))
        cfg = tiny_config(vocab_size=30, num_classes=4, d=16, expert_hidden=16)
        model = moe.MoEModel(cfg, RngStream(seed, "m"))
        split = random_split(np.random.default_rng(seed), data.draw(st.integers(2, 40)),
                             vocab_size=30)
        order = data.draw(st.permutations(range(len(split))))
        cuts = data.draw(st.lists(st.booleans(), min_size=len(split) - 1,
                                  max_size=len(split) - 1))
        ids, mask, seg, offsets = moe.pack(split)
        alpha = predictor.collect_dataset(model, split)[2]
        logits = model.forward_batch(ids, mask, seg).logits.data
        bounds = [0, *(i + 1 for i, cut in enumerate(cuts) if cut), len(split)]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            examples = np.asarray(order[lo:hi])
            batch = [split[e] for e in examples]
            want = np.concatenate([alpha[offsets[e]:offsets[e + 1]] for e in examples])
            assert predictor.collect_dataset(model, batch)[2].tobytes() == want.tobytes()
            if examples.size >= 2:
                batch_ids, batch_mask, batch_seg, _ = moe.pack(batch)
                got = model.forward_batch(batch_ids, batch_mask, batch_seg).logits.data
                assert got.tobytes() == logits[examples].tobytes()


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

    def test_packs_each_split_once(self, monkeypatch):
        """`train_model` packs the train split once and the test split once
        per epoch (`evaluate`); `collect_dataset` packs its split once."""
        from pwcmoe import predictor
        rng = np.random.default_rng(2)
        data = [(make_seq(rng.integers(2, 12, L), rng.integers(0, 2, L)), i % 2)
                for i, L in enumerate(rng.integers(1, 6, 20))]
        packed, pack = [], moe.pack

        def counting(pairs):
            packed.append(len(pairs))
            return pack(pairs)

        monkeypatch.setattr(moe, "pack", counting)
        monkeypatch.setattr(predictor, "pack", counting)
        cfg = tiny_config(num_classes=2, epochs=3, batch_size=6)
        model = moe.MoEModel(cfg, RngStream(0, "m"))
        moe.train_model(model, data, data[:7], seed=0)
        assert packed == [20, 7, 7, 7]
        packed.clear()
        predictor.collect_dataset(model, data)
        assert packed == [20]

    def test_encodes_once_and_classifies_only_what_is_read(self, monkeypatch):
        """`MaskScorer` and `collect_dataset` encode without the layer norm
        and the head; `MaskScorer.accuracy` runs them once per call that
        has an active token, and not at all otherwise."""
        from pwcmoe import predictor
        rng = np.random.default_rng(3)
        data = [(make_seq(rng.integers(2, 12, L), rng.integers(0, 2, L)), i % 3)
                for i, L in enumerate(rng.integers(1, 6, 20))]
        model = moe.MoEModel(tiny_config(batch_size=6), RngStream(0, "m"))
        classified = record_calls(monkeypatch, moe.MoEModel, "classify")
        encoded = record_calls(monkeypatch, moe.MoEModel, "encode")
        scorer = moe.MaskScorer(model, data)
        predictor.collect_dataset(model, data)
        assert len(classified) == 0 and len(encoded) == 1 + 4
        n_tok = scorer.seg.size
        actives = [np.ones(n_tok, dtype=bool), np.zeros(n_tok, dtype=bool),
                   scorer.sensitive, np.arange(n_tok) % 2 == 0]
        for active in actives:
            scorer.accuracy(active)
        assert len(classified) == sum(bool(a.any()) for a in actives) == 3
        assert len(encoded) == 5


class TestCheckpoint:
    def test_roundtrip_preserves_predictions(self, tiny_model, tmp_path):
        path = str(tmp_path / "model.pwcm")
        moe.save_model(tiny_model, path)
        loaded = moe.load_model(path)
        assert loaded.config == tiny_model.config
        seq = make_seq([2, 3, 4], [1, 0, 0])
        a = tiny_model.forward(seq).logits.data
        b = loaded.forward(seq).logits.data
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
        usage = soft_expert_usage(tiny_model, data)
        k_p = tiny_model.config.num_privacy_experts
        assert usage[:k_p].sum() == pytest.approx(1.0)
        assert usage[k_p:].sum() == pytest.approx(1.0)

    def test_group_usage_ratio_hand_values(self):
        ratios = group_usage_ratio(np.array([0.6, 0.4, 0.2, 0.3, 0.5]), 2)
        assert ratios[0] == pytest.approx(1.5)
        assert ratios[1] == pytest.approx(2.5)

    def test_zero_usage_gives_infinite_ratio(self):
        ratios = group_usage_ratio(np.array([1.0, 0.0, 0.5, 0.5]), 2)
        assert ratios[0] == float("inf")
