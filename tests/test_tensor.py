import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwcmoe import tensor as T
from pwcmoe.rng import RngStream
from pwcmoe.tensor import Tensor


def rand(shape, seed=0, lo=-2.0, hi=2.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, shape)


class TestMatmul:
    def test_identity(self):
        out = T.matmul(Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor([[3.0], [4.0]]))
        assert np.allclose(out.data, [[3.0], [4.0]])

    def test_inner_product(self):
        out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert np.allclose(out.data, [[11.0]])

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(T.ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_gradient_matches_finite_differences(self, fd_check):
        a = Tensor(rand((3, 4), 1), requires_grad=True)
        b = Tensor(rand((4, 2), 2), requires_grad=True)
        fd_check(lambda: T.tsum(T.matmul(a, b)), {"a": a, "b": b})


class TestSoftmax:
    def test_uniform(self):
        out = T.softmax(Tensor([0.0, 0.0, 0.0]), temperature=1.0)
        assert np.allclose(out.data, [1 / 3] * 3)

    def test_hand_ratio(self):
        # exp(ln 2) : exp(0) = 2 : 1
        out = T.softmax(Tensor([math.log(2.0), 0.0]), temperature=1.0)
        assert np.allclose(out.data, [2 / 3, 1 / 3])

    def test_masked_component_exactly_zero(self):
        out = T.softmax(Tensor([5.0, T.NEG_INF]), temperature=1.0)
        assert out.data[0] == 1.0
        assert out.data[1] == 0.0

    def test_all_masked_raises(self):
        with pytest.raises(ValueError, match="no admissible component"):
            T.softmax(Tensor([T.NEG_INF, T.NEG_INF]))

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ValueError):
            T.softmax(Tensor([1.0, 2.0]), temperature=0.0)

    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=8),
           st.floats(-10, 10))
    @settings(max_examples=100, deadline=None)
    def test_sums_to_one_and_shift_invariant(self, logits, shift):
        base = T.softmax(Tensor(logits)).data
        shifted = T.softmax(Tensor([x + shift for x in logits])).data
        assert abs(base.sum() - 1.0) <= 1e-9
        assert np.allclose(base, shifted, atol=1e-9)

    def test_gradient(self, fd_check):
        x = Tensor(rand((5,), 3), requires_grad=True)
        w = rand((5,), 4)
        fd_check(lambda: T.tsum(T.softmax(x, temperature=0.7) * w), {"x": x})


# three segments of unequal length, one of them a single token
SEG = np.array([0, 0, 0, 0, 1, 2, 2, 2])


class TestSegmentSum:
    def test_matches_per_segment_loop(self):
        x = rand((8, 3), 18)
        out = T.segment_sum(Tensor(x), SEG, 3).data
        ref = np.stack([x[SEG == s].sum(axis=0) for s in range(3)])
        assert np.allclose(out, ref, rtol=0, atol=1e-12)

    def test_gradient(self, fd_check):
        x = Tensor(rand((8, 3), 19), requires_grad=True)
        w = rand((3, 3), 17)
        fd_check(lambda: T.tsum(T.segment_sum(x, SEG, 3) * w), {"x": x})

    @pytest.mark.parametrize("seg, n", [
        ([0, 0, 2], 3),      # segment 1 empty
        ([0, 0, 1], 3),      # last segment empty
        ([1, 1, 2], 3),      # first segment empty
        ([0, 1, 0], 2),      # segment 0 not contiguous
        ([1, 0, 0], 2),      # out of order
        ([0, 1, 2], 2),      # more segments than declared
        ([-1, 0, 0], 1),     # negative segment id
        ([], 1),             # no rows
        ([-1, -1], 1),       # one segment, negative ids only
        ([0, 0, 1], 1),      # one segment declared, two given
    ])
    def test_rejects_empty_or_unordered_segments(self, seg, n):
        x = Tensor(rand((len(seg), 2), 16))
        with pytest.raises(ValueError, match="contiguous and non-empty"):
            T.segment_sum(x, seg, n)
        with pytest.raises(ValueError, match="contiguous and non-empty"):
            T.segment_softmax(Tensor(rand((len(seg), 1), 16)), seg, n)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_one_segment_positions_match_the_general_formula(self, n):
        seg = np.zeros(n, dtype=np.intp)
        pos, counts = T._segment_positions(seg, 1)
        counts_ref = np.bincount(seg, minlength=1)
        pos_ref = np.arange(n) - (np.cumsum(counts_ref) - counts_ref)[seg]
        for got, want in ((pos, pos_ref), (counts, counts_ref)):
            assert got.dtype == want.dtype and np.array_equal(got, want)


class TestSegmentSoftmax:
    def test_each_segment_is_a_softmax(self):
        x = rand((8, 1), 20)
        out = T.segment_softmax(Tensor(x), SEG, 3).data
        for s in range(3):
            rows = SEG == s
            e = np.exp(x[rows] - x[rows].max())
            assert np.allclose(out[rows], e / e.sum(), rtol=0, atol=1e-15)
        assert out[SEG == 1, 0].tolist() == [1.0]

    def test_gradient(self, fd_check):
        x = Tensor(rand((8, 1), 21), requires_grad=True)
        w = rand((8, 1), 22)
        fd_check(lambda: T.tsum(T.segment_softmax(x, SEG, 3) * w), {"x": x})

    def test_one_segment_equals_the_general_path(self):
        x = rand((9, 1), 23)
        want = scatter_max_softmax(x, np.zeros(9, dtype=np.intp), 1)
        assert np.array_equal(T.segment_softmax(Tensor(x), np.zeros(9), 1).data, want)

    @pytest.mark.parametrize("n", [16, 256])
    def test_many_segments_equal_the_scatter_max_shift(self, n):
        rng = np.random.default_rng(n)
        seg = np.repeat(np.arange(n), rng.integers(1, 20, n))
        x = rng.normal(size=(seg.size, 1)) * 30.0
        want = scatter_max_softmax(x, seg, n)
        assert np.array_equal(T.segment_softmax(Tensor(x), seg, n).data, want)


def scatter_max_softmax(x, seg, n):
    """Segment softmax shifted by a per-segment max from `np.maximum.at`:
    the reference for the `np.maximum.reduceat` shift."""
    shift = np.full(n, -np.inf)
    np.maximum.at(shift, seg, x.reshape(-1))
    e = np.exp(x - shift[seg].reshape(x.shape))
    return e * (1.0 / np.bincount(seg, weights=e.reshape(-1), minlength=n))[seg].reshape(x.shape)


def attention_reference(q, k, v, seg, heads):
    """Per-segment, per-head softmax(q k^T / sqrt(dh)) v, heads side by side."""
    dh = q.shape[1] // heads
    out = np.zeros_like(q)
    for s in np.unique(seg):
        rows = seg == s
        for h in range(heads):
            cols = slice(h * dh, (h + 1) * dh)
            sc = q[rows, cols] @ k[rows, cols].T / math.sqrt(dh)
            e = np.exp(sc - sc.max(axis=1, keepdims=True))
            out[np.ix_(rows, np.arange(h * dh, (h + 1) * dh))] = (
                e / e.sum(axis=1, keepdims=True)) @ v[rows, cols]
    return out


class TestSegmentAttention:
    def test_matches_per_segment_per_head_reference(self):
        q, k, v = rand((8, 4), 23), rand((8, 4), 24), rand((8, 4), 25)
        out = T.segment_attention(Tensor(q), Tensor(k), Tensor(v), SEG, 3, 2).data
        assert np.allclose(out, attention_reference(q, k, v, SEG, 2), rtol=0, atol=1e-12)
        # a single-token segment attends only to itself
        assert np.array_equal(out[SEG == 1], v[SEG == 1])

    def test_gradient(self, fd_check):
        q = Tensor(rand((8, 4), 26), requires_grad=True)
        k = Tensor(rand((8, 4), 27), requires_grad=True)
        v = Tensor(rand((8, 4), 28), requires_grad=True)
        w = rand((8, 4), 29)
        fd_check(lambda: T.tsum(T.segment_attention(q, k, v, SEG, 3, 2) * w),
                 {"q": q, "k": k, "v": v})

    def test_rejects_unsorted_or_empty_segments(self):
        x = Tensor(rand((3, 4), 30))
        with pytest.raises(ValueError, match="contiguous"):
            T.segment_attention(x, x, x, [1, 0, 1], 2, 2)
        with pytest.raises(ValueError, match="non-empty"):
            T.segment_attention(x, x, x, [0, 0, 2], 3, 2)


def dispatch_inputs(L=7, d=3, hidden=4, K=3, seed=21):
    """h (L, d), gates (L, K) and K experts, all trainable."""
    rng = np.random.default_rng(seed)
    h = Tensor(rng.normal(size=(L, d)), requires_grad=True)
    routed = Tensor(rng.uniform(0.5, 1.5, (L, K)), requires_grad=True)
    experts = [{"w1": Tensor(rng.normal(size=(d, hidden)), requires_grad=True),
                "b1": Tensor(rng.normal(size=hidden), requires_grad=True),
                "w2": Tensor(rng.normal(size=(hidden, d)), requires_grad=True),
                "b2": Tensor(rng.normal(size=d), requires_grad=True)}
               for _ in range(K)]
    return h, routed, experts


def dispatch_params(h, routed, experts) -> dict:
    params = {"h": h, "routed": routed}
    for j, e in enumerate(experts):
        params.update({f"expert{j}.{k}": v for k, v in e.items()})
    return params


class TestExpertDispatch:
    def test_rows_match_each_expert_mlp(self):
        h, routed, experts = dispatch_inputs()
        assign = np.array([2, 0, 2, 1, 0, 2, 1])
        out = T.expert_dispatch(h, routed, assign, experts)
        for i, j in enumerate(assign):
            e = experts[j]
            a = h.data[i] @ e["w1"].data + e["b1"].data
            mlp = np.maximum(a, 0.0) @ e["w2"].data + e["b2"].data
            assert np.allclose(out.data[i], mlp * routed.data[i, j], atol=1e-12)

    def test_gradient(self, fd_check):
        h, routed, experts = dispatch_inputs()
        assign = np.array([2, 0, 2, 1, 0, 2, 1])
        w = rand((7, 3), 22)
        fd_check(lambda: T.tsum(T.expert_dispatch(h, routed, assign, experts) * w),
                 dispatch_params(h, routed, experts))

    def test_expert_without_rows_gets_no_gradient(self):
        h, routed, experts = dispatch_inputs()
        out = T.expert_dispatch(h, routed, np.array([0, 2, 2, 0, 0, 2, 0]), experts)
        T.backward(T.tsum(out * rand((7, 3), 23)))
        assert all(p.grad is None for p in experts[1].values())
        assert all(p.grad is not None for j in (0, 2) for p in experts[j].values())

    def test_rows_subset(self, fd_check):
        h, routed, experts = dispatch_inputs()
        assign = np.array([2, 0, 2, 1, 0, 2, 1])
        rows = np.array([False, True, False, True, False, True, True])
        out = T.expert_dispatch(h, routed, assign, experts, rows)
        T.backward(T.tsum(out * rand((7, 3), 24)))
        outside = [0, 2, 4]
        assert np.all(out.data[outside] == 0.0)
        assert np.all(h.grad[outside] == 0.0)
        assert np.all(np.abs(out.data[[1, 3, 5, 6]]).sum(axis=1) > 0.0)
        w = rand((7, 3), 25)
        fd_check(lambda: T.tsum(T.expert_dispatch(h, routed, assign, experts, rows) * w),
                 dispatch_params(h, routed, experts))


class TestLayerNorm:
    def test_constant_input_maps_to_zero(self):
        out = T.layer_norm(Tensor([1.0, 1.0, 1.0]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        assert np.allclose(out.data, 0.0)

    def test_two_point_hand_case(self):
        out = T.layer_norm(Tensor([1.0, 3.0]), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                           epsilon=1e-12)
        assert np.allclose(out.data, [-1.0, 1.0], atol=1e-5)

    def test_standardizes(self):
        x = rand((8,), 5)
        out = T.layer_norm(Tensor(x), Tensor(np.ones(8)), Tensor(np.zeros(8)),
                           epsilon=1e-10).data
        assert abs(out.mean()) < 1e-9
        assert abs(out.var() - 1.0) < 1e-6

    @pytest.mark.parametrize("shape", [(1, 32), (20, 16), (640, 32)])
    def test_bitwise_equals_the_mean_var_formula(self, shape):
        x = Tensor(rand(shape, 10, -3.0, 5.0), requires_grad=True)
        gain = Tensor(rand(shape[-1:], 11, 0.5, 1.5), requires_grad=True)
        bias = Tensor(rand(shape[-1:], 12), requires_grad=True)
        g = rand(shape, 13)
        out = T.layer_norm(x, gain, bias)
        T.backward(T.tsum(out * g))
        mu = x.data.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(x.data.var(axis=-1, keepdims=True) + 1e-5)
        y = (x.data - mu) * inv
        gy = g * gain.data
        gx = inv * (gy - gy.mean(axis=-1, keepdims=True)
                    - y * (gy * y).mean(axis=-1, keepdims=True))
        assert np.array_equal(out.data, gain.data * y + bias.data)
        assert np.array_equal(x.grad, gx)

    def test_gradient(self, fd_check):
        x = Tensor(rand((6,), 6), requires_grad=True)
        gain = Tensor(rand((6,), 7, 0.5, 1.5), requires_grad=True)
        bias = Tensor(rand((6,), 8, -0.5, 0.5), requires_grad=True)
        w = rand((6,), 9)
        fd_check(lambda: T.tsum(T.layer_norm(x, gain, bias) * w),
                 {"x": x, "gain": gain, "bias": bias})


def cross_entropy_one(logits, label):
    """cross_entropy_batch on a single (1, C) row, as a scalar."""
    return T.tsum(T.cross_entropy_batch(T.reshape(logits, (1, -1)), [label]))


class TestCrossEntropy:
    def test_uniform_logits(self):
        assert cross_entropy_one(Tensor([0.0, 0.0]), 0).item() == pytest.approx(math.log(2))

    def test_confident_correct(self):
        val = cross_entropy_one(Tensor([10.0, -10.0]), 0).item()
        assert val == pytest.approx(math.log(1 + math.exp(-20.0)), rel=1e-9)
        assert val == pytest.approx(2.06e-9, rel=0.01)

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            cross_entropy_one(Tensor([0.0, 0.0]), 2)
        with pytest.raises(IndexError):
            cross_entropy_one(Tensor([0.0, 0.0]), -1)

    def test_nonnegative(self):
        for seed in range(5):
            assert cross_entropy_one(Tensor(rand((4,), seed)), seed % 4).item() >= 0.0

    def test_gradient(self, fd_check):
        x = Tensor(rand((4,), 10), requires_grad=True)
        fd_check(lambda: cross_entropy_one(x, 2), {"x": x})


class TestBackward:
    def test_linear_sum(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        T.backward(T.tsum(x))
        assert np.allclose(x.grad, [1.0, 1.0, 1.0])

    def test_quadratic(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        T.backward(T.tsum(x * x))
        assert np.allclose(x.grad, [2.0, 4.0])

    def test_accumulation_across_reuse(self):
        x = Tensor([1.0], requires_grad=True)
        y = x + x
        T.backward(T.tsum(y))
        assert np.allclose(x.grad, [2.0])

    def test_non_scalar_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            T.backward(x + x)


class TestStraightThrough:
    def test_forward_hard_backward_soft(self):
        x = Tensor([1.0, 2.0, 0.5], requires_grad=True)
        z = T.softmax(x)
        hard = np.array([0.0, 1.0, 0.0])
        out = T.straight_through(z, hard)
        assert np.array_equal(out.data, hard)
        w = np.array([0.3, -0.2, 0.9])
        T.backward(T.tsum(out * w))
        x2 = Tensor([1.0, 2.0, 0.5], requires_grad=True)
        T.backward(T.tsum(T.softmax(x2) * w))
        assert np.array_equal(x.grad, x2.grad)


class TestIndexing:
    def test_gather_scatter_roundtrip_grad(self, fd_check):
        x = Tensor(rand((5, 3), 11), requires_grad=True)
        w = rand((4, 3), 12)
        fd_check(lambda: T.tsum(T.gather_rows(x, [0, 2, 2, 4]) * w), {"x": x})

    @pytest.mark.parametrize("shape", [(5, 3), (5,), (5, 1)])
    def test_gather_rows_gradient_bitwise_equals_add_at(self, shape):
        x = Tensor(rand(shape, 14), requires_grad=True)
        idx = [4, 0, 2, 2, 4, 4, 1]
        g = rand((len(idx),) + shape[1:], 15) * 10.0 ** np.arange(len(idx)).reshape(
            (-1,) + (1,) * (len(shape) - 1))
        T.backward(T.tsum(T.gather_rows(x, idx) * g))
        want = np.zeros(shape)
        np.add.at(want, idx, g)
        assert np.array_equal(x.grad, want) and x.grad.shape == shape

    def test_scatter_rows_places_rows(self):
        out = T.scatter_rows(Tensor([[1.0, 2.0]]), [2], 4)
        assert np.allclose(out.data, [[0, 0], [0, 0], [1, 2], [0, 0]])

    def test_gather_out_of_range(self):
        with pytest.raises(IndexError):
            T.gather_rows(Tensor(np.zeros((3, 2))), [5])

    def test_masked_fill_blocks_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        out = T.masked_fill(x, np.array([False, True]), T.NEG_INF)
        T.backward(T.tsum(out * np.array([1.0, 1.0])))
        assert np.allclose(x.grad, [1.0, 0.0])


class TestRngStream:
    def test_bit_identical_replay(self):
        a = RngStream(42, "shadowing").normal(size=1000)
        b = RngStream(42, "shadowing").normal(size=1000)
        assert np.array_equal(a, b)

    def test_distinct_labels_distinct_streams(self):
        a = RngStream(42, "shadowing").normal(size=1000)
        b = RngStream(42, "gumbel").normal(size=1000)
        assert not np.array_equal(a, b)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.1

    def test_gumbel_fixed_point(self):
        # u = 1/e maps to exactly 0
        assert -math.log(-math.log(1 / math.e)) == pytest.approx(0.0, abs=1e-12)

    def test_gumbel_moments(self):
        g = RngStream(7, "gumbel").gumbel(10**6)
        assert g.mean() == pytest.approx(0.5772, abs=0.01)
        assert g.var() == pytest.approx(math.pi**2 / 6, abs=0.02)

    def test_uniform_open_interval(self):
        u = RngStream(1, "u").uniform(10**5)
        assert u.min() > 0.0
        assert u.max() < 1.0


class TestFiniteness:
    def test_random_pipeline_stays_finite(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = Tensor(rng.uniform(-2, 2, (4, 4)), requires_grad=True)
            y = T.softmax(T.matmul(x, Tensor(rng.uniform(-2, 2, (4, 4)))))
            loss = T.tsum(T.relu(y) * y)
            T.backward(loss)
            assert np.isfinite(loss.item())
            assert np.all(np.isfinite(x.grad))


def graph_grads(loss) -> list:
    """The .grad of every tensor of the graph under `loss` that has one."""
    seen, stack, grads = set(), [loss], []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.grad is not None:
            grads.append(node.grad)
        stack.extend(node._parents)
    return grads


class TestGradOwnership:
    """A backward keeps the first gradient it is handed without a copy, so no
    two tensors may be handed the same memory."""

    def assert_no_shared_grads(self, loss):
        T.backward(loss)
        grads = graph_grads(loss)
        assert len(grads) > 20
        for i, a in enumerate(grads):
            for b in grads[i + 1:]:
                assert not np.shares_memory(a, b)

    def test_moe_loss(self):
        from pwcmoe import moe
        from pwcmoe.corpus import TokenSequence
        model = moe.MoEModel(moe.MoEConfig(vocab_size=12, num_classes=3, d=4, num_experts=3,
                                           num_privacy_experts=1, expert_hidden=5),
                             RngStream(0, "m"))
        batch = [(TokenSequence(ids=ids, mask=mask, tokens=[str(i) for i in ids]), label)
                 for ids, mask, label in (([1, 2, 3], [0, 1, 0], 0), ([4, 5], [0, 0], 2),
                                          ([6, 7, 8, 9], [1, 0, 0, 1], 1))]
        loss, _ = model.loss(batch, rng=RngStream(1, "g"))
        self.assert_no_shared_grads(loss)

    def test_predictor_packed_kl(self):
        from pwcmoe import predictor
        config = predictor.PredictorConfig(d=8, proj_dim=8, layers=2, heads=2)
        pred = predictor.ImportancePredictor(config, RngStream(0, "p"))
        rng = np.random.default_rng(3)
        records = [predictor.ImportanceRecord(rng.normal(size=(n, 8)), np.full(n, 1.0 / n))
                   for n in (3, 1, 5)]
        self.assert_no_shared_grads(predictor.packed_kl(pred, records))
