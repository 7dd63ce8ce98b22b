import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwcmoe import scheduler as sched
from pwcmoe.rng import RngStream

from conftest import select_random

MASK = [0, 1, 0, 0, 1, 0]  # non-sensitive indices: 0, 2, 3, 5
NONSENSITIVE = [0, 2, 3, 5]


def dropped(decision) -> list:
    """The non-sensitive tokens a decision leaves on the client."""
    return [i for i in NONSENSITIVE if i not in decision.selected]


class TestDecision:
    def test_over_budget_rejected(self):
        with pytest.raises(ValueError, match="exceeds budget"):
            sched.OffloadDecision(selected=[0, 1], budget=1)

    def test_indices_sorted(self):
        d = sched.OffloadDecision(selected=[3, 1], budget=4)
        assert d.selected == [1, 3]


class TestSelectTopk:
    def test_hand_ranking(self):
        scores = [0.1, 9.0, 0.5, 0.9, 9.0, 0.3]
        d = sched.select_topk(scores, MASK, budget=2)
        assert d.selected == [2, 3]
        assert dropped(d) == [0, 5]

    def test_sensitive_never_selected(self):
        scores = [0.0, 100.0, 0.0, 0.0, 100.0, 0.0]
        d = sched.select_topk(scores, MASK, budget=6)
        assert 1 not in d.selected and 4 not in d.selected

    def test_tie_breaks_toward_lower_index(self):
        d = sched.select_topk([1.0] * 6, MASK, budget=2)
        assert d.selected == [0, 2]

    def test_budget_exceeds_candidates(self):
        d = sched.select_topk([0.5] * 6, MASK, budget=10)
        assert d.selected == [0, 2, 3, 5]

    def test_zero_budget(self):
        d = sched.select_topk([0.5] * 6, MASK, budget=0)
        assert d.selected == []
        assert dropped(d) == [0, 2, 3, 5]

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            sched.select_topk([0.5] * 6, MASK, budget=-1)

    @given(st.lists(st.tuples(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, -5e-324]),
                              st.integers(0, 1)), min_size=0, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_topk_order_equals_sorting_by_score_then_position(self, pairs):
        # few distinct values: many ties, and 0.0 against -0.0
        scores = [s for s, _ in pairs]
        mask = [m for _, m in pairs]
        order = sorted((i for i, m in enumerate(mask) if m == 0), key=lambda i: (-scores[i], i))
        for budget in range(len(pairs) + 2):
            got = sched.select_topk(np.asarray(scores), mask, budget).selected
            assert got == sorted(order[:budget])
            assert all(type(i) is int for i in got)

    @given(st.lists(st.floats(-10, 10), min_size=6, max_size=6),
           st.integers(0, 6))
    @settings(max_examples=100, deadline=None)
    def test_selected_dominate_dropped(self, scores, budget):
        d = sched.select_topk(scores, MASK, budget)
        if d.selected and dropped(d):
            assert min(scores[i] for i in d.selected) >= \
                max(scores[i] for i in dropped(d))


class TestSelectRandom:
    def test_partition_and_budget(self):
        d = select_random(MASK, 2, RngStream(0, "r"))
        assert len(d.selected) == 2
        assert sorted(d.selected + dropped(d)) == NONSENSITIVE

    def test_reproducible(self):
        a = select_random(MASK, 2, RngStream(3, "r"))
        b = select_random(MASK, 2, RngStream(3, "r"))
        assert a.selected == b.selected

    def test_covers_all_candidates_over_draws(self):
        seen = set()
        for t in range(200):
            seen.update(select_random(MASK, 1, RngStream(t, "r")).selected)
        assert seen == {0, 2, 3, 5}

    def test_zero_budget(self):
        d = select_random(MASK, 0, RngStream(0, "r"))
        assert d.selected == []
