"""Tests of the benchmark's own reference computations and input generator.

    python3 -m pytest -q perfbench/test_reference.py
"""

import json
import math
import os
import statistics

import pytest

import gen
import per_layer
import reference as ref
import run
import spread

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CHANNEL = dict(run.CHANNEL, d=32)


def test_sensitivity_is_a_digit_anywhere():
    assert ref.is_sensitive("acct12") and ref.is_sensitive("1024") and ref.is_sensitive("pin0")
    assert not ref.is_sensitive("hello") and not ref.is_sensitive("")
    tokens = ["a", "b7", "c", "42"]
    assert ref.sensitive_positions(tokens) == [1, 3]
    assert ref.nonsensitive_positions(tokens) == [0, 2]


def test_path_loss_hand_value():
    # 32.4 + 20 log10(2.4) + 30 log10(100) = 32.4 + 7.6042 + 60
    assert ref.path_loss_db(2.4, 100.0) == pytest.approx(100.00422, abs=1e-5)


def test_token_budget_matches_a_db_computation():
    for d, psi, chi in [(100.0, 1.0, 1.0), (1600.0, 0.3, 2.0), (6400.0, 1.7, 0.05)]:
        snr_db = (CHANNEL["tx_power_dbm"] - ref.path_loss_db(CHANNEL["f_c_ghz"], d)
                  + 10 * math.log10(psi * chi)
                  - CHANNEL["noise_psd_dbm_hz"] - 10 * math.log10(CHANNEL["bandwidth_hz"]))
        rate = CHANNEL["bandwidth_hz"] * math.log2(1 + 10 ** (snr_db / 10))
        want = CHANNEL["t_ul_s"] * rate / (32 * 16)
        m, x = ref.token_budget(CHANNEL, d, psi, chi)
        assert x == pytest.approx(want, rel=1e-9)
        assert m == math.floor(x)


def test_token_budget_is_zero_far_away_and_explicit_payload_counts():
    assert ref.token_budget(CHANNEL, 100000.0, 7.0, 2.4)[0] == 0
    big = dict(CHANNEL, bits_per_token=4 * 32 * 16)
    m_small, _ = ref.token_budget(CHANNEL, 100.0, 1.0, 1.0)
    m_big, _ = ref.token_budget(big, 100.0, 1.0, 1.0)
    assert m_big == m_small // 4


def test_budget_matches_only_floor_or_boundary_neighbour():
    assert ref.budget_matches(3, 3.7)
    assert not ref.budget_matches(4, 3.7)
    assert ref.budget_matches(2, 3.0 - 1e-12) and ref.budget_matches(3, 3.0 - 1e-12)
    assert not ref.budget_matches(1, 3.0 - 1e-12)


def test_topk_selection_skips_sensitive_and_breaks_ties_low():
    tokens = ["a", "b", "c9", "d", "e"]
    scores = [0.1, 0.3, 0.9, 0.3, 0.2]
    assert ref.topk_selection(scores, tokens, 1) == [1]
    assert ref.topk_selection(scores, tokens, 2) == [1, 3]
    assert ref.topk_selection(scores, tokens, 3) == [1, 3, 4]
    assert ref.topk_selection(scores, tokens, 10) == [0, 1, 3, 4]
    assert ref.topk_selection(scores, tokens, 0) == []
    assert ref.active_positions(tokens, [4, 0]) == [0, 2, 4]
    assert ref.active_positions(["a"], []) == []


def test_softmax_and_top_two_gap():
    p = ref.softmax([1.0, 2.0, 3.0])
    assert p.sum() == pytest.approx(1.0, abs=1e-15)
    assert ref.softmax([1001.0, 1002.0, 1003.0]) == pytest.approx(p, abs=1e-15)
    assert ref.top_two_gap([0.5, 2.0, 1.5]) == pytest.approx(0.5)
    assert ref.top_two_gap([1.0]) == math.inf


def test_nearest_rank():
    xs = list(range(1, 101))
    assert ref.nearest_rank(xs, 0.5) == 50
    assert ref.nearest_rank(xs, 0.99) == 99
    assert ref.nearest_rank([7.0], 0.99) == 7.0
    with pytest.raises(ValueError):
        ref.nearest_rank([], 0.5)


def test_first_reaching():
    assert ref.first_reaching([1, 2, 3], [0.4, 0.6, 0.5], 0.5) == 2
    assert ref.first_reaching([1, 2, 3], [0.4, 0.6, 0.5], 0.7) is None


def test_spread_uses_the_exclusive_quartiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    med, q1, q3, sp = spread.spread(values)
    want_q1, want_med, want_q3 = statistics.quantiles(values, n=4)
    assert (med, q1, q3) == (want_med, want_q1, want_q3)
    assert sp == pytest.approx((want_q3 - want_q1) / want_med)
    assert spread.parse_seeds("1-3,7") == [1, 2, 3, 7]


def test_corpus_is_fixed_by_the_seed():
    a = gen.make_corpus(5, 40, 10)
    assert a == gen.make_corpus(5, 40, 10)
    assert a != gen.make_corpus(6, 40, 10)


def test_corpus_make_up():
    train, test = gen.make_corpus(1, 400, 100)
    pools = gen.vocabulary()
    keywords = {w for group in ("exclusive", "shared") for pool in pools[group] for w in pool}
    words = keywords | set(pools["fillers"])
    assert len(words) == (gen.NUM_CLASSES * (gen.EXCLUSIVE_PER_CLASS + gen.SHARED_PER_PAIR)
                          + gen.NUM_FILLERS)
    assert not any(ref.is_sensitive(w) for w in words)
    for tokens, label in train + test:
        assert 0 <= label < gen.NUM_CLASSES
        assert gen.SEQ_TOKENS[0] <= len(tokens) <= gen.SEQ_TOKENS[1]
        assert gen.KEYWORDS[0] <= sum(t in keywords for t in tokens) <= gen.KEYWORDS[1]
        for t in tokens:
            assert t == t.lower() and t.isalnum()
            assert ref.is_sensitive(t) != (t in words)
    with_digits = sum(bool(ref.sensitive_positions(t)) for t, _ in train)
    assert 0.6 < with_digits / len(train) < 0.8


def test_benchmark_json_lists_the_metrics_the_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == per_layer.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    setup_bound = next(m["bound"] for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert all(0 < m["bound"] <= setup_bound <= 0.25 for m in doc["end_to_end"])
