import codecs
import collections
import contextlib
import dataclasses
import importlib.util
import io
import itertools
import os
import shutil
import struct
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pwcmoe import channel, checkpoint, cli, config, corpus, harness, moe, scheduler
from pwcmoe import tensor as T
from pwcmoe.corpus import TokenSequence
from pwcmoe.predictor import ImportancePredictor
from pwcmoe.rng import RngStream
from pwcmoe.tensor import Tensor

from conftest import (positions, record_calls, reference_random_means,
                      reference_topk_accuracy, select_random)


ROOT = os.path.join(os.path.dirname(__file__), "..")


def load_script(name: str):
    """Import scripts/<name>.py as a module."""
    module_spec = importlib.util.spec_from_file_location(
        name, os.path.join(ROOT, "scripts", f"{name}.py"))
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module


def tiny_spec(seed=0):
    spec = config.ExperimentSpec(seed=seed)
    spec.data.synth_train = 60
    spec.data.synth_test = 24
    spec.model.d = 8
    spec.model.experts = 4
    spec.model.privacy_experts = 1
    spec.model.expert_hidden = 12
    spec.model.learning_rate = 0.05
    spec.model.epochs = 2
    spec.predictor.proj_dim = 8
    spec.predictor.heads = 2
    spec.predictor.layers = 1
    spec.predictor.epochs = 2
    spec.sweep.budgets = [1, 3]
    spec.sweep.distances = [100.0]
    spec.sweep.targets = [0.2]
    spec.sweep.trials = 2
    spec.sweep.channel_draws = 200
    return spec


TINY_CONFIG_TEXT = """\
# tiny run
seed = 7
data.synth_train = 60
data.synth_test = 24
model.d = 8
model.experts = 4
model.privacy_experts = 1
model.expert_hidden = 12
model.learning_rate = 0.05
model.epochs = 2
predictor.proj_dim = 8
predictor.heads = 2
predictor.layers = 1
predictor.epochs = 2
sweep.budgets = 1,3
sweep.trials = 2
sweep.channel_draws = 200
"""


class TestConfig:
    def test_parse_comments_and_sections(self):
        entries = config.parse_config_text("# c\nseed = 3\nchannel.f_c_ghz = 28 # mmwave\n")
        assert entries == {"seed": "3", "channel.f_c_ghz": "28"}

    def test_unknown_key_rejected(self):
        with pytest.raises(config.ConfigError, match="unknown config key"):
            config.spec_from_entries({"model.nope": "1"})

    def test_bad_value_rejected(self):
        with pytest.raises(config.ConfigError, match="bad value"):
            config.spec_from_entries({"model.d": "abc"})

    def test_missing_file(self):
        with pytest.raises(config.ConfigError, match="not found"):
            config.load_config("/nonexistent/x.cfg")

    def test_list_parsing(self):
        spec = config.spec_from_entries({"sweep.budgets": "1, 2, 5"})
        assert spec.sweep.budgets == [1, 2, 5]

    def test_roundtrip_through_canonical_text(self):
        spec = tiny_spec(seed=9)
        again = config.spec_from_entries(config.parse_config_text(config.spec_to_text(spec)))
        assert config.spec_to_text(again) == config.spec_to_text(spec)
        assert config.config_hash(again) == config.config_hash(spec)

    def test_hash_changes_with_content(self):
        a, b = tiny_spec(), tiny_spec()
        b.model.tau = 0.5
        assert config.config_hash(a) != config.config_hash(b)

    def test_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path):
        path = tmp_path / "bom.cfg"
        path.write_text("\ufeffseed = 3\nmodel.d = 8\n", encoding="utf-8")
        spec = config.load_config(str(path))
        assert (spec.seed, spec.model.d) == (3, 8)

    def test_bits_per_token_derived_from_d(self):
        assert config.ChannelSpec().params(64).bits_per_token == 64 * 16
        assert config.ChannelSpec(bits_per_token=300).params(64).bits_per_token == 300


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("run"))
    spec = tiny_spec()
    harness.run_train(spec, out, log=lambda s: None)
    harness.run_train_predictor(spec, out, log=lambda s: None)
    bundle, model, predictor = harness._load_artifacts(spec, out, predictor=True)
    return spec, out, bundle, model, predictor


def run_dir(trained, tmp_path) -> str:
    """`tmp_path` holding the trained model and predictor checkpoints."""
    spec, out = trained[:2]
    for name in (spec.model.checkpoint, spec.predictor.checkpoint):
        shutil.copy(os.path.join(out, name), tmp_path)
    return str(tmp_path)


class TestPrepareData:
    """The bundle equals splitting, numbering and masking every text alone."""

    @staticmethod
    def per_text(examples, vocab, max_len):
        return [(corpus.mask_privacy(corpus.tokenize(ex.text, vocab, max_len)), ex.label)
                for ex in examples]

    @staticmethod
    def vocabulary(train):
        vocab = corpus.Vocabulary()
        for ex in train:
            for word in corpus.split_text(ex.text):
                vocab.add(word)
        return vocab

    def assert_same(self, got, want):
        assert len(got) == len(want)
        for (seq, label), (ref, ref_label) in zip(got, want):
            assert (seq.tokens, seq.ids, seq.mask, label) == \
                (ref.tokens, ref.ids, ref.mask, ref_label)

    def test_csv_bundle_equals_tokenize_and_mask_privacy(self, tmp_path):
        spec = tiny_spec()
        spec.data.source = "csv"
        spec.data.max_len = 5
        spec.data.csv_train = str(tmp_path / "train.csv")
        spec.data.csv_test = str(tmp_path / "test.csv")
        (tmp_path / "train.csv").write_text(
            'text,label\n"Pay 12 to Acct9x now, please!",0\n'
            "hello hello card ending 4411 and more words here,1\nCard: ab1 AB1,0\n")
        (tmp_path / "test.csv").write_text(
            "text,label\nunseen words 77 card,1\nhello,0\n")
        bundle = harness.prepare_data(spec)
        train = corpus.load_csv(spec.data.csv_train)
        test = corpus.load_csv(spec.data.csv_test)
        vocab = self.vocabulary(train)
        assert bundle.vocab.id_to_token == vocab.id_to_token and bundle.num_classes == 2
        self.assert_same(bundle.train, self.per_text(train, vocab, 5))
        self.assert_same(bundle.test, self.per_text(test, vocab, 5))

    def test_csv_with_byte_order_mark_reads_as_without(self, tmp_path):
        spec = tiny_spec()
        spec.data.source = "csv"
        spec.data.csv_train = str(tmp_path / "train.csv")
        spec.data.csv_test = str(tmp_path / "test.csv")
        bundles = []
        for bom in ("", "\ufeff"):
            (tmp_path / "train.csv").write_text(bom + "text,label\nalpha beta,0\ngamma,1\n",
                                                encoding="utf-8")
            (tmp_path / "test.csv").write_text(bom + "text,label\nbeta gamma,1\n",
                                               encoding="utf-8")
            bundles.append(harness.prepare_data(spec))
        plain, marked = bundles
        assert marked.vocab.id_to_token == plain.vocab.id_to_token
        self.assert_same(marked.train, plain.train)
        self.assert_same(marked.test, plain.test)

    def test_synthetic_bundle_equals_tokenize_and_mask_privacy(self):
        spec = tiny_spec(seed=4)
        bundle = harness.prepare_data(spec)
        rng = RngStream(spec.seed, "data/synthetic")
        d = spec.data
        train = corpus.synth_generate(rng.spawn("train"), d.synth_train, d.synth_classes,
                                      d.synth_sensitive_rate)
        test = corpus.synth_generate(rng.spawn("test"), d.synth_test, d.synth_classes,
                                     d.synth_sensitive_rate)
        vocab = self.vocabulary(train)
        assert bundle.vocab.id_to_token == vocab.id_to_token
        assert any(seq.mask.count(1) for seq, _ in bundle.test)
        self.assert_same(bundle.train, self.per_text(train, vocab, d.max_len))
        self.assert_same(bundle.test, self.per_text(test, vocab, d.max_len))

    def test_empty_text_names_it(self, tmp_path):
        spec = tiny_spec()
        spec.data.source = "csv"
        spec.data.csv_train = str(tmp_path / "train.csv")
        spec.data.csv_test = str(tmp_path / "test.csv")
        (tmp_path / "train.csv").write_text("text,label\na,0\nb,1\n")
        (tmp_path / "test.csv").write_text("text,label\n?!,1\n")
        with pytest.raises(ValueError, match="empty sequence after tokenization: '\\?!'"):
            harness.prepare_data(spec)


class TestCollaborativeForward:
    def test_matches_monolithic_forward(self, trained):
        _, _, bundle, model, _ = trained
        checked = 0
        for seq, _ in bundle.test[:20]:
            ns = positions(seq, False)
            if not ns:
                continue
            decision = scheduler.select_topk(np.arange(seq.length), seq.mask,
                                             budget=max(1, len(ns) // 2))
            probs = harness.collaborative_forward(model, seq, decision)
            res = model.forward(seq, active=moe.active_set(seq, decision))
            assert np.allclose(probs, res.probs(), atol=1e-12)
            checked += 1
        assert checked > 0

    def test_rejects_sensitive_selection(self, trained):
        _, _, bundle, model, _ = trained
        for seq, _ in bundle.test:
            sens = positions(seq, True)
            if sens:
                bad = scheduler.OffloadDecision(selected=[sens[0]], budget=1)
                with pytest.raises(ValueError, match="sensitive"):
                    harness.collaborative_forward(model, seq, bad)
                break

    def test_empty_active_set_raises(self, trained):
        # no sensitive token and nothing uplinked: one example, no row to pool
        _, _, bundle, model, _ = trained
        seq = next(seq for seq, _ in bundle.test if 1 not in seq.mask)
        with pytest.raises(ValueError, match="no tokens to aggregate"):
            harness.collaborative_forward(model, seq, scheduler.select_topk(
                np.zeros(seq.length), seq.mask, budget=0))

    def test_routes_once_per_parameter_version(self, trained, monkeypatch):
        """A loaded model runs the expert dispatch once, for its token table,
        over two sweep scorers and 1,001 requests; a replaced parameter array
        costs one more call."""
        spec, out, bundle, _, predictor = trained
        model = moe.load_model(os.path.join(out, spec.model.checkpoint))
        routing = record_calls(monkeypatch, T, "expert_dispatch")
        for _ in range(2):
            harness.MaskScorer(model, bundle.test)
        served = []
        for seq, _ in itertools.islice(itertools.cycle(bundle.test), 1001):
            scores = predictor.scores_np(model.embedding.data[np.asarray(seq.ids)])
            decision = scheduler.select_topk(scores, seq.mask, 2)
            if decision.selected or 1 in seq.mask:
                harness.collaborative_forward(model, seq, decision)
                served.append((seq, decision))
        assert len(served) > 900 and len(routing) == 1
        model.w_g.data = model.w_g.data.copy()
        harness.collaborative_forward(model, *served[0])
        assert len(routing) == 2

    def test_rejects_out_of_range_index(self, trained):
        _, _, bundle, model, _ = trained
        seq, _ = bundle.test[0]
        # -1 would wrap to the last token under numpy indexing
        for i in (seq.length + 3, -1):
            bad = scheduler.OffloadDecision(selected=[i], budget=1)
            with pytest.raises(IndexError, match=f"decision index {i} out of range"):
                harness.collaborative_forward(model, seq, bad)


class TestRuns:
    def test_train_artifacts(self, trained):
        spec, out, _, _, _ = trained
        assert os.path.exists(os.path.join(out, spec.model.checkpoint))
        lines = open(os.path.join(out, "train_metrics.csv")).read().splitlines()
        assert lines[0] == "round,accuracy,mean_loss"
        assert len(lines) == 1 + spec.model.epochs
        manifest = open(os.path.join(out, "run-manifest.txt")).read()
        assert f"config_sha256 = {config.config_hash(spec)}" in manifest

    def test_budget_sweep_output(self, trained, tmp_path):
        spec = trained[0]
        out = run_dir(trained, tmp_path)
        rows = harness.run_budget_sweep(spec, out)
        lines = open(os.path.join(out, "budget_sweep.csv")).read().splitlines()
        assert lines[0] == "budget,strategy,trials,accuracy_mean,accuracy_std"
        assert len(rows) == 2 * len(spec.sweep.budgets)
        for _, _, _, acc, std in rows:
            assert 0.0 <= acc <= 1.0 and std >= 0.0

    def test_distance_sweep_output(self, trained, tmp_path):
        rows = harness.run_distance_sweep(trained[0], run_dir(trained, tmp_path))
        assert {r[2] for r in rows} == {"topk", "random"}
        for _, m_ul, _, k_req, _ in rows:
            assert 0 <= k_req <= max(m_ul, 0) or k_req == 0

    def test_target_accuracy_output(self, trained, tmp_path):
        spec2 = tiny_spec()
        spec2.sweep.targets = [0.0, 1.1]  # always / never reachable
        rows = harness.run_target_accuracy(spec2, run_dir(trained, tmp_path))
        reach = {(r[0], r[1]): r[3] for r in rows}
        assert reach[(0.0, "topk")] == 1
        assert reach[(1.1, "topk")] == 0
        unreachable = [r for r in rows if r[0] == 1.1]
        assert all(r[2] == -1 for r in unreachable)

    def test_channel_probe_deterministic_values(self):
        spec = tiny_spec()
        spec.channel.deterministic = True
        lines = []
        real = harness.run_channel_probe(spec, out=lines.append)
        assert any(l.startswith("path_loss_db = 100.004") for l in lines)
        assert real.m_ul == real.m_ul  # realized budget is reported
        assert any(l == f"m_ul = {real.m_ul}" for l in lines)


def multi_distance_spec():
    """tiny_spec with distances whose median budgets (66,277, 5, 2 and 0
    tokens against at most 9 non-sensitive ones) cut the top-k curve at
    different lengths."""
    spec = tiny_spec()
    spec.sweep.distances = [100.0, 8000.0, 12000.0, 100000.0]
    return spec


class TestTopkCurve:
    def test_matches_rescoring_at_every_budget(self, trained):
        _, _, bundle, model, predictor = trained
        budgets = [0, 1, 2, 4, 9]
        curve = harness.topk_curve(moe.MaskScorer(model, bundle.test), predictor, budgets)
        assert list(curve) == budgets
        for k in budgets:
            assert curve[k] == reference_topk_accuracy(model, predictor, bundle.test, k)

    @pytest.mark.parametrize("run", [harness.run_budget_sweep,
                                     harness.run_target_accuracy,
                                     harness.run_distance_sweep])
    def test_sweep_scores_each_example_once(self, trained, tmp_path, monkeypatch, run):
        """One packed predictor forward per `EVAL_CHUNK` test examples, and
        no per-example scoring."""
        bundle = trained[2]
        sizes, single = [], []
        predict_batch = ImportancePredictor.predict_batch

        def counting(self, x, seg):
            sizes.append(int(seg[-1]) + 1)
            return predict_batch(self, x, seg)

        monkeypatch.setattr(ImportancePredictor, "predict_batch", counting)
        monkeypatch.setattr(ImportancePredictor, "scores_np",
                            lambda self, emb: single.append(1))
        monkeypatch.setattr(harness, "EVAL_CHUNK", 10)
        run(multi_distance_spec(), run_dir(trained, tmp_path))
        assert len(bundle.test) == 24 and sizes == [10, 10, 4]
        assert single == []

    def test_distance_rows_match_a_curve_per_distance(self, trained, tmp_path):
        _, _, bundle, model, predictor = trained
        spec = multi_distance_spec()
        rows = harness.run_distance_sweep(spec, run_dir(trained, tmp_path))
        max_ns = max(len(positions(seq, False)) for seq, _ in bundle.test)
        expected, k_maxes = [], []
        for di, dist in enumerate(spec.sweep.distances):
            params = dataclasses.replace(spec.channel.params(spec.model.d), d_c_m=dist)
            rng = RngStream(spec.seed, f"sweep-distance/channel/d{di}")
            m_ul = int(np.median(channel.budget_samples(params, rng,
                                                        spec.sweep.channel_draws)))
            ks = list(range(min(m_ul, max_ns) + 1))
            k_maxes.append(ks[-1])
            topk = {k: reference_topk_accuracy(model, predictor, bundle.test, k)
                    for k in ks}
            rmeans = reference_random_means(model, bundle.test, ks, spec.sweep.trials,
                                            spec.seed, f"sweep-distance/random/d{di}")
            for strategy, curve in (("topk", topk), ("random", rmeans)):
                peak = max(curve.values())
                k_req = next(k for k in ks if curve[k] >= peak - 1e-12)
                expected.append((dist, m_ul, strategy, k_req, peak))
        assert len(set(k_maxes)) == len(k_maxes)  # each distance cuts elsewhere
        assert rows == expected


class TiedScores:
    """Stands in for the predictor: a token's score is its first embedding
    value, so repeated token ids tie exactly."""

    def scores_np(self, embeddings):
        return embeddings[:, 0].copy()

    def predict_batch(self, x, seg):
        return Tensor(x[:, :1])


@pytest.fixture(scope="module")
def tied_data():
    rng = np.random.default_rng(2)
    data = []
    for _ in range(30):
        L = int(rng.integers(1, 12))
        seq = TokenSequence(ids=[int(i) for i in rng.integers(2, 5, L)],
                            mask=[int(m) for m in rng.random(L) < 0.3],
                            tokens=["t"] * L)
        data.append((seq, 0))
    return data


@pytest.fixture(scope="module")
def tied(tied_data):
    model = moe.MoEModel(moe.MoEConfig(vocab_size=6, num_classes=2, d=4, num_experts=3,
                                       num_privacy_experts=1, expert_hidden=5),
                         RngStream(0, "tied"))
    return moe.MaskScorer(model, tied_data)


def rank_orders(scorer, rank):
    """Per example, its non-sensitive positions in rank order."""
    orders = []
    for lo, hi in zip(scorer.offsets[:-1], scorer.offsets[1:]):
        r = rank[lo:hi]
        assert sorted(r) == list(range(hi - lo))
        orders.append(np.argsort(r)[:np.count_nonzero(~scorer.sensitive[lo:hi])].tolist())
    return orders


def request_order(scores, mask) -> list:
    """One request's non-sensitive positions in the B = 1 order of
    `scheduler.rank_tokens`, highest score first."""
    one = packing([mask])
    rank = scheduler.rank_tokens(-np.asarray(scores), one.sensitive, one.seg, one.offsets)
    [order] = rank_orders(one, rank)
    return order


def tied_scores(scorer, data):
    emb = scorer.model.embedding.data
    return [TiedScores().scores_np(emb[seq.ids]) for seq, _ in data]


class TestMasks:
    def test_topk_mask_matches_select_topk_under_ties(self, tied, tied_data):
        scores = tied_scores(tied, tied_data)
        assert any(len(set(s[np.asarray(seq.mask) == 0])) < seq.mask.count(0)
                   for s, (seq, _) in zip(scores, tied_data))
        rank = scheduler.rank_tokens(-np.concatenate(scores), tied.sensitive, tied.seg,
                                     tied.offsets)
        for k in range(max(seq.mask.count(0) for seq, _ in tied_data) + 3):
            decisions = [scheduler.select_topk(s, seq.mask, k)
                         for s, (seq, _) in zip(scores, tied_data)]
            assert np.array_equal(tied.sensitive | (rank < k), np.concatenate([
                moe.active_set(seq, d) for (seq, _), d in zip(tied_data, decisions)]))

    @pytest.mark.parametrize("k", [0, 1, 4, 20])
    def test_random_mask_matches_select_random(self, tied, tied_data, k):
        ranks = list(harness.random_ranks(tied, 2, 3, "r"))
        assert len(ranks) == 2
        for t, rank in enumerate(ranks):
            rng = RngStream(3, f"r/trial{t}")
            actives = [moe.active_set(seq, select_random(seq.mask, k, rng))
                       for seq, _ in tied_data]
            assert np.array_equal(tied.sensitive | (rank < k), np.concatenate(actives))

    def test_packed_topk_ranks_equal_topk_order_under_ties(self, tied, tied_data):
        expected = [request_order(s, seq.mask)
                    for s, (seq, _) in zip(tied_scores(tied, tied_data), tied_data)]
        assert rank_orders(tied, harness.topk_ranks(tied, TiedScores())) == expected

    def test_packed_topk_ranks_equal_topk_order_of_trained_predictor(self, trained):
        """Compared as token ids: B = 1 scoring can split two copies of one
        word by an ulp, where packed scoring ties them exactly."""
        _, _, bundle, model, predictor = trained
        scorer = moe.MaskScorer(model, bundle.test)
        orders = rank_orders(scorer, harness.topk_ranks(scorer, predictor))
        for (seq, _), order in zip(bundle.test, orders):
            expected = request_order(
                predictor.scores_np(model.embedding.data[seq.ids]), seq.mask)
            assert [seq.ids[i] for i in order] == [seq.ids[i] for i in expected]

    def test_random_subsets_are_uniform(self, tied):
        """Chi-square over every 2-subset of an example's 5 non-sensitive
        tokens: 3,000 packed copies of the example, one key draw."""
        seq = TokenSequence(ids=[2, 3, 4, 2, 3, 4, 2], mask=[0, 1, 0, 0, 1, 0, 0],
                            tokens=["t"] * 7)
        copies = 3000
        scorer = moe.MaskScorer(tied.model, [(seq, 0)] * copies)
        (rank,) = harness.random_ranks(scorer, 1, 11, "uniform")
        chosen = (rank < 2).reshape(copies, seq.length)
        assert not chosen[:, [1, 4]].any() and np.all(chosen.sum(axis=1) == 2)
        subsets = list(itertools.combinations([0, 2, 3, 5, 6], 2))
        counts = collections.Counter(tuple(np.flatnonzero(row)) for row in chosen)
        assert set(counts) == set(subsets)
        expected = copies / len(subsets)
        chi2 = sum((counts[s] - expected) ** 2 / expected for s in subsets)
        assert chi2 < 27.877  # chi-square, 9 degrees of freedom, p = 0.001


def packing(masks):
    """The three arrays `scheduler.rank_tokens` reads, for examples with
    these masks."""
    lengths = [len(m) for m in masks]
    return types.SimpleNamespace(sensitive=np.concatenate(masks) == 1,
                                 seg=np.repeat(np.arange(len(masks)), lengths),
                                 offsets=np.cumsum([0] + lengths))


class TestRankProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 1), min_size=1, max_size=8),
                    min_size=1, max_size=6),
           st.randoms(use_true_random=False))
    def test_budget_masks_uplink_min_k_nested_and_never_sensitive(self, masks, rnd):
        scorer = packing(masks)
        key = np.array([rnd.choice([0.0, 0.5, 1.0, rnd.random()])
                        for _ in range(scorer.seg.size)])
        rank = scheduler.rank_tokens(key, scorer.sensitive, scorer.seg, scorer.offsets)
        n_ns = np.bincount(scorer.seg, weights=~scorer.sensitive, minlength=len(masks))
        assert np.all(rank[scorer.sensitive] >= n_ns[scorer.seg[scorer.sensitive]])
        previous = scorer.sensitive
        for k in range(10):
            active = scorer.sensitive | (rank < k)
            uplinked = active & ~scorer.sensitive
            assert np.array_equal(np.bincount(scorer.seg, weights=uplinked,
                                              minlength=len(masks)), np.minimum(k, n_ns))
            assert np.all(active[previous])
            previous = active


@pytest.fixture(scope="module")
def model_file(trained, tmp_path_factory):
    """The trained model checkpoint's bytes, and a path to write edits of it
    to."""
    spec, out = trained[:2]
    with open(os.path.join(out, spec.model.checkpoint), "rb") as fh:
        raw = fh.read()
    return raw, str(tmp_path_factory.mktemp("edited") / spec.model.checkpoint)


def parameter_shapes(c: moe.MoEConfig) -> dict:
    """The shape of every parameter array of a model of config `c`."""
    shapes = {"embedding": (c.vocab_size, c.d), "w_g": (c.d, c.num_experts),
              "b_g": (c.num_experts,), "agg_w": (c.d, 1), "ln_gain": (c.d,),
              "ln_bias": (c.d,), "w_o": (c.d, c.num_classes), "b_o": (c.num_classes,)}
    for j in range(c.num_experts):
        shapes.update({f"expert{j}.w1": (c.d, c.expert_hidden), f"expert{j}.b1": (c.expert_hidden,),
                       f"expert{j}.w2": (c.expert_hidden, c.d), f"expert{j}.b2": (c.d,)})
    return shapes


class TestCheckpointEdits:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_edited_model_loads_whole_or_raises_checkpoint_error(self, model_file, data):
        """A cut, an appended tail of 1-64 bytes or one XORed byte: the file
        loads as a model whose arrays are finite and shaped as its config
        says, or raises CheckpointError; a cut or a tail never loads. One
        edit cannot make a config size exceed 99, and declared array sizes
        are checked against the file before they are read."""
        raw, path = model_file
        edit = data.draw(st.sampled_from(["cut", "tail", "xor"]))
        if edit == "cut":
            edited = raw[:data.draw(st.integers(0, len(raw) - 1))]
        elif edit == "tail":
            edited = raw + data.draw(st.binary(min_size=1, max_size=64))
        else:
            edited = bytearray(raw)
            edited[data.draw(st.integers(0, len(raw) - 1))] ^= data.draw(st.integers(1, 255))
        with open(path, "wb") as fh:
            fh.write(edited)
        try:
            model = moe.load_model(path)
        except checkpoint.CheckpointError:
            return
        assert edit == "xor"
        params = model.parameters()
        assert {k: p.data.shape for k, p in params.items()} == parameter_shapes(model.config)
        assert all(np.isfinite(p.data).all() for p in params.values())


class TestCli:
    def test_unknown_mode_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.run(["no-such-mode"])
        assert exc.value.code == 1

    def test_missing_config_exits_1(self, tmp_path, capsys):
        rc = cli.run(["channel-probe", "--config", str(tmp_path / "nope.cfg")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_eval_without_checkpoint_exits_1(self, tmp_path, capsys):
        rc = cli.run(["eval", "--out", str(tmp_path)])
        assert rc == 1

    def test_eval_on_truncated_checkpoint_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CONFIG_TEXT)
        out = str(tmp_path / "run")
        assert cli.run(["train", "--config", str(cfg), "--out", out]) == 0
        path = os.path.join(out, "model.pwcm")
        raw = open(path, "rb").read()
        capsys.readouterr()
        for cut in (10, 2000):
            open(path, "wb").write(raw[:cut])
            assert cli.run(["eval", "--config", str(cfg), "--out", out]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "truncated" in err
            assert err.count("\n") == 1

    @pytest.mark.parametrize("edit", ["drop-config-field", "drop-array", "extra-array",
                                      "cut-array", "unreadable-field", "zero-size",
                                      "oversized-array", "config-not-utf8", "nan-array",
                                      "inf-array", "signalling-nan-array", "trailing-bytes",
                                      "nan-tau", "inf-lambda-lb", "rank-above-2"])
    def test_eval_on_mismatched_checkpoint_exits_1(self, tmp_path, capsys, edit):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CONFIG_TEXT)
        out = str(tmp_path / "run")
        assert cli.run(["train", "--config", str(cfg), "--out", out]) == 0
        path = os.path.join(out, "model.pwcm")
        config, arrays = checkpoint.load_container(path, checkpoint.MAGIC_MODEL)
        if edit == "drop-config-field":
            del config["d"]
            message = "config block has no field 'd'"
        elif edit == "drop-array":
            del arrays["w_o"]
            message = "missing parameter array 'w_o'"
        elif edit == "extra-array":
            arrays["extra"] = np.zeros(3)
            message = "array 'extra' is not a parameter of the model"
        elif edit == "unreadable-field":
            config["d"] = "abc"
            message = "config field 'd': cannot read 'abc' as int"
        elif edit == "zero-size":
            config["d"] = 0
            message = "config field 'd' must be >= 1, got 0"
        elif edit == "oversized-array":
            # last in the file, so its (8, 4) shape is the 8 bytes before 128 value bytes
            arrays["w_o"] = arrays.pop("w_o")
            message = ("truncated: array 'w_o' of shape (2147483648, 8) needs 68719476736 "
                       "bytes, found 128")
        elif edit == "config-not-utf8":
            message = ("config block is not UTF-8: 'utf-8' codec can't decode byte 0xff "
                       "in position 0: invalid start byte")
        elif edit == "nan-array":
            arrays["w_o"][0, 0] = np.nan  # every logit would be NaN, every argmax 0
            message = "array 'w_o' holds a NaN or infinite value"
        elif edit == "inf-array":
            arrays["embedding"][3, 1] = -np.inf
            message = "array 'embedding' holds a NaN or infinite value"
        elif edit == "rank-above-2":
            arrays["w_o"] = arrays.pop("w_o")  # last, so its rank byte is raw[-137]
            message = "array 'w_o' has rank 70, above 2"
        elif edit == "signalling-nan-array":
            message = "array 'expert3.b2' holds a NaN or infinite value"
        elif edit == "trailing-bytes":
            message = "7 trailing bytes after the last array"
        elif edit == "nan-tau":
            config["tau"] = "nan"  # every routing probability would be NaN
            message = "config field 'tau' must be finite, got nan"
        elif edit == "inf-lambda-lb":
            config["lambda_lb"] = "inf"
            message = "config field 'lambda_lb' must be finite, got inf"
        else:
            arrays["w_o"] = arrays["w_o"][:-1]
            message = "array 'w_o' has shape (7, 4), the model needs (8, 4)"
        checkpoint.save_container(path, checkpoint.MAGIC_MODEL, config, arrays)
        if edit == "oversized-array":
            raw = bytearray(open(path, "rb").read())
            raw[-136:-128] = struct.pack("<2I", 2**31, 8)
            open(path, "wb").write(bytes(raw))
        if edit == "config-not-utf8":
            raw = bytearray(open(path, "rb").read())
            raw[12] = 0xff  # after magic, version and config length
            open(path, "wb").write(bytes(raw))
        if edit == "rank-above-2":
            # (8, 4) and 68 more zero dims: an empty array of 70 dimensions
            raw = bytearray(open(path, "rb").read())
            raw[-137] = 70
            raw[-128:-128] = bytes(4 * 68)
            open(path, "wb").write(bytes(raw))
        if edit == "signalling-nan-array":
            raw = bytearray(open(path, "rb").read())
            raw[-4:] = struct.pack("<I", 0x7f800001)  # widening it to float64 warns
            open(path, "wb").write(bytes(raw))
        if edit == "trailing-bytes":
            open(path, "ab").write(b"\x00" * 7)
        capsys.readouterr()
        assert cli.run(["eval", "--config", str(cfg), "--out", out]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("case", ["config-not-utf8", "csv-not-utf8", "config-bom-not-utf8",
                                      "csv-bom-not-utf8", "config-is-directory",
                                      "out-is-a-file"])
    def test_bad_path_exits_1_with_one_line(self, tmp_path, capsys, case):
        cfg, out = tmp_path / "tiny.cfg", tmp_path / "run"
        cfg.write_text(TINY_CONFIG_TEXT)
        bom = codecs.BOM_UTF8 if "bom" in case else b""
        if case in ("config-not-utf8", "config-bom-not-utf8"):
            cfg.write_bytes(bom + TINY_CONFIG_TEXT.encode() + b"# \xff\n")
            message = f"{cfg}: not UTF-8: 'utf-8' codec can't decode byte 0xff"
        elif case in ("csv-not-utf8", "csv-bom-not-utf8"):
            train, test = tmp_path / "train.csv", tmp_path / "test.csv"
            train.write_bytes(bom + b"text,label\nalpha beta,0\ngamma caf\xe9,1\n")
            test.write_text("text,label\nalpha,0\n")
            cfg.write_text(f"data.source = csv\ndata.csv_train = {train}\n"
                           f"data.csv_test = {test}\nmodel.epochs = 1\n")
            message = f"{train}: not UTF-8: 'utf-8' codec can't decode byte 0xe9"
        elif case == "config-is-directory":
            cfg = tmp_path / "configs"
            cfg.mkdir()
            message = f"Is a directory: '{cfg}'"
        else:
            out.write_text("")
            message = f"File exists: '{out}'"
        assert cli.run(["train", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1

    def test_checkpoint_built_for_other_data_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CONFIG_TEXT)
        out = str(tmp_path / "run")
        assert cli.run(["train", "--config", str(cfg), "--out", out]) == 0
        # a CSV corpus with a larger vocabulary than the synthetic one
        words = [f"w{i}" for i in range(150)]
        for name, n in (("train.csv", 40), ("test.csv", 10)):
            rows = [" ".join(words[(7 * i + k) % 150] for k in range(6)) + f",{i % 2}"
                    for i in range(n)]
            (tmp_path / name).write_text("text,label\n" + "\n".join(rows) + "\n")
        other = tmp_path / "csv.cfg"
        other.write_text(TINY_CONFIG_TEXT + f"data.source = csv\n"
                         f"data.csv_train = {tmp_path}/train.csv\n"
                         f"data.csv_test = {tmp_path}/test.csv\n")
        capsys.readouterr()
        assert cli.run(["eval", "--config", str(other), "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: model.pwcm was built for vocabulary size ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_sweep_on_non_finite_predictor_exits_1(self, tmp_path, capsys, value):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CONFIG_TEXT)
        out = str(tmp_path / "run")
        assert cli.run(["train", "--config", str(cfg), "--out", out]) == 0
        assert cli.run(["train-predictor", "--config", str(cfg), "--out", out]) == 0
        path = os.path.join(out, "predictor.pwcp")
        config, arrays = checkpoint.load_container(path, checkpoint.MAGIC_PREDICTOR)
        arrays["w_score"][1, 0] = value
        checkpoint.save_container(path, checkpoint.MAGIC_PREDICTOR, config, arrays)
        capsys.readouterr()
        assert cli.run(["sweep-budget", "--config", str(cfg), "--out", out]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: array 'w_score' holds a NaN or infinite value\n"

    def test_predictor_of_other_width_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CONFIG_TEXT)
        out = str(tmp_path / "run")
        assert cli.run(["train", "--config", str(cfg), "--out", out]) == 0
        assert cli.run(["train-predictor", "--config", str(cfg), "--out", out]) == 0
        wide = tmp_path / "wide.cfg"
        wide.write_text(TINY_CONFIG_TEXT + "model.d = 16\n")
        assert cli.run(["train", "--config", str(wide), "--out", out]) == 0
        capsys.readouterr()
        assert cli.run(["sweep-budget", "--config", str(wide), "--out", out]) == 1
        err = capsys.readouterr().err
        assert err == "error: predictor.pwcp was built for width d = 8, but the model has d = 16\n"

    def test_channel_probe_succeeds(self, tmp_path, capsys):
        cfg = tmp_path / "probe.cfg"
        cfg.write_text("channel.deterministic = true\n")
        rc = cli.run(["channel-probe", "--config", str(cfg), "--seed", "1"])
        assert rc == 0
        assert "snr_db" in capsys.readouterr().out

    def test_full_pipeline_via_cli(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CONFIG_TEXT)
        out = str(tmp_path / "run")
        assert cli.run(["train", "--config", str(cfg), "--out", out]) == 0
        assert cli.run(["train-predictor", "--config", str(cfg), "--out", out]) == 0
        assert cli.run(["eval", "--config", str(cfg), "--out", out]) == 0
        assert cli.run(["sweep-budget", "--config", str(cfg), "--out", out]) == 0
        for name in ["model.pwcm", "predictor.pwcp", "eval_metrics.csv",
                     "budget_sweep.csv", "run-manifest.txt"]:
            assert os.path.exists(os.path.join(out, name))

    def test_manifest_lists_every_stage_artifact_once(self, tmp_path):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CONFIG_TEXT)
        out = str(tmp_path / "run")
        for mode in ["train", "train-predictor", "eval", "sweep-budget",
                     "target-accuracy", "sweep-distance"]:
            assert cli.run([mode, "--config", str(cfg), "--out", out]) == 0
        lines = open(os.path.join(out, "run-manifest.txt")).read().splitlines()
        listed = [line.split(" = ", 1)[1] for line in lines
                  if line.startswith("artifact = ")]
        assert listed == ["model.pwcm", "train_metrics.csv", "predictor.pwcp",
                          "predictor_metrics.csv", "eval_metrics.csv",
                          "budget_sweep.csv", "target_accuracy.csv",
                          "distance_sweep.csv"]

    @pytest.mark.parametrize("line, message", [
        ("seed = abc", "bad value for seed"),
        ("sweep.trials = 0", "sweep.trials must be >= 1"),
        ("sweep.budgets = 1,-2", "sweep.budgets: -2 is not an integer >= 0"),
        ("sweep.budgets = 1,2.5", "sweep.budgets: 2.5 is not an integer >= 0"),
        ("sweep.channel_draws = 0", "sweep.channel_draws must be >= 1"),
        ("data.max_len = 0", "data.max_len must be >= 1"),
        ("data.synth_train = 0", "data.synth_train must be >= 1"),
        ("data.synth_test = 0", "data.synth_test must be >= 1"),
        ("model.d = 0", "model.d must be >= 1"),
        ("model.expert_hidden = 0", "model.expert_hidden must be >= 1"),
        ("model.batch_size = 0", "model.batch_size must be >= 1"),
        ("predictor.proj_dim = 0", "predictor.proj_dim must be >= 1"),
        ("predictor.heads = 0", "predictor.heads must be >= 1"),
        ("predictor.batch_size = 0", "predictor.batch_size must be >= 1"),
        pytest.param("data.source = csv\ndata.csv_train = {tmp}/header_only.csv\n"
                     "data.csv_test = {tmp}/header_only.csv",
                     "header_only.csv: no examples", id="header-only-csv"),
        pytest.param("data.source = csv\ndata.csv_train = {tmp}\ndata.csv_test = {tmp}",
                     "Is a directory", id="csv-is-directory"),
        ("model.tau = nan", "bad value for model.tau"),
        ("channel.d_c_m = nan", "bad value for channel.d_c_m"),
        ("channel.t_ul_s = inf", "bad value for channel.t_ul_s"),
        ("sweep.distances = 100,1e999", "bad value for sweep.distances"),
        pytest.param("model.learning_rate = 1e6", "loss diverged (NaN/Inf) at round 1",
                     id="diverging-learning-rate"),
    ])
    def test_bad_config_value_exits_1_with_one_line(self, tmp_path, capsys, line, message):
        # `train` is the first stage: each case fails there, so none needs
        # a checkpoint from an earlier stage
        (tmp_path / "header_only.csv").write_text("text,label\n")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(TINY_CONFIG_TEXT + line.format(tmp=tmp_path) + "\n")
        assert cli.run(["train", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("mode", ["channel-probe", "sweep-distance"])
    @pytest.mark.parametrize("line, message", [
        ("channel.t_ul_s = 1e300", "per uplink window does not fit in int64 "
         "(uplink time 1e+300 s)"),
        ("channel.bandwidth_hz = 1e-300", "token budget inf per uplink window"),
        ("channel.tx_power_dbm = 1e300", "transmit power 1e+300 dBm or noise density"),
        ("channel.noise_psd_dbm_hz = 1e300", "noise density 1e+300 dBm/Hz overflows in mW"),
        ("channel.shadowing_std_db = 1e300", "channel.shadowing_std_db 1e+300 dB exceeds 300 dB"),
        pytest.param(f"channel.bits_per_token = 1{'0' * 400}",
                     "channel.bits_per_token, or model.d * channel.bits_per_value when it is 0) "
                     "is about 1e400, above the float64 range", id="oversized-bits-per-token"),
        pytest.param(f"model.d = 1{'0' * 400}", "is about 1e401, above the float64 range",
                     id="oversized-bits-per-token-from-d"),
    ])
    def test_bad_channel_value_exits_1_with_one_line(self, tmp_path, capsys, mode, line,
                                                     message):
        # both modes fail on the channel before they read a checkpoint, on
        # every seed (the shadowing draw differs per seed)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(TINY_CONFIG_TEXT + line + "\n")
        for seed in ("1", "2", "3"):
            assert cli.run([mode, "--config", str(cfg), "--out", str(tmp_path),
                            "--seed", seed]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and message in err
            assert err.count("\n") == 1

    def test_constant_gate_shift_leaves_eval_unchanged(self, tmp_path, capsys):
        # every gate bias at -6e8, a finite float32: each token's logits move
        # together, so routing and accuracy stay as trained
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CONFIG_TEXT)
        out = str(tmp_path / "run")
        assert cli.run(["train", "--config", str(cfg), "--out", out]) == 0
        capsys.readouterr()
        assert cli.run(["eval", "--config", str(cfg), "--out", out]) == 0
        trained = capsys.readouterr().out
        path = os.path.join(out, "model.pwcm")
        config, arrays = checkpoint.load_container(path, checkpoint.MAGIC_MODEL)
        arrays["b_g"] = np.full(arrays["b_g"].shape, -6e8)
        checkpoint.save_container(path, checkpoint.MAGIC_MODEL, config, arrays)
        assert cli.run(["eval", "--config", str(cfg), "--out", out]) == 0
        assert capsys.readouterr().out == trained and trained.startswith("test_accuracy = ")

    def test_pipeline_script_matches_staged_cli(self, tmp_path, capsys):
        cfg = os.path.join(ROOT, "configs", "tiny.cfg")
        piped, staged = str(tmp_path / "pipeline"), str(tmp_path / "staged")
        assert load_script("run_pipeline").main(["--config", cfg, "--out", piped]) == 0
        for mode in ["train", "train-predictor", "eval", "sweep-budget",
                     "sweep-distance", "target-accuracy"]:
            assert cli.run([mode, "--config", cfg, "--out", staged]) == 0
        assert len(os.listdir(staged)) == 9
        capsys.readouterr()
        assert load_script("compare_runs").main([piped, staged]) == 0
        assert capsys.readouterr().out == ""

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("seed = 3\n")
        import argparse
        args = argparse.Namespace(config=str(cfg), seed=11)
        assert cli._spec(args).seed == 11


CONFIG_KEYS = ["seed"] + [f"{f.name}.{g.name}"
                          for f in dataclasses.fields(config.ExperimentSpec) if f.name != "seed"
                          for g in dataclasses.fields(f.default_factory())]
ODD_VALUES = st.one_of(
    st.text(max_size=12),
    st.integers(10**399, 10**400).map(str),
    st.sampled_from(["1e308", "-1e308", "nan", "inf", "-inf", "1e999", "0", "-1", "1.5",
                     "true", "", "csv", "1,2,3", "1e308,1e308", "nan,1", "0,-1"]),
    st.lists(st.one_of(st.integers(-10**30, 10**30).map(str),
                       st.floats(allow_nan=True, allow_infinity=True).map(repr)),
             max_size=4).map(",".join),
)


@pytest.fixture(scope="module")
def fuzz_config(tmp_path_factory) -> str:
    return str(tmp_path_factory.mktemp("fuzz") / "fuzz.cfg")


class TestConfigFuzz:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(lines=st.lists(st.tuples(st.sampled_from(CONFIG_KEYS), ODD_VALUES), max_size=4),
           stray=st.binary(max_size=4), at=st.integers(0, 10**6))
    @example(lines=[("channel.bits_per_token", f"1{'0' * 400}")], stray=b"", at=0)
    def test_channel_probe_exits_0_or_1_with_one_line(self, fuzz_config, lines, stray, at):
        """Up to four `key = value` lines with odd values, and a few stray
        bytes put in anywhere: `channel-probe` succeeds, or exits 1 with a
        single `error: ` line, never with a traceback."""
        text = "".join(f"{k} = {v}\n" for k, v in lines).encode("utf-8", "surrogatepass")
        at %= len(text) + 1
        with open(fuzz_config, "wb") as fh:
            fh.write(text[:at] + stray + text[at:])
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.run(["channel-probe", "--config", fuzz_config])
        if rc:
            assert rc == 1 and err.getvalue().startswith("error: "), err.getvalue()
            assert err.getvalue().count("\n") == 1, err.getvalue()


class TestCompareRuns:
    @pytest.fixture
    def runs(self, tmp_path):
        dirs = []
        for name in ("a", "b"):
            d = tmp_path / name
            d.mkdir()
            (d / "budget_sweep.csv").write_text("budget,accuracy\n1,0.50\n")
            (d / "eval_metrics.csv").write_text("metric,value\nacc,0.75\n")
            checkpoint.save_container(str(d / "predictor.pwcp"), checkpoint.MAGIC_PREDICTOR,
                                      {"d": 2}, {"w": np.arange(6.0).reshape(2, 3),
                                                 "b": np.zeros(2)})
            dirs.append(str(d))
        return dirs

    def test_one_changed_csv_byte_exits_1_naming_the_file(self, runs, tmp_path, capsys):
        path = tmp_path / "b" / "budget_sweep.csv"
        data = bytearray(path.read_bytes())
        data[-2] ^= 1  # "0.50" -> "0.51"
        path.write_bytes(bytes(data))
        assert load_script("compare_runs").main(runs) == 1
        assert capsys.readouterr().out == "budget_sweep.csv: 1 of 1 data lines differ: 1\n"

    def test_csv_line_counts_and_names_the_rows_that_differ(self, runs, capsys):
        topk = "budget,strategy,trials,accuracy\n1,topk,1,0.5\n2,topk,1,0.7\n"
        for d, random_rows in zip(runs, (
                "1,random,2,0.3\n2,random,2,0.4\n3,random,2,0.45\n4,random,2,0.5\n",
                "1,random,3,0.3\n2,random,2,0.41\n3,random,2,0.46\n4,random,2,0.52\n")):
            with open(os.path.join(d, "budget_sweep.csv"), "w") as fh:
                fh.write(topk + random_rows)
        assert load_script("compare_runs").main(runs) == 1
        assert capsys.readouterr().out == ("budget_sweep.csv: 4 of 6 data lines differ: "
                                           "1,random; 2,random,2; 3,random,2; ...\n")

    def test_checkpoint_line_names_arrays_and_counts_values(self, runs, capsys):
        checkpoint.save_container(os.path.join(runs[1], "predictor.pwcp"),
                                  checkpoint.MAGIC_PREDICTOR, {"d": 2},
                                  {"w": np.arange(6.0).reshape(2, 3) * [1, 1, 2],
                                   "b": np.zeros(2)})
        assert load_script("compare_runs").main(runs) == 1
        assert capsys.readouterr().out == ("predictor.pwcp: 2 of 8 values differ: "
                                           "w 2/6 (max |Δ| 5)\n")


class TestServeDigest:
    def test_repeats_and_sees_one_changed_value(self, trained, tmp_path):
        spec, out, bundle = trained[:3]
        serve_digest = load_script("serve_digest")
        first = serve_digest.digest(spec, out)
        assert serve_digest.digest(spec, out) == first
        assert first[1] == len(bundle.test) * len(serve_digest.BUDGETS)
        # budget 0 fails on every example without a sensitive token
        assert first[2] == sum(1 for seq, _ in bundle.test if 1 not in seq.mask)
        path = os.path.join(str(tmp_path), spec.model.checkpoint)
        config, arrays = checkpoint.load_container(os.path.join(out, spec.model.checkpoint),
                                                   checkpoint.MAGIC_MODEL)
        arrays["w_o"][0, 0] = np.nextafter(np.float32(arrays["w_o"][0, 0]), np.float32(1))
        checkpoint.save_container(path, checkpoint.MAGIC_MODEL, config, arrays)
        shutil.copy(os.path.join(out, spec.predictor.checkpoint), tmp_path)
        assert serve_digest.digest(spec, str(tmp_path))[0] != first[0]

    def test_missing_run_exits_1(self, tmp_path, capsys):
        # no run directory, and a manifest without a seed
        (tmp_path / "run-manifest.txt").write_text("checkpoint_format_version = 1\n")
        for run in (str(tmp_path / "none"), str(tmp_path)):
            assert load_script("serve_digest").main(["--run", run]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.fixture(scope="class")
    def seeded_run(self, tmp_path_factory):
        """A run of TINY_CONFIG_TEXT (seed 7) trained with `--seed 2`."""
        root = tmp_path_factory.mktemp("seeded")
        cfg, out = str(root / "tiny.cfg"), str(root / "run")
        (root / "tiny.cfg").write_text(TINY_CONFIG_TEXT)
        for mode in ("train", "train-predictor"):
            assert cli.run([mode, "--config", cfg, "--seed", "2", "--out", out]) == 0
        return cfg, out

    def test_takes_the_seed_of_the_run(self, seeded_run, capsys):
        cfg, out = seeded_run
        serve_digest = load_script("serve_digest")
        capsys.readouterr()
        assert serve_digest.main(["--config", cfg, "--run", out]) == 0
        spec = config.load_config(cfg)
        spec.seed = 2
        hexdigest, served, failed = serve_digest.digest(spec, out)
        assert capsys.readouterr().out == f"{hexdigest}  {served} requests, {failed} failed\n"

    def test_config_the_run_was_not_built_from_exits_1(self, seeded_run, tmp_path, capsys):
        cfg, out = seeded_run
        other = tmp_path / "other.cfg"
        other.write_text(TINY_CONFIG_TEXT + "model.tau = 0.5\n")
        spec = config.load_config(str(other))
        spec.seed = 2
        capsys.readouterr()
        assert load_script("serve_digest").main(["--config", str(other), "--run", out]) == 1
        with open(os.path.join(out, "run-manifest.txt"), encoding="utf-8") as fh:
            built = fh.readline().split(" = ")[1].strip()
        err = capsys.readouterr().err
        assert err == (f"error: config hash {config.config_hash(spec)} differs from the "
                       f"run's config_sha256 {built}\n")


class TestDeterminism:
    def test_training_outputs_byte_identical(self, tmp_path):
        spec = tiny_spec(seed=5)
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            os.makedirs(out)
            harness.run_train(spec, out, log=lambda s: None)
            outs.append(out)
        for fname in ["model.pwcm", "train_metrics.csv", "run-manifest.txt"]:
            a = open(os.path.join(outs[0], fname), "rb").read()
            b = open(os.path.join(outs[1], fname), "rb").read()
            assert a == b, f"{fname} differs between identical runs"

    def test_different_seeds_differ(self, tmp_path):
        datasets = [harness.prepare_data(tiny_spec(seed=s)) for s in (0, 1)]
        texts = [[seq.tokens for seq, _ in d.train[:10]] for d in datasets]
        assert texts[0] != texts[1]
