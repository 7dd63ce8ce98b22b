"""Experiment orchestration: dataset preparation, collaborative-inference
emulation, budget / distance / target-accuracy sweeps, and CSV metrics.

Every stochastic choice derives from the experiment seed through labeled
RngStreams, so a (config, seed) pair fully determines every output byte.
Each sweep stage runs the MoE forward over the test split once; every
offload strategy is then a rank per token over that pass's tokens, and its
decision at budget k the mask of the tokens ranked below k.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from . import channel as ch
from . import corpus
from . import tensor as T
from .checkpoint import FORMAT_VERSION
from .config import ExperimentSpec, config_hash
from .moe import (MaskScorer, MoEConfig, MoEModel, active_set, batches, evaluate,
                  load_model, save_model, train_model)
from .predictor import (ImportancePredictor, PredictorConfig, collect_dataset,
                        load_predictor, save_predictor, train_predictor)
from .rng import RngStream
from .scheduler import rank_tokens


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


def write_csv(path: str, header: list, rows: list):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_manifest(out_dir: str, spec: ExperimentSpec, artifacts: list):
    """Write the run manifest. Artifacts listed by earlier stages in the same
    directory are kept, each once, in the order first written."""
    path = os.path.join(out_dir, "run-manifest.txt")
    prefix = "artifact = "
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            earlier = [line[len(prefix):].rstrip("\n") for line in fh
                       if line.startswith(prefix)]
        artifacts = list(dict.fromkeys(earlier + list(artifacts)))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"config_sha256 = {config_hash(spec)}\n")
        fh.write(f"seed = {spec.seed}\n")
        fh.write(f"checkpoint_format_version = {FORMAT_VERSION}\n")
        for a in artifacts:
            fh.write(f"{prefix}{a}\n")


# -- dataset preparation ---------------------------------------------------

@dataclass
class DataBundle:
    train: list           # (TokenSequence, label)
    test: list
    vocab: corpus.Vocabulary
    num_classes: int


def _sequences(examples, vocab, max_len):
    return list(zip(corpus.encode(examples, vocab, max_len), (ex.label for ex in examples)))


def prepare_data(spec: ExperimentSpec) -> DataBundle:
    d = spec.data
    if d.source == "csv":
        train_ex, test_ex, vocab, num_classes = corpus.load_dataset(d.csv_train, d.csv_test)
    elif d.source == "synthetic":
        rng = RngStream(spec.seed, "data/synthetic")
        train_ex = corpus.synth_generate(rng.spawn("train"), d.synth_train,
                                         d.synth_classes, d.synth_sensitive_rate)
        test_ex = corpus.synth_generate(rng.spawn("test"), d.synth_test,
                                        d.synth_classes, d.synth_sensitive_rate)
        vocab = corpus.build_vocabulary(train_ex)
        num_classes = d.synth_classes
    else:
        raise ValueError(f"unknown data source: {d.source}")
    return DataBundle(
        train=_sequences(train_ex, vocab, d.max_len),
        test=_sequences(test_ex, vocab, d.max_len),
        vocab=vocab,
        num_classes=num_classes,
    )


def build_model(spec: ExperimentSpec, bundle: DataBundle) -> MoEModel:
    m = spec.model
    cfg = MoEConfig(
        vocab_size=len(bundle.vocab), num_classes=bundle.num_classes, d=m.d,
        num_experts=m.experts, num_privacy_experts=m.privacy_experts,
        expert_hidden=m.expert_hidden, tau=m.tau, lambda_lb=m.lambda_lb,
        learning_rate=m.learning_rate, momentum=m.momentum, epochs=m.epochs,
        batch_size=m.batch_size,
    )
    return MoEModel(cfg, RngStream(spec.seed, "model"))


def predictor_config(spec: ExperimentSpec) -> PredictorConfig:
    p = spec.predictor
    return PredictorConfig(d=spec.model.d, proj_dim=p.proj_dim, layers=p.layers,
                           heads=p.heads, learning_rate=p.learning_rate,
                           epochs=p.epochs, batch_size=p.batch_size)


# -- collaborative inference ----------------------------------------------

def collaborative_forward(model: MoEModel, seq, decision) -> np.ndarray:
    """Class probabilities for one example under an offload decision.

    The client / base-station split is an emulation boundary over the one MoE
    forward: its privacy-isolated gate sends the sensitive tokens (processed
    on the client) only to privacy experts and the selected non-sensitive
    tokens (uplinked to the base station) only to the other experts, and
    pooling runs over exactly those tokens. A decision that selects a
    sensitive or out-of-range token is rejected, and an empty active set
    raises ValueError.
    """
    for i in decision.selected:
        if not (0 <= i < seq.length):
            raise IndexError(f"decision index {i} out of range for length {seq.length}")
        if seq.mask[i] == 1:
            raise ValueError(f"decision selects sensitive token {i}")
    with T.no_grad():
        return model.forward(seq, active=active_set(seq, decision)).probs()


# -- strategy evaluation ---------------------------------------------------

# examples per packed predictor forward; bounds the attention's padded
# (examples, heads, longest, longest) score arrays
EVAL_CHUNK = 256


def topk_ranks(scorer: MaskScorer, predictor: ImportancePredictor) -> np.ndarray:
    """Predictor top-k as a rank array: highest score first. The test split
    is scored in packed forwards of `EVAL_CHUNK` examples."""
    table = scorer.model.embedding.data
    with T.no_grad():
        scores = np.concatenate([predictor.predict_batch(table[scorer.ids[rows]], seg).data
                                 for _, rows, seg in batches(scorer.offsets, EVAL_CHUNK)])
    return rank_tokens(-scores.reshape(-1), scorer.sensitive, scorer.seg, scorer.offsets)


def random_ranks(scorer: MaskScorer, trials: int, seed: int, label: str):
    """Uniform random selection as one rank array per trial. Trial t ranks
    one uniform key per token from stream `{label}/trial{t}`, so every budget
    of a trial shares its keys and the subsets are nested; the `budget`
    lowest keys of an example are a uniform subset of that size."""
    for t in range(trials):
        key = RngStream(seed, f"{label}/trial{t}").uniform(scorer.seg.size)
        yield rank_tokens(key, scorer.sensitive, scorer.seg, scorer.offsets)


def accuracy_curve(scorer: MaskScorer, rank: np.ndarray, budgets) -> dict:
    """Accuracy per budget k when every example pools its sensitive tokens
    and its k best-ranked non-sensitive ones."""
    return {k: scorer.accuracy(scorer.sensitive | (rank < k)) for k in budgets}


def topk_curve(scorer: MaskScorer, predictor: ImportancePredictor, budgets) -> dict:
    """Top-k accuracy per budget."""
    return accuracy_curve(scorer, topk_ranks(scorer, predictor), budgets)


def random_curve(scorer: MaskScorer, budgets, trials, seed, label):
    """Mean/std accuracy per budget over independent random-selection trials."""
    accs = {k: [] for k in budgets}
    for rank in random_ranks(scorer, trials, seed, label):
        for k, acc in accuracy_curve(scorer, rank, budgets).items():
            accs[k].append(acc)
    means = {k: float(np.mean(a)) for k, a in accs.items()}
    stds = {k: float(np.std(a, ddof=1)) if trials > 1 else 0.0 for k, a in accs.items()}
    return means, stds


# -- experiment modes ------------------------------------------------------
#
# Stages pass models to each other only through the run directory: every
# stage after `run_train` reads the data and the checkpoints it needs there.

def _load_artifacts(spec: ExperimentSpec, out_dir: str, predictor: bool = False):
    """(bundle, model, predictor or None): the data of `spec`, the model
    checkpoint in `out_dir` and, when asked, the predictor checkpoint. A
    checkpoint whose sizes do not fit the data or the model raises
    ValueError."""
    bundle = prepare_data(spec)
    model = load_model(os.path.join(out_dir, spec.model.checkpoint))
    c = model.config
    for what, built, now in (("vocabulary size", c.vocab_size, len(bundle.vocab)),
                             ("class count", c.num_classes, bundle.num_classes)):
        if built != now:
            raise ValueError(f"{spec.model.checkpoint} was built for {what} "
                             f"{built}, but the data has {now}")
    pred = None
    if predictor:
        pred = load_predictor(os.path.join(out_dir, spec.predictor.checkpoint))
        if pred.config.d != c.d:
            raise ValueError(f"{spec.predictor.checkpoint} was built for width "
                             f"d = {pred.config.d}, but the model has d = {c.d}")
    return bundle, model, pred


def run_train(spec: ExperimentSpec, out_dir: str, log=print):
    bundle = prepare_data(spec)
    model = build_model(spec, bundle)
    trace = train_model(model, bundle.train, bundle.test, spec.seed, log=log)
    ckpt = os.path.join(out_dir, spec.model.checkpoint)
    save_model(model, ckpt)
    csv_path = os.path.join(out_dir, "train_metrics.csv")
    write_csv(csv_path, ["round", "accuracy", "mean_loss"],
              [(r, a, l) for r, a, l in
               zip(trace.rounds, trace.test_accuracy, trace.mean_loss)])
    write_manifest(out_dir, spec, [spec.model.checkpoint, "train_metrics.csv"])
    return trace


def run_train_predictor(spec: ExperimentSpec, out_dir: str, log=print):
    bundle, model, _ = _load_artifacts(spec, out_dir)
    dataset = collect_dataset(model, bundle.train)
    predictor, trace = train_predictor(dataset, predictor_config(spec), spec.seed, log=log)
    save_predictor(predictor, os.path.join(out_dir, spec.predictor.checkpoint))
    csv_path = os.path.join(out_dir, "predictor_metrics.csv")
    write_csv(csv_path, ["epoch", "mean_kl"],
              list(zip(trace.epochs, trace.mean_kl)))
    write_manifest(out_dir, spec, [spec.predictor.checkpoint, "predictor_metrics.csv"])
    return trace


def run_eval(spec: ExperimentSpec, out_dir: str):
    bundle, model, _ = _load_artifacts(spec, out_dir)
    acc = evaluate(model, bundle.test)
    write_csv(os.path.join(out_dir, "eval_metrics.csv"),
              ["metric", "value"], [("test_accuracy", acc)])
    write_manifest(out_dir, spec, ["eval_metrics.csv"])
    return acc


def run_budget_sweep(spec: ExperimentSpec, out_dir: str):
    """Accuracy vs per-example uplink budget, predictor top-k vs random."""
    bundle, model, predictor = _load_artifacts(spec, out_dir, predictor=True)
    budgets = [int(k) for k in spec.sweep.budgets]
    scorer = MaskScorer(model, bundle.test)
    topk = topk_curve(scorer, predictor, budgets)
    rows = [(k, "topk", 1, topk[k], 0.0) for k in budgets]
    rmeans, rstds = random_curve(scorer, budgets, spec.sweep.trials,
                                 spec.seed, "sweep-budget/random")
    for k in budgets:
        rows.append((k, "random", spec.sweep.trials, rmeans[k], rstds[k]))
    header = ["budget", "strategy", "trials", "accuracy_mean", "accuracy_std"]
    write_csv(os.path.join(out_dir, "budget_sweep.csv"), header, rows)
    write_manifest(out_dir, spec, ["budget_sweep.csv"])
    return rows


def _nonsensitive_counts(scorer: MaskScorer) -> np.ndarray:
    """Non-sensitive tokens per example of the scorer's split."""
    return np.bincount(scorer.seg[~scorer.sensitive], minlength=scorer.labels.size)


def _min_tokens_to_peak(ks, curve) -> tuple:
    peak = max(curve[k] for k in ks)
    return next(k for k in ks if curve[k] >= peak - 1e-12), peak


def run_distance_sweep(spec: ExperimentSpec, out_dir: str):
    """Per distance: median token budget (drawn before any checkpoint is
    read), then the minimum budget each strategy needs to reach its own
    peak accuracy within that budget."""
    base = spec.channel.params(spec.model.d)
    m_uls = []
    for di, dist in enumerate(spec.sweep.distances):
        params = replace(base, d_c_m=float(dist))
        rng = RngStream(spec.seed, f"sweep-distance/channel/d{di}")
        m_uls.append(int(np.median(ch.budget_samples(params, rng, spec.sweep.channel_draws))))
    bundle, model, predictor = _load_artifacts(spec, out_dir, predictor=True)
    scorer = MaskScorer(model, bundle.test)
    max_ns = int(_nonsensitive_counts(scorer).max())
    k_maxes = [min(m_ul, max_ns) for m_ul in m_uls]
    # one top-k curve up to the largest budget; each distance reads its prefix
    topk = topk_curve(scorer, predictor, range(max(k_maxes, default=0) + 1))
    rows = []
    for di, (dist, m_ul, k_max) in enumerate(zip(spec.sweep.distances, m_uls, k_maxes)):
        ks = list(range(0, k_max + 1))
        rmeans, _ = random_curve(scorer, ks, spec.sweep.trials,
                                 spec.seed, f"sweep-distance/random/d{di}")
        for strategy, curve in (("topk", topk), ("random", rmeans)):
            k_req, peak = _min_tokens_to_peak(ks, curve)
            rows.append((float(dist), m_ul, strategy, k_req, peak))
    header = ["distance_m", "m_ul_median", "strategy", "tokens_required", "accuracy"]
    write_csv(os.path.join(out_dir, "distance_sweep.csv"), header, rows)
    write_manifest(out_dir, spec, ["distance_sweep.csv"])
    return rows


def run_target_accuracy(spec: ExperimentSpec, out_dir: str):
    """Smallest per-example budget reaching each target accuracy."""
    bundle, model, predictor = _load_artifacts(spec, out_dir, predictor=True)
    scorer = MaskScorer(model, bundle.test)
    n_ns = _nonsensitive_counts(scorer)
    ks = list(range(0, int(n_ns.max()) + 1))
    topk = topk_curve(scorer, predictor, ks)
    rmeans, _ = random_curve(scorer, ks, spec.sweep.trials, spec.seed,
                             "target-accuracy/random")
    rows = []
    for target in spec.sweep.targets:
        for strategy, curve in (("topk", topk), ("random", rmeans)):
            k_req = next((k for k in ks if curve[k] >= float(target)), None)
            if k_req is None:
                rows.append((float(target), strategy, -1, 0, -1.0, -1.0))
            else:
                rows.append((float(target), strategy, k_req, 1,
                             float(np.mean(np.minimum(k_req, n_ns))), curve[k_req]))
    header = ["target", "strategy", "tokens_required", "reachable",
              "mean_tokens_used", "accuracy"]
    write_csv(os.path.join(out_dir, "target_accuracy.csv"), header, rows)
    write_manifest(out_dir, spec, ["target_accuracy.csv"])
    return rows


def run_channel_probe(spec: ExperimentSpec, out=print):
    params = spec.channel.params(spec.model.d)
    rng = RngStream(spec.seed, "channel-probe")
    real = ch.draw_realization(params, rng, deterministic=spec.channel.deterministic)
    snr_db = 10.0 * np.log10(real.snr) if real.snr > 0 else float("-inf")
    out(f"path_loss_db = {real.pl_db:.4f}")
    out(f"shadowing_psi = {real.psi:.6g}")
    out(f"fading_chi = {real.chi:.6g}")
    out(f"snr_db = {snr_db:.4f}")
    out(f"rate_bps = {real.rate_bps:.6g}")
    out(f"m_ul = {real.m_ul}")
    return real
