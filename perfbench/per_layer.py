"""Per-layer metrics of the traced run, read from the tracer's spans and
counters. Every value is given per round of the workload's own phase (a
train round, a sweep round, one pass over the serve requests), except the
ratios, so that counts repeat exactly from run to run.

Which end-to-end metric each one should move, and on which workload, is
tabled in README.md.
"""

from __future__ import annotations

import os

# (span name, statistic): the statistic is calls, s (inclusive seconds),
# self_s (seconds minus child spans), or a counter added by an extra below.
_SPAN_STATS = [
    ("cli.train", "s"), ("cli.train-predictor", "s"), ("cli.eval", "s"),
    ("cli.sweep-budget", "s"), ("cli.target-accuracy", "s"), ("cli.sweep-distance", "s"),
    ("harness.prepare_data", "calls"), ("harness.prepare_data", "s"),
    ("harness.accuracy_at_budget", "calls"), ("harness.accuracy_at_budget", "self_s"),
    ("harness.collaborative_forward", "calls"), ("harness.collaborative_forward", "self_s"),
    ("harness.collaborative_forward", "failed"),
    ("moe.batch_forward", "calls"), ("moe.batch_forward", "s"), ("moe.batch_forward", "tokens"),
    ("moe.train_model", "self_s"),
    ("moe.evaluate", "calls"), ("moe.evaluate", "self_s"),
    ("moe.active_set", "calls"), ("moe.active_set", "s"),
    ("moe.MoEModel.forward", "calls"), ("moe.MoEModel.forward", "s"),
    ("moe.MoEModel.route_hard", "calls"), ("moe.MoEModel.route_hard", "s"),
    ("tensor.backward", "calls"), ("tensor.backward", "s"),
    ("tensor.matmul", "calls"), ("tensor.matmul", "s"),
    ("tensor.softmax", "calls"), ("tensor.softmax", "s"),
    ("tensor.layer_norm", "calls"), ("tensor.layer_norm", "s"),
    ("tensor.gather_rows", "calls"), ("tensor.gather_rows", "s"),
    ("tensor.scatter_rows", "calls"), ("tensor.scatter_rows", "s"),
    ("tensor.narrow", "calls"), ("tensor.narrow", "s"),
    ("tensor.concat", "calls"), ("tensor.concat", "s"),
    ("predictor.ImportancePredictor.predict", "calls"),
    ("predictor.ImportancePredictor.predict", "s"),
    ("predictor.ImportancePredictor.predict", "tokens"),
    ("predictor.kl_loss", "calls"), ("predictor.kl_loss", "s"),
    ("predictor.collect_dataset", "s"),
    ("predictor.ImportancePredictor.scores_np", "calls"),
    ("scheduler.select_topk", "calls"), ("scheduler.select_topk", "s"),
    ("scheduler.select_random", "calls"), ("scheduler.select_random", "s"),
    ("channel.draw_realization", "calls"), ("channel.draw_realization", "s"),
    ("channel.budget_samples", "calls"), ("channel.budget_samples", "s"),
    ("checkpoint.save_container", "calls"), ("checkpoint.save_container", "s"),
    ("checkpoint.save_container", "bytes"),
    ("checkpoint.load_container", "calls"), ("checkpoint.load_container", "s"),
    ("corpus.tokenize", "calls"), ("corpus.tokenize", "s"),
]
_UNITS = {"calls": "count", "s": "s", "self_s": "s", "failed": "count",
          "tokens": "count", "bytes": "B"}

# (name, unit, better) for every per-layer metric, in output order
PER_LAYER = [(f"{span}.{stat}", _UNITS[stat], "lower") for span, stat in _SPAN_STATS] + [
    ("tensor.ops.calls_per_record", "count", "lower"),
    ("predictor.ImportancePredictor.scores_np.unique_share", "fraction", "higher"),
    ("scheduler.uplink_tokens", "count", "lower"),
    ("predictor.train_predictor.final_kl", "nats", "lower"),
    ("trace.overhead", "fraction", "lower"),
]


def extras() -> dict:
    """Callbacks, by span name, that add counters after a call returns."""
    seen = set()

    def batch_tokens(tr, args, kwargs, out):
        batch = args[1] if len(args) > 1 else kwargs["batch"]
        tr.count("moe.batch_forward.tokens", sum(seq.length for seq, _ in batch))

    def predict_tokens(tr, args, kwargs, out):
        emb = args[1] if len(args) > 1 else kwargs["embeddings"]
        tr.count("predictor.ImportancePredictor.predict.tokens", emb.shape[0])

    def scored(tr, args, kwargs, out):
        # distinct within one serve request, or within one round elsewhere
        key = (tr.round_index, tr.request_id, args[1].tobytes())
        if key not in seen:
            seen.add(key)
            tr.count("predictor.ImportancePredictor.scores_np.distinct")

    def saved_bytes(tr, args, kwargs, out):
        path = args[0] if args else kwargs["path"]
        tr.count("checkpoint.save_container.bytes", os.path.getsize(path))

    def uplinked(tr, args, kwargs, out):
        decision = args[2] if len(args) > 2 else kwargs["decision"]
        tr.count("scheduler.uplink_tokens", len(decision.selected))

    return {"moe.batch_forward": batch_tokens,
            "predictor.ImportancePredictor.predict": predict_tokens,
            "predictor.ImportancePredictor.scores_np": scored,
            "checkpoint.save_container": saved_bytes,
            "harness.collaborative_forward": uplinked}


def metrics(tracer, rounds: int, distilled_records_per_round: int) -> dict:
    out = {}
    for span, stat in _SPAN_STATS:
        if stat == "calls":
            v = tracer.calls(span)
        elif stat == "s":
            v = tracer.seconds(span)
        elif stat == "self_s":
            v = tracer.self_seconds(span)
        else:
            v = tracer.counters.get(f"{span}.{stat}", 0)
        out[f"{span}.{stat}"] = v / rounds
    ops = tracer.counters.get("tensor.ops.train-predictor", 0)
    out["tensor.ops.calls_per_record"] = (
        ops / (rounds * distilled_records_per_round) if ops else 0.0)
    calls = tracer.calls("predictor.ImportancePredictor.scores_np")
    distinct = tracer.counters.get("predictor.ImportancePredictor.scores_np.distinct", 0)
    out["predictor.ImportancePredictor.scores_np.unique_share"] = (
        distinct / calls if calls else 1.0)
    out["scheduler.uplink_tokens"] = tracer.counters.get("scheduler.uplink_tokens", 0) / rounds
    return out
