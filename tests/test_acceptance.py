"""End-to-end acceptance suite.

Each test exercises one system-level guarantee and prints a single pass/fail
line. The heavyweight fixtures (trained classifier, load-balancing control
run, trained importance predictor) are session-scoped and shared.
"""

import os

import numpy as np
import pytest

from pwcmoe import channel as ch
from pwcmoe import cli, config, harness, moe, predictor, scheduler
from pwcmoe import tensor as T
from pwcmoe.corpus import TokenSequence
from pwcmoe.rng import RngStream
from pwcmoe.tensor import Tensor

from conftest import (finite_difference_check, positions, reference_random_means,
                      reference_topk_accuracy)

SEED = 0


def report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:2d} [{status}] {desc}{suffix}")
    assert ok, f"criterion {num} failed: {desc}{suffix}"


def main_spec(lambda_lb=0.01):
    spec = config.ExperimentSpec(seed=SEED)
    spec.model.d = 32
    spec.model.expert_hidden = 64
    spec.model.learning_rate = 0.05
    spec.model.lambda_lb = lambda_lb
    spec.predictor.epochs = 10
    return spec


@pytest.fixture(scope="session")
def bundle():
    return harness.prepare_data(main_spec())


@pytest.fixture(scope="session")
def trained(bundle):
    spec = main_spec()
    model = harness.build_model(spec, bundle)
    trace = moe.train_model(model, bundle.train, bundle.test, spec.seed)
    return model, trace


@pytest.fixture(scope="session")
def control(bundle):
    spec = main_spec(lambda_lb=0.0)
    model = harness.build_model(spec, bundle)
    moe.train_model(model, bundle.train, bundle.test, spec.seed)
    return model


@pytest.fixture(scope="session")
def importance(bundle, trained):
    model, _ = trained
    spec = main_spec()
    records = predictor.collect_dataset(model, bundle.train)
    pred, trace = predictor.train_predictor(records, harness.predictor_config(spec),
                                            spec.seed)
    return pred, records, trace


def make_seq(ids, mask):
    return TokenSequence(ids=list(ids), mask=list(mask),
                         tokens=[f"t{i}" for i in ids])


# -- 1. gradient integrity -------------------------------------------------

def test_criterion_01_gradient_integrity():
    cfg = moe.MoEConfig(vocab_size=10, num_classes=3, d=4, num_experts=3,
                        num_privacy_experts=1, expert_hidden=5, lambda_lb=0.01)
    model = moe.MoEModel(cfg, RngStream(1, "gradcheck"))
    seq = make_seq([2, 5, 7], [1, 0, 0])

    def moe_loss():
        loss, _ = model.loss([(seq, 1)], mode="soft")
        return loss

    worst_moe = finite_difference_check(moe_loss, model.parameters(), tol=1e-3)

    # the hard straight-through path must agree exactly with the soft
    # probabilities in the backward pass
    x = Tensor(np.array([0.3, 1.2, -0.4]), requires_grad=True)
    z = T.softmax(x)
    out = T.straight_through(z, np.array([0.0, 1.0, 0.0]))
    w = np.array([0.7, -0.1, 0.4])
    T.backward(T.tsum(out * w))
    x2 = Tensor(np.array([0.3, 1.2, -0.4]), requires_grad=True)
    T.backward(T.tsum(T.softmax(x2) * w))
    st_exact = np.array_equal(x.grad, x2.grad)

    pcfg = predictor.PredictorConfig(d=4, proj_dim=4, layers=1, heads=2)
    pred = predictor.ImportancePredictor(pcfg, RngStream(2, "gradcheck"))
    rng = np.random.default_rng(0)
    emb = rng.normal(size=(3, 4))
    alpha = rng.dirichlet(np.ones(3))
    worst_pred = finite_difference_check(
        lambda: predictor.kl_loss(alpha, pred.predict(emb)),
        pred.parameters(), tol=1e-3)

    report(1, "gradient integrity (finite differences, tiny configs)",
           worst_moe <= 1e-3 and worst_pred <= 1e-3 and st_exact,
           f"worst rel err moe {worst_moe:.2e}, predictor {worst_pred:.2e}")


# -- 2. privacy isolation --------------------------------------------------

def test_criterion_02_privacy_isolation():
    cfg = moe.MoEConfig(vocab_size=50, num_classes=4, d=32, num_experts=8,
                        num_privacy_experts=2, expert_hidden=64)
    model = moe.MoEModel(cfg, RngStream(3, "isolation"))
    rng = RngStream(4, "isolation-data")
    n_seq = 10_000
    lengths = 1 + rng.integers(0, 16, n_seq)
    ids = rng.integers(0, 50, int(lengths.sum()))
    mask = (rng.uniform(int(lengths.sum())) < 0.5).astype(int)

    with T.no_grad():
        h = T.gather_rows(model.embedding, ids)
        g = moe.gate_logits(h, model.w_g, model.b_g)
        g_prime = moe.apply_privacy_isolation(g, mask, cfg.num_privacy_experts)
        gamma = rng.gumbel((len(ids), cfg.num_experts))
        z = moe.gumbel_softmax(g_prime, cfg.tau, gamma)
        routed, assign = moe.hard_select(z, g_prime, gamma)

    k_p = cfg.num_privacy_experts
    sens = mask == 1
    soft_ok = (np.all(z.data[sens, k_p:] == 0.0)
               and np.all(z.data[~sens, :k_p] == 0.0))
    hard_ok = (np.all(assign[sens] < k_p) and np.all(assign[~sens] >= k_p)
               and np.all(routed.data[sens, k_p:] == 0.0)
               and np.all(routed.data[~sens, :k_p] == 0.0))
    report(2, "privacy isolation (10^4 sequences, soft and hard routing)",
           soft_ok and hard_ok,
           f"{n_seq} sequences, {len(ids)} tokens, 0 violations")


# -- 3. channel statistics -------------------------------------------------

def test_criterion_03_channel_statistics():
    n = 10**6
    psi = ch.sample_shadowing(RngStream(5, "accept/shadowing"), 7.8, size=n)
    std_db = float((10.0 * np.log10(psi)).std())
    chi = ch.sample_fading(RngStream(6, "accept/fading"), size=n)
    mean_chi = float(chi.mean())
    median_chi = float(np.median(chi))

    params = ch.ChannelParams()
    real = ch.draw_realization(params, RngStream(0, "x"), deterministic=True)
    snr_db = 10.0 * np.log10(real.snr)

    ok = (abs(std_db - 7.8) <= 0.05
          and abs(mean_chi - 1.0) <= 0.01
          and abs(median_chi - np.log(2.0)) <= 0.01
          and abs(real.pl_db - 100.004) <= 0.001
          and abs(snr_db - 27.0) <= 0.05)
    report(3, "channel statistics (10^6 draws + deterministic hand chain)", ok,
           f"shadow std {std_db:.3f} dB, fading mean {mean_chi:.4f}, "
           f"median {median_chi:.4f}, PL {real.pl_db:.4f} dB, SNR {snr_db:.3f} dB")


# -- 4. training convergence -----------------------------------------------

def test_criterion_04_training_convergence(trained):
    _, trace = trained
    acc = np.asarray(trace.test_accuracy)
    reached = bool(np.any(acc >= 0.90))
    tail_std = float(acc[-10:].std())
    report(4, "training convergence (>=0.90 within 40 rounds, stable tail)",
           reached and tail_std <= 0.01,
           f"final acc {acc[-1]:.4f}, last-10 std {tail_std:.4f}")


# -- 5. load balancing -----------------------------------------------------

def test_criterion_05_load_balancing(trained, control, bundle):
    model, _ = trained
    k_p = model.config.num_privacy_experts
    usage = moe.soft_expert_usage(model, bundle.test)
    r_p, r_np = moe.group_usage_ratio(usage, k_p)
    usage0 = moe.soft_expert_usage(control, bundle.test)
    c_p, c_np = moe.group_usage_ratio(usage0, k_p)
    ok = r_p <= 3.0 and r_np <= 3.0 and r_p < c_p and r_np < c_np
    report(5, "load balancing (usage ratios <= 3 and < unregularized control)",
           ok, f"ratios ({r_p:.3f}, {r_np:.3f}) vs control ({c_p:.3f}, {c_np:.3f})")


# -- 6. predictor dominance ------------------------------------------------

def test_criterion_06_predictor_dominance(trained, importance, bundle):
    model, _ = trained
    pred, _, _ = importance
    full_acc = moe.evaluate(model, bundle.test)
    ks = list(range(1, 11))
    topk = {k: reference_topk_accuracy(model, pred, bundle.test, k) for k in ks}
    rmeans = reference_random_means(model, bundle.test, ks, 5, SEED, "accept/random")
    dominance = all(topk[k] >= rmeans[k] for k in ks)
    near_full = abs(topk[5] - full_acc) <= 0.01
    report(6, "predictor dominance (top-k >= random at every budget, k=5 ~ full)",
           dominance and near_full,
           f"k=1: {topk[1]:.3f} vs {rmeans[1]:.3f}; k=5: {topk[5]:.4f} "
           f"vs full {full_acc:.4f}")


# -- 7. token-efficiency orderings -----------------------------------------

def test_criterion_07_token_efficiency(trained, importance, tmp_path):
    model, _ = trained
    pred, _, _ = importance
    spec = main_spec()
    spec.sweep.trials = 3
    spec.sweep.distances = [100.0, 400.0, 1600.0, 6400.0, 25600.0]
    spec.sweep.targets = [0.5, 0.7, 0.9, 0.99]
    out = str(tmp_path)
    moe.save_model(model, os.path.join(out, spec.model.checkpoint))
    predictor.save_predictor(pred, os.path.join(out, spec.predictor.checkpoint))

    drows = harness.run_distance_sweep(spec, out)
    m_uls = [r[1] for r in drows[::2]]
    m_ul_monotone = m_uls == sorted(m_uls, reverse=True)
    by_dist = {}
    for dist, _, strategy, k_req, _ in drows:
        by_dist.setdefault(dist, {})[strategy] = k_req
    peak_ordering = all(v["topk"] <= v["random"] for v in by_dist.values())

    trows = harness.run_target_accuracy(spec, out)
    by_target = {}
    for target, strategy, k_req, reachable, _, _ in trows:
        by_target.setdefault(target, {})[strategy] = (reachable, k_req)
    target_ordering = True
    for target, v in by_target.items():
        r_reach, r_k = v["random"]
        t_reach, t_k = v["topk"]
        if r_reach and not (t_reach and t_k <= r_k):
            target_ordering = False

    report(7, "token-efficiency orderings (targets, distances, peaks)",
           m_ul_monotone and peak_ordering and target_ordering,
           f"median budgets {m_uls}")


# -- 8. oracle gap ---------------------------------------------------------

def test_criterion_08_oracle_gap(trained, importance, bundle):
    model, _ = trained
    pred, _, _ = importance
    budget = 3
    rng = RngStream(SEED, "accept/oracle-random")
    gaps, feasible, dominated = [], True, True
    checked = 0
    for i, (seq, label) in enumerate(bundle.test):
        if checked >= 50:
            break
        if len(positions(seq, False)) > 10:
            continue
        sens = positions(seq, True)

        def conf(subset):
            active = sorted(set(sens) | set(subset))
            if not active:
                return 0.0
            with T.no_grad():
                res = model.forward(seq, active=np.asarray(active), mode="eval")
            return float(res.probs()[label])

        oracle_dec, oracle_conf = scheduler.brute_force_oracle(conf, seq.mask, budget)
        emb = model.embedding.data[np.asarray(seq.ids)]
        topk_dec = scheduler.select_topk(pred.scores_np(emb), seq.mask, budget)
        rand_dec = scheduler.select_random(seq.mask, budget, rng)
        for dec in (oracle_dec, topk_dec, rand_dec):
            if len(dec.selected) > budget:
                feasible = False
        topk_conf = conf(tuple(topk_dec.selected))
        if oracle_conf < topk_conf - 1e-9 or \
                oracle_conf < conf(tuple(rand_dec.selected)) - 1e-9:
            dominated = False
        gaps.append(oracle_conf - topk_conf)
        checked += 1

    mean_gap = float(np.mean(gaps))
    report(8, "oracle gap (feasibility and confidence dominance, 50 examples)",
           checked == 50 and feasible and dominated,
           f"mean oracle-vs-predictor confidence gap {mean_gap:.4f}")


# -- 9. determinism --------------------------------------------------------

def test_criterion_09_determinism(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        "seed = 7\n"
        "data.synth_train = 60\ndata.synth_test = 24\n"
        "model.d = 8\nmodel.experts = 4\nmodel.privacy_experts = 1\n"
        "model.expert_hidden = 12\nmodel.learning_rate = 0.05\nmodel.epochs = 2\n"
        "predictor.proj_dim = 8\npredictor.heads = 2\npredictor.layers = 1\n"
        "predictor.epochs = 2\n"
        "sweep.budgets = 1,3\nsweep.trials = 2\nsweep.channel_draws = 200\n"
    )
    outs = [str(tmp_path / name) for name in ("a", "b")]
    for out in outs:
        assert cli.run(["train", "--config", str(cfg), "--out", out]) == 0
        assert cli.run(["train-predictor", "--config", str(cfg), "--out", out]) == 0
        assert cli.run(["sweep-budget", "--config", str(cfg), "--out", out]) == 0
    files = ["model.pwcm", "predictor.pwcp", "train_metrics.csv",
             "predictor_metrics.csv", "budget_sweep.csv", "run-manifest.txt"]
    identical = all(
        open(os.path.join(outs[0], f), "rb").read()
        == open(os.path.join(outs[1], f), "rb").read()
        for f in files)
    report(9, "determinism (repeated CLI runs byte-identical)", identical,
           f"{len(files)} artifacts compared")


# -- 10. KL correctness ----------------------------------------------------

def test_criterion_10_kl_correctness():
    p = T.softmax(Tensor(np.array([0.4, -1.2, 2.0]))).data
    exact_zero = predictor.kl_loss(p, Tensor(p.reshape(-1, 1))).item() == 0.0
    hand = predictor.kl_loss(np.array([0.5, 0.5]),
                             Tensor(np.array([[0.25], [0.75]]))).item()
    ok = exact_zero and abs(hand - 0.1438) <= 1e-4
    report(10, "KL correctness (self-KL exactly zero, hand value)", ok,
           f"hand case {hand:.6f}")
