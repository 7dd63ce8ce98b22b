import functools

import numpy as np
import pytest

from pwcmoe import moe, scheduler
from pwcmoe import tensor as T
from pwcmoe.rng import RngStream


def positions(seq, sensitive: bool) -> list:
    """The positions of `seq`'s sensitive (or non-sensitive) tokens."""
    return [i for i, m in enumerate(seq.mask) if m == int(sensitive)]


def finite_difference_check(loss_fn, params, step=1e-5, tol=1e-4):
    """Compare analytic gradients of loss_fn() against central differences.

    loss_fn builds the loss from the current parameter values; params is a
    dict name -> Tensor. Each perturbed value is a new array assigned to
    `p.data`, as training assigns its steps: parameters are never written in
    place (`T.Module`). Returns the worst relative error seen.
    """
    for p in params.values():
        p.zero_grad()
    loss = loss_fn()
    T.backward(loss)
    worst = 0.0
    for name, p in params.items():
        grad = p.grad if p.grad is not None else np.zeros_like(p.data)
        orig = p.data
        gflat = grad.reshape(-1)
        for i in range(orig.size):
            losses = []
            for delta in (step, -step):
                moved = orig.copy()
                moved.reshape(-1)[i] += delta
                p.data = moved
                with T.no_grad():
                    losses.append(loss_fn().item())
            p.data = orig
            fd = (losses[0] - losses[1]) / (2 * step)
            # floor keeps central-difference roundoff (~1e-11) from dominating
            # the comparison when the true gradient is essentially zero
            rel = abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-6)
            worst = max(worst, rel)
            assert rel <= tol, f"{name}[{i}]: analytic {gflat[i]} vs fd {fd} (rel {rel:.2e})"
    return worst


@pytest.fixture
def fd_check():
    return finite_difference_check


def pair_loss(model, pairs, rng):
    """`MoEModel.loss` over a list of (seq, label) pairs, packed by `moe.pack`."""
    ids, mask, seg, _ = moe.pack(pairs)
    return model.loss(ids, mask, seg, [label for _, label in pairs], rng)


def record_calls(monkeypatch, obj, name) -> list:
    """Wrap `obj.name` so that each call appends (args, result) to the
    returned list; on a class, args start with the instance."""
    calls, method = [], getattr(obj, name)

    def recording(*args):
        out = method(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(obj, name, recording)
    return calls


def soft_loss(model, pairs):
    """`MoEModel.loss` over (seq, label) pairs with dense soft routing in
    place of hard routing: no Gumbel noise, every expert runs on every token
    and the outputs are mixed by z. Differentiable everywhere, so the
    reference that finite-difference checks run on."""
    c = model.config
    ids, mask, seg, _ = moe.pack(pairs)
    h = T.gather_rows(model.embedding, ids)
    g = T.matmul(h, model.w_g) + model.b_g
    z = T.softmax(g, c.tau, moe.privacy_isolation_mask(mask, c.num_experts,
                                                        c.num_privacy_experts))
    h_prime = functools.reduce(T.add, [
        T.expert_dispatch(h, z, np.full(ids.size, j), model.experts)
        for j in range(c.num_experts)])
    logits = model.classify(h_prime, T.matmul(h_prime, model.agg_w), seg, len(pairs))
    task = T.tmean(T.cross_entropy_batch(logits, [label for _, label in pairs]))
    lb = moe.batch_load_balance(z, mask, seg, len(pairs), c.num_privacy_experts)
    return task + lb * c.lambda_lb


def pack_rows(arrays) -> tuple:
    """Per-sequence arrays packed as `moe.pack` packs sequences: their
    concatenation, the sequence of each row, and the offsets."""
    lengths = [len(a) for a in arrays]
    return (np.concatenate(arrays), np.arange(len(arrays)).repeat(lengths),
            np.array([0, *np.cumsum(lengths)]))


def select_random(mask, budget: int, rng: RngStream) -> scheduler.OffloadDecision:
    """Uniform sample without replacement from the non-sensitive tokens: one
    uniform key per token from `rng`, the `budget` lowest-keyed
    non-sensitive tokens taken. Every call draws `len(mask)` keys. The
    per-example reference for `harness.random_ranks`."""
    return scheduler.select_topk(-rng.uniform(len(mask)), mask, budget)


def soft_expert_usage(model, data) -> np.ndarray:
    """Mean soft routing mass per expert (noise-free), the usage notion the
    load-balancing loss is defined on. Each group normalized to sum 1."""
    k_p = model.config.num_privacy_experts
    with T.no_grad():
        _, z, mask, _ = moe.batch_forward(model, data)
    usage = np.zeros(model.config.num_experts)
    if np.any(mask == 1):
        up = z.data[mask == 1, :k_p].mean(axis=0)
        usage[:k_p] = up / up.sum()
    if np.any(mask == 0):
        unp = z.data[mask == 0, k_p:].mean(axis=0)
        usage[k_p:] = unp / unp.sum()
    return usage


def group_usage_ratio(usage: np.ndarray, k_p: int) -> tuple:
    """Within-group max/min usage ratios (privacy, non-privacy groups)."""
    def ratio(u):
        lo = u.min()
        return float("inf") if lo == 0 else float(u.max() / lo)
    return ratio(usage[:k_p]), ratio(usage[k_p:])


def reference_accuracy(model, data, decide):
    """Accuracy under one offload decision per example, `decide(i, seq)`,
    scored one decision at a time: each example pools
    `moe.active_set(seq, decision)` in a batched forward over those tokens
    alone. Examples with nothing to pool count as wrong."""
    pending, actives = [], []
    for i, (seq, label) in enumerate(data):
        act = moe.active_set(seq, decide(i, seq))
        if act.any():
            pending.append((seq, label))
            actives.append(act)
    correct = 0
    with T.no_grad():
        for s in range(0, len(pending), 256):
            batch = pending[s:s + 256]
            ids, mask, seg, _ = moe.pack(batch)
            res = model.forward_batch(ids, mask, seg,
                                      active=np.concatenate(actives[s:s + 256]))
            labels = np.asarray([label for _, label in batch])
            correct += int(np.sum(res.logits.data.argmax(axis=1) == labels))
    return correct / len(data)


def reference_topk_accuracy(model, predictor, data, budget):
    """`reference_accuracy` under `scheduler.select_topk` on rescored tokens."""
    def decide(i, seq):
        emb = model.embedding.data[np.asarray(seq.ids)]
        return scheduler.select_topk(predictor.scores_np(emb), seq.mask, budget)
    return reference_accuracy(model, data, decide)


def reference_random_means(model, data, budgets, trials, seed, label):
    """Mean `reference_accuracy` per budget under `select_random`.
    Trial t replays stream `{label}/trial{t}` at every budget, one
    `select_random` per example in data order."""
    means = {}
    for k in budgets:
        accs = []
        for t in range(trials):
            rng = RngStream(seed, f"{label}/trial{t}")
            accs.append(reference_accuracy(
                model, data, lambda i, seq: select_random(seq.mask, k, rng)))
        means[k] = float(np.mean(accs))
    return means
