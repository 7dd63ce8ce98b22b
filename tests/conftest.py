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
    dict name -> Tensor. Returns the worst relative error seen.
    """
    for p in params.values():
        p.zero_grad()
    loss = loss_fn()
    T.backward(loss)
    worst = 0.0
    for name, p in params.items():
        grad = p.grad if p.grad is not None else np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            with T.no_grad():
                up = loss_fn().item()
            flat[i] = orig - step
            with T.no_grad():
                down = loss_fn().item()
            flat[i] = orig
            fd = (up - down) / (2 * step)
            # floor keeps central-difference roundoff (~1e-11) from dominating
            # the comparison when the true gradient is essentially zero
            rel = abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-6)
            worst = max(worst, rel)
            assert rel <= tol, f"{name}[{i}]: analytic {gflat[i]} vs fd {fd} (rel {rel:.2e})"
    return worst


@pytest.fixture
def fd_check():
    return finite_difference_check


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
            res = model.forward_batch(batch, active=np.concatenate(actives[s:s + 256]))
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
    """Mean `reference_accuracy` per budget under `scheduler.select_random`.
    Trial t replays stream `{label}/trial{t}` at every budget, one
    `select_random` per example in data order."""
    means = {}
    for k in budgets:
        accs = []
        for t in range(trials):
            rng = RngStream(seed, f"{label}/trial{t}")
            accs.append(reference_accuracy(
                model, data, lambda i, seq: scheduler.select_random(seq.mask, k, rng)))
        means[k] = float(np.mean(accs))
    return means
