"""Reference computations the benchmark checks the program's outputs against.

Nothing here imports the program: each function restates, from the paper's
definitions, what an output must be, so that a fault in the program cannot
hide in the check as well. numpy and the standard library only.
"""

from __future__ import annotations

import math

import numpy as np


def is_sensitive(token: str) -> bool:
    """A token is sensitive iff its surface form holds a decimal digit."""
    return any("0" <= ch <= "9" for ch in token)


def sensitive_positions(tokens) -> list:
    return [i for i, t in enumerate(tokens) if is_sensitive(t)]


def nonsensitive_positions(tokens) -> list:
    return [i for i, t in enumerate(tokens) if not is_sensitive(t)]


def path_loss_db(f_c_ghz: float, d_m: float) -> float:
    """NLoS urban path loss, 32.4 + 20 log10 f[GHz] + 30 log10 d[m]."""
    return 32.4 + 20.0 * math.log10(f_c_ghz) + 30.0 * math.log10(d_m)


def token_budget(cfg: dict, d_m: float, psi: float, chi: float) -> tuple:
    """Uplink token budget floor(T_ul * W * log2(1 + SNR) / b_token) for one
    draw with shadowing `psi` and fading `chi`.

    `cfg` holds the channel keys of the config file (without the `channel.`
    prefix) and `d` (the model width, which sets the token payload when
    `bits_per_token` is 0). Returns (budget, unfloored value), so a caller can
    tell a value that sits on an integer boundary.
    """
    gain = 10.0 ** (-path_loss_db(cfg["f_c_ghz"], d_m) / 10.0) * psi * chi
    p_mw = 10.0 ** (cfg["tx_power_dbm"] / 10.0)
    noise_mw = 10.0 ** (cfg["noise_psd_dbm_hz"] / 10.0) * cfg["bandwidth_hz"]
    snr = p_mw * gain / noise_mw
    bits = cfg["bits_per_token"] or cfg["d"] * cfg["bits_per_value"]
    x = cfg["t_ul_s"] * cfg["bandwidth_hz"] * math.log2(1.0 + snr) / bits
    return math.floor(x), x


def budget_matches(m_ul: int, x: float, tol: float = 1e-9) -> bool:
    """True when `m_ul` is floor(x), or x lies within `tol` (relative) of an
    integer and `m_ul` is either neighbour."""
    if m_ul == math.floor(x):
        return True
    nearest = round(x)
    return abs(x - nearest) <= tol * max(1.0, abs(x)) and m_ul in (nearest - 1, nearest)


def topk_selection(scores, tokens, budget: int) -> list:
    """The min(budget, n_ns) non-sensitive positions with the highest score,
    ties to the lower position, returned in increasing position order."""
    ns = nonsensitive_positions(tokens)
    ranked = sorted(ns, key=lambda i: (-float(scores[i]), i))
    return sorted(ranked[:min(budget, len(ns))])


def active_positions(tokens, selected) -> list:
    """Tokens the classifier sees: every sensitive one plus the selected."""
    return sorted(set(sensitive_positions(tokens)) | set(selected))


def softmax(logits) -> np.ndarray:
    x = np.asarray(logits, dtype=np.float64).reshape(-1)
    e = np.exp(x - x.max())
    return e / e.sum()


def top_two_gap(logits) -> float:
    """Distance between the two largest logits (inf for a single class)."""
    x = np.sort(np.asarray(logits, dtype=np.float64).reshape(-1))
    return float(x[-1] - x[-2]) if x.size > 1 else math.inf


def nearest_rank(values, q: float) -> float:
    """The q-quantile (0 < q <= 1) by the nearest-rank rule: the smallest
    sample with at least a share q of the samples at or below it."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    return xs[max(0, math.ceil(q * len(xs)) - 1)]


def first_reaching(budgets, accuracies, target: float):
    """First budget (in the given order) whose accuracy reaches `target`."""
    for k, acc in zip(budgets, accuracies):
        if acc >= target:
            return k
    return None
