"""Token offloading: choose which non-sensitive tokens to transmit under a
per-example uplink budget.

Strategies: predictor-score top-k, uniform random (baseline), exhaustive
enumeration (oracle, tiny instances only), and send-all.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .rng import RngStream

ORACLE_MAX_TOKENS = 12


@dataclass
class OffloadDecision:
    selected: list
    dropped: list
    budget: int
    strategy: str

    def __post_init__(self):
        self.selected = sorted(self.selected)
        self.dropped = sorted(self.dropped)
        if len(self.selected) > self.budget:
            raise ValueError(
                f"decision exceeds budget: {len(self.selected)} > {self.budget}"
            )
        if set(self.selected) & set(self.dropped):
            raise ValueError("selected and dropped overlap")


def _nonsensitive(mask: Sequence[int]) -> list:
    return [i for i, m in enumerate(mask) if m == 0]


def _decision(ns: list, chosen, budget: int, strategy: str) -> OffloadDecision:
    kept = set(chosen)
    return OffloadDecision(selected=chosen, dropped=[i for i in ns if i not in kept],
                           budget=budget, strategy=strategy)


def select_all(mask: Sequence[int]) -> OffloadDecision:
    ns = _nonsensitive(mask)
    return OffloadDecision(selected=ns, dropped=[], budget=len(ns), strategy="all")


def select_topk(scores, mask: Sequence[int], budget: int) -> OffloadDecision:
    """Highest-scoring non-sensitive tokens, ties broken by lower index."""
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    scores = np.asarray(getattr(scores, "data", scores), dtype=float).reshape(-1)
    ns = _nonsensitive(mask)
    k = min(budget, len(ns))
    # sort by (-score, index): stable deterministic ranking
    ranked = sorted(ns, key=lambda i: (-scores[i], i))
    return _decision(ns, ranked[:k], budget, "topk")


def select_random(mask: Sequence[int], budget: int, rng: RngStream) -> OffloadDecision:
    """Uniform sample without replacement from the non-sensitive tokens."""
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    ns = _nonsensitive(mask)
    k = min(budget, len(ns))
    chosen = sorted(int(i) for i in rng.choice(ns, size=k, replace=False)) if k else []
    return _decision(ns, chosen, budget, "random")


def brute_force_oracle(
    confidence_fn: Callable[[tuple], float],
    mask: Sequence[int],
    budget: int,
) -> tuple:
    """Exhaustively maximize confidence over subsets of non-sensitive tokens.

    confidence_fn receives a sorted tuple of selected indices and returns the
    model's true-label confidence for that partial sequence. Returns the best
    (OffloadDecision, confidence). Deterministic: ties keep the first subset
    in size-then-lexicographic enumeration order.
    """
    ns = _nonsensitive(mask)
    if len(ns) > ORACLE_MAX_TOKENS:
        raise ValueError(
            f"oracle instance too large: {len(ns)} non-sensitive tokens "
            f"(bound {ORACLE_MAX_TOKENS})"
        )
    best_subset: tuple = ()
    best_conf = -float("inf")
    for k in range(0, min(budget, len(ns)) + 1):
        for subset in itertools.combinations(ns, k):
            conf = confidence_fn(subset)
            if conf > best_conf:
                best_conf = conf
                best_subset = subset
    return _decision(ns, best_subset, budget, "oracle"), best_conf
