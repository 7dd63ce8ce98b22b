"""Token offloading: choose which non-sensitive tokens to transmit under a
per-example uplink budget.

Strategies: predictor-score top-k, uniform random (baseline) and exhaustive
enumeration (oracle, tiny instances only).
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
    """The non-sensitive tokens a client uplinks, sorted, within `budget`."""
    selected: list
    budget: int

    def __post_init__(self):
        self.selected = sorted(self.selected)
        if len(self.selected) > self.budget:
            raise ValueError(
                f"decision exceeds budget: {len(self.selected)} > {self.budget}"
            )


def topk_order(scores, mask: Sequence[int]) -> list:
    """Positions of the non-sensitive tokens, highest score first; equal
    scores go to the lower position."""
    s = np.asarray(getattr(scores, "data", scores), dtype=float).reshape(-1)
    ns = (np.asarray(mask) == 0).nonzero()[0]
    # a stable sort keeps equal scores (0.0 and -0.0 too) in position order
    return ns[(-s[ns]).argsort(kind="stable")].tolist()


def select_topk(scores, mask: Sequence[int], budget: int) -> OffloadDecision:
    """Highest-scoring non-sensitive tokens, ties broken by lower index."""
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    return OffloadDecision(topk_order(scores, mask)[:budget], budget)


def select_random(mask: Sequence[int], budget: int, rng: RngStream) -> OffloadDecision:
    """Uniform sample without replacement from the non-sensitive tokens: one
    uniform key per token from `rng`, the `budget` lowest-keyed
    non-sensitive tokens taken. Every call draws `len(mask)` keys."""
    return select_topk(-rng.uniform(len(mask)), mask, budget)


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
    ns = [i for i, m in enumerate(mask) if m == 0]
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
    return OffloadDecision(best_subset, budget), best_conf
