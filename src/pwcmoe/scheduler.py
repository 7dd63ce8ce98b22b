"""Token offloading: choose which non-sensitive tokens to transmit under a
per-example uplink budget.

The client ranks its non-sensitive tokens by predicted importance and
uplinks the highest-scored ones; the uniform random baseline is a rank array
in `harness.random_ranks`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


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
