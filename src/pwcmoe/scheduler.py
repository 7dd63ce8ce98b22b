"""Token offloading: choose which non-sensitive tokens to transmit under a
per-example uplink budget.

The client ranks its non-sensitive tokens by predicted importance and
uplinks the highest-scored ones; `rank_tokens` ranks one request or a packed
split, whose uniform random baseline is a rank array in `harness.random_ranks`.
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


def rank_tokens(key, sensitive, seg, starts) -> np.ndarray:
    """Rank of each token within its example, for tokens packed example
    after example (`seg` the example of each token, `starts` the first token
    of each example): the non-sensitive tokens by ascending `key`, equal
    keys (0.0 and -0.0 too) to the lower position, then the sensitive ones."""
    order = np.lexsort((key, sensitive, seg))
    rank = np.empty(order.size, dtype=np.intp)
    rank[order] = np.arange(order.size) - starts[seg[order]]
    return rank


def select_topk(scores, mask: Sequence[int], budget: int) -> OffloadDecision:
    """The non-sensitive tokens of one example that `rank_tokens` ranks below
    `budget` by descending score (ties to the lower index)."""
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    s = np.asarray(getattr(scores, "data", scores), dtype=float).reshape(-1)
    sensitive = np.asarray(mask) != 0
    rank = rank_tokens(-s, sensitive, np.zeros(s.size, dtype=np.intp), np.array([0]))
    return OffloadDecision(np.flatnonzero(~sensitive & (rank < budget)).tolist(), budget)
