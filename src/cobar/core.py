"""Confidence-based rating prediction over the user hierarchy.

For a (user, item) query the model walks the user's leaf-to-root ancestor
chain, computes a two-sided Student-t confidence interval for the item's
mean rating inside each cluster with at least two ratings, picks the
cluster whose interval is narrowest, and blends that cluster's item mean
with the user's own mean rating:

    predicted = gamma * user_mean + (1 - gamma) * cluster_item_mean

Items with fewer than two training ratings cannot yield an interval; those
queries fall back to the user's mean, and users without training ratings
fall back to the global mean.  A user whose training ratings are all 0 has
a rating vector of norm 0, so no cosine distance and no place in the
hierarchy; such a user's queries also get the user's mean.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import stdtrit

from .clustering import Dendrogram, agglomerate
from .data import MeanStats, RatingDataset, _PredictorMixin, compute_user_stats, csr_rows


@lru_cache(maxsize=None)
def _t_critical(level: float, dof: int) -> float:
    # the kernel behind scipy's `t.ppf(p, dof)`, with the same bits
    return float(stdtrit(dof, 0.5 + level / 2.0))


class Fallback(enum.Enum):
    NONE = "none"
    SINGLE_RATING = "single_rating"
    COLD_ITEM = "cold_item"
    COLD_USER = "cold_user"
    UNCLUSTERED_USER = "unclustered_user"


@dataclass
class CobarConfig:
    gamma: float = 0.5
    confidence_level: float = 0.95

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        if not 0.0 < self.confidence_level < 1.0:
            raise ValueError(f"confidence level must be in (0, 1), got {self.confidence_level}")


@dataclass
class Prediction:
    """A predicted rating plus the provenance needed to explain it: the
    fallback that fired and, for `Fallback.NONE`, the chosen cluster's
    node, size, item mean and interval half-width."""

    value: float
    fallback: Fallback
    chosen_node: int | None = None
    cluster_size: int | None = None
    cluster_mean: float | None = None
    half_width: float | None = None
    user_mean: float | None = None


def _variance(n: int, total: float, total_sq: float, lo: float, hi: float) -> float:
    """(n-1)-denominator sample variance of an accumulator, clipped at zero.

    Exactly zero when all ratings are equal (min == max).  Off a
    binary-exact grid such as 0.5 steps the sums round, and the
    sum-of-squares formula alone gives small positive values that break
    "smaller cluster wins at equal width".
    """
    if lo == hi:
        return 0.0
    s2 = (total_sq - total * total / n) / (n - 1)
    return max(s2, 0.0)


class ClusterItemStats:
    """Per (dendrogram node, item) rating accumulators.

    Built bottom-up: each internal node's map combines its children's
    (count, sum, sum of squares, min, max) entries, the first three by sum
    and the last two by min and max, so construction costs O(total ratings
    x tree depth) instead of a from-scratch pass per node.
    """

    def __init__(self, node_maps: list[dict[int, tuple[int, float, float, float, float]]]):
        self._maps = node_maps

    def items_at(self, node: int) -> dict[int, tuple[int, float, float, float, float]]:
        return self._maps[node]


def build_item_stats(dendrogram: Dendrogram, train: RatingDataset) -> ClusterItemStats:
    """Accumulate (n, sum, sum_sq, min, max) per item for every node of the hierarchy."""
    maps: list[dict[int, tuple[int, float, float, float, float]]] = [dict() for _ in range(dendrogram.n_nodes)]
    rows = csr_rows(train.users, train.items, train.ratings, train.n_users, train.n_items)
    indptr, indices, data = (a.tolist() for a in rows)
    for leaf, user in enumerate(dendrogram.leaf_users.tolist()):
        lo, hi = indptr[user], indptr[user + 1]
        # one float object serves as the sum, the min and the max
        maps[leaf] = {i: (1, r, r * r, r, r) for i, r in zip(indices[lo:hi], data[lo:hi])}
    for m, (left, right) in enumerate(dendrogram.merges):
        a, b = maps[int(left)], maps[int(right)]
        if len(b) > len(a):
            a, b = b, a
        merged = dict(a)
        for item, entry in b.items():
            cur = merged.get(item)
            if cur is None:
                merged[item] = entry
            else:
                n2, s2, q2, lo2, hi2 = entry
                merged[item] = (cur[0] + n2, cur[1] + s2, cur[2] + q2, min(cur[3], lo2), max(cur[4], hi2))
        maps[dendrogram.n_leaves + m] = merged
    return ClusterItemStats(maps)


def select_optimal_cluster(
    chain: tuple[int, ...] | np.ndarray,
    item: int,
    stats: ClusterItemStats,
    level: float,
) -> tuple[int, float] | None:
    """Narrowest-interval cluster for the item among the chain's nodes, as
    ``(node, half_width)`` at the given confidence level.

    Only nodes with >= 2 ratings for the item qualify.  Walking leaf to
    root, a strict improvement is required, so at equal half-width the
    smaller (earlier) cluster wins.  Returns None when no chain node
    qualifies.
    """
    maps = stats._maps
    best = None
    best_hw = 0.0
    for node in chain:
        entry = maps[node].get(item)
        if entry is None:
            continue
        n, total, total_sq, lo, hi = entry
        if n < 2:
            continue
        # two-sided Student-t half-width on the cluster's item mean
        hw = _t_critical(level, n - 1) * math.sqrt(_variance(n, total, total_sq, lo, hi) / n)
        if best is None or hw < best_hw:
            best, best_hw = node, hw
    if best is None:
        return None
    return int(best), best_hw


class CobarModel(_PredictorMixin):
    """Trains the hierarchy and statistics, then serves predictions,
    clamped to the training scale unless constructed with `clamp=False`.

    All state is immutable after :meth:`fit`; predictions are pure reads.
    """

    def __init__(self, config: CobarConfig | None = None, clamp: bool = True):
        self.config = config or CobarConfig()
        self.clamp = clamp
        self.train: RatingDataset | None = None
        self.user_stats: MeanStats | None = None
        self.dendrogram: Dendrogram | None = None
        self.stats: ClusterItemStats | None = None
        self._leaf_of: dict[int, int] = {}
        self._item_counts: np.ndarray | None = None

    def fit(self, train: RatingDataset) -> "CobarModel":
        self.train = train
        self.user_stats = compute_user_stats(train)
        self.dendrogram = agglomerate(train)
        self.stats = build_item_stats(self.dendrogram, train)
        self._leaf_of = {int(u): leaf for leaf, u in enumerate(self.dendrogram.leaf_users)}
        self._item_counts = np.bincount(train.items, minlength=train.n_items)
        return self

    def predict_detailed(self, user: int, item: int) -> Prediction:
        self._check_query(user, item)

        user_mean = self.user_stats.mean(user)
        if user_mean is None:
            return Prediction(
                value=self._clamp(self.user_stats.global_mean),
                fallback=Fallback.COLD_USER,
            )

        leaf = self._leaf_of.get(user)
        choice = None
        if leaf is not None:
            choice = select_optimal_cluster(self.dendrogram.chains[leaf], item, self.stats,
                                            self.config.confidence_level)
        if choice is None:
            # the user has no leaf (a rating vector of norm 0) or the item
            # has at most one training rating in the user's chain: predict
            # the plain user mean
            if leaf is None:
                fallback = Fallback.UNCLUSTERED_USER
            elif self._item_counts[item] == 0:
                fallback = Fallback.COLD_ITEM
            else:
                fallback = Fallback.SINGLE_RATING
            return Prediction(
                value=self._clamp(user_mean),
                fallback=fallback,
                user_mean=user_mean,
            )

        node, half_width = choice
        n, total, _, _, _ = self.stats.items_at(node)[item]
        cluster_mean = total / n
        gamma = self.config.gamma
        value = gamma * user_mean + (1.0 - gamma) * cluster_mean
        return Prediction(
            value=self._clamp(value),
            fallback=Fallback.NONE,
            chosen_node=node,
            cluster_size=int(self.dendrogram.sizes[node]),
            cluster_mean=cluster_mean,
            half_width=half_width,
            user_mean=user_mean,
        )

    def predict(self, user: int, item: int) -> float:
        return self.predict_detailed(user, item).value
