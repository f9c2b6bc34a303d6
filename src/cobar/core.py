"""Confidence-based rating prediction over the user hierarchy.

For a (user, item) query the model walks from the user's leaf up to the
root by the parent ids, computes a two-sided Student-t confidence interval
for the item's mean rating inside each cluster with at least two ratings,
picks the cluster whose interval is narrowest, and blends that cluster's
item mean with the user's own mean rating:

    predicted = gamma * user_mean + (1 - gamma) * cluster_item_mean

Items with fewer than two training ratings cannot yield an interval; those
queries fall back to the user's mean, and users without training ratings
fall back to the global mean.  A user whose training ratings are all 0 has
a rating vector of norm 0, so no cosine distance and no place in the
hierarchy; such a user's queries also get the user's mean.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .clustering import Dendrogram, agglomerate
from .data import MeanStats, RatingDataset, _PredictorMixin, compute_user_stats
from .kernels import ClusterStatsIndex


class Fallback(enum.Enum):
    NONE = "none"
    SINGLE_RATING = "single_rating"
    COLD_ITEM = "cold_item"
    COLD_USER = "cold_user"
    UNCLUSTERED_USER = "unclustered_user"


# by the code a bound cobar query returns for each
_FALLBACKS = tuple(Fallback)


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


def build_item_stats(dendrogram: Dendrogram, train: RatingDataset) -> ClusterStatsIndex:
    """Every node's (n, sum, sum_sq, min, max) per item, as 2r - 1 entries
    for an item with r raters, over the layout the dendrogram checked, and
    the per-user and per-item values cobar's query reads beside them."""
    return ClusterStatsIndex(dendrogram, train)


class CobarModel(_PredictorMixin):
    """Trains the hierarchy and statistics, then serves predictions,
    clamped to the training scale unless constructed with `clamp=False`.

    All state is immutable after :meth:`fit`; predictions are pure reads.
    The fit stores on the model the config's gamma and confidence level,
    the dendrogram, which `cobar predict` also reads, and the
    `ClusterStatsIndex`, which holds every array the query reads, not the
    training set.  It also keeps the training set's shared `user_stats`:
    its first read, which rejects an empty training set, and the global
    mean `cobar predict` prints for a cold user.  The whole query, the
    mixin's check of the pair, the fallback chain, the blend and the
    clamp, is one call of a query from the index's `bind`, bound at the
    gamma and level stored at fit, as is a loaded pickle's, whatever
    `config` holds by then: `predict` returns its float, and
    `predict_detailed` builds a `Prediction` of its detail, whose fallback
    code indexes `Fallback` in declaration order.
    """

    _BOUND = ("_predict", "_detail")
    _STATE = (*_PredictorMixin._STATE, "config", "user_stats", "dendrogram", "stats", "_gamma", "_level")

    def __init__(self, config: CobarConfig | None = None, clamp: bool = True):
        self.config = config or CobarConfig()
        self.clamp = clamp
        self.user_stats: MeanStats | None = None
        self.dendrogram: Dendrogram | None = None
        self.stats: ClusterStatsIndex | None = None

    def fit(self, train: RatingDataset) -> "CobarModel":
        self.user_stats = compute_user_stats(train)
        self.dendrogram = agglomerate(train)
        self.stats = build_item_stats(self.dendrogram, train)
        self._gamma, self._level = self.config.gamma, self.config.confidence_level
        self._fitted_on(train)
        return self

    def _bind(self) -> None:
        self._predict, self._detail = self.stats.bind(self._level, self._gamma, *self._limits[2:])

    def predict_detailed(self, user: int, item: int) -> Prediction:
        if self._limits is None:
            raise RuntimeError("model is not fitted")
        value, fallback, *chosen = self._detail(user, item)
        return Prediction(value, _FALLBACKS[fallback], *chosen)

    def predict(self, user: int, item: int) -> float:
        if self._limits is None:
            raise RuntimeError("model is not fitted")
        return self._predict(user, item)
