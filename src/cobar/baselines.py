"""Comparison predictors: item popularity, user/item kNN, matrix factorization.

All four share the same interface as the confidence-based model: `fit(train)`
then `predict(user, item) -> float`, with predictions clamped to the training
scale unless constructed with `clamp=False`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import kernels
from .data import RatingDataset, _PredictorMixin, compute_item_stats, compute_user_stats

INIT_SCALE = 0.1   # standard deviation of the normal the MF latent factors start from


@dataclass
class KnnConfig:
    """Cosine-similarity neighborhood settings (shared by both kNN variants)."""

    k: int = 30

    def __post_init__(self):
        if operator.index(self.k) < 1:
            raise ValueError(f"neighbor count must be >= 1, got {self.k}")


@dataclass
class MfConfig:
    """Biased SGD matrix-factorization settings.

    epochs=0 is allowed and leaves the model at its random initialization,
    which is occasionally useful for testing the bias structure.
    """

    factors: int = 10
    learning_rate: float = 0.01
    regularization: float = 0.015
    epochs: int = 30
    seed: int = 0

    def __post_init__(self):
        if operator.index(self.factors) < 1:
            raise ValueError("factors must be >= 1")
        if not 0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0 <= self.regularization < np.inf:
            raise ValueError(f"regularization must be finite and >= 0, got {self.regularization}")
        if operator.index(self.epochs) < 0:
            raise ValueError("epochs must be >= 0")
        if operator.index(self.seed) < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


class MostPopular(_PredictorMixin):
    """Non-personalized baseline: each item's global mean training rating."""

    _READ_ONLY, _BOUND = ("item_means",), ("_means",)
    _STATE = (*_PredictorMixin._STATE, *_READ_ONLY)

    def __init__(self, clamp: bool = True):
        self.clamp = clamp

    def fit(self, train: RatingDataset) -> "MostPopular":
        stats = compute_item_stats(train)
        # each item's mean, and the global mean for an item with no rating
        self.item_means = np.where(np.isnan(stats.means), stats.global_mean, stats.means)
        self._fitted_on(train)
        return self

    def _bind(self) -> None:
        # indexing a memoryview gives a Python float, with no numpy scalar
        self._means = memoryview(self.item_means)

    def _value(self, user: int, item: int) -> float:
        return self._means[item]


class _CosineKnn(_PredictorMixin):
    """Mean-centered cosine kNN shared by :class:`UserKnn` and :class:`ItemKnn`.

    The *entities* (users or items) are the rows compared with each other.
    A query (entity, column) takes as neighbors the other entities rated in
    that column and aggregates the deviations of the k most similar
    positive ones.  `fit` hands the training dataset, the entities' means
    and k to a `kernels.KnnIndex`, which reads the dataset's two cached
    layouts, so a fold's `UserKnn` and `ItemKnn` share them; its query
    computes the similarities per query, compiled when the extension is
    built, so memory stays O(ratings).  The compiled query computes only
    the neighbours' dot products, from the cheaper of the entity's columns
    and the neighbours' rows, with the numpy query's bits.  Each
    prediction calls `KnnIndex.query`, the bound loop, once.  Subclasses
    set `user_major`: the entities are users and the deviations are
    centered on `compute_user_stats`, or they are items, centered on
    `compute_item_stats`.
    """

    _BOUND, _STATE = ("_means", "_query"), (*_PredictorMixin._STATE, "config", "stats", "_index")

    def __init__(self, config: KnnConfig | None = None, clamp: bool = True):
        self.config = config or KnnConfig()
        self.clamp = clamp

    def fit(self, train: RatingDataset) -> "_CosineKnn":
        # looked up on every fit, not bound at import, so a patched module
        # attribute takes effect
        self.stats = (compute_user_stats if self.user_major else compute_item_stats)(train)
        self._index = kernels.KnnIndex(train, self.user_major, self.stats.means, self.config.k)
        self._fitted_on(train)
        return self

    def _bind(self) -> None:
        self._means = memoryview(self.stats.means)
        self._query = self._index.query

    def _value(self, user: int, item: int) -> float:
        entity, column = (user, item) if self.user_major else (item, user)
        mean = self._means[entity]
        if mean != mean:   # NaN: the entity has no training rating
            return self.stats.global_mean
        agg = self._query(entity, column)
        # None: no other rater in the column has positive similarity
        return mean if agg is None else mean + agg


class UserKnn(_CosineKnn):
    """User-based kNN: neighbors are the item's other raters, deviations are
    centered on user means.

    Falls back to the user's mean when no rater has positive similarity,
    then to the global mean for users absent from training.
    """

    user_major = True


class ItemKnn(_CosineKnn):
    """Item-based kNN, the transpose of :class:`UserKnn`: neighbors are the
    user's other rated items, deviations are centered on item means.

    Falls back to the item's mean when the user rated nothing comparable,
    then to the global mean for items absent from training.
    """

    user_major = False


class MatrixFactorization(_PredictorMixin):
    """Biased matrix factorization fit by SGD.

    Model: global_mean + user_bias + item_bias + user_factors . item_factors,
    trained on squared error with L2 regularization.  Fully deterministic
    under a fixed seed.  Terms belonging to users or items unseen in
    training are dropped at prediction time.
    """

    _READ_ONLY = ("user_factors", "item_factors", "user_bias", "item_bias", "user_seen", "item_seen")
    _BOUND = ("_user_bias", "_item_bias", "_user_seen", "_item_seen")
    _STATE = (*_PredictorMixin._STATE, "config", "global_mean", *_READ_ONLY)

    def __init__(self, config: MfConfig | None = None, clamp: bool = True):
        self.config = config or MfConfig()
        self.clamp = clamp

    def fit(self, train: RatingDataset) -> "MatrixFactorization":
        cfg = self.config
        user_stats, item_stats = compute_user_stats(train), compute_item_stats(train)
        rng = np.random.default_rng(cfg.seed)
        self.global_mean = user_stats.global_mean
        self.user_factors = rng.normal(0.0, INIT_SCALE, (train.n_users, cfg.factors))
        self.item_factors = rng.normal(0.0, INIT_SCALE, (train.n_items, cfg.factors))
        self.user_bias = np.zeros(train.n_users)
        self.item_bias = np.zeros(train.n_items)
        # a mean is NaN just where there is no rating: a sum of finite ratings is never NaN
        self.user_seen = ~np.isnan(user_stats.means)
        self.item_seen = ~np.isnan(item_stats.means)

        users, items, ratings = train.users, train.items, train.ratings
        for _ in range(cfg.epochs):
            order = rng.permutation(train.n_ratings)
            kernels.mf_sgd_epoch(
                users,
                items,
                ratings,
                order,
                self.user_factors,
                self.item_factors,
                self.user_bias,
                self.item_bias,
                self.global_mean,
                cfg.learning_rate,
                cfg.regularization,
            )
        self._fitted_on(train)
        return self

    def _bind(self) -> None:
        self._user_bias, self._item_bias = memoryview(self.user_bias), memoryview(self.item_bias)
        self._user_seen, self._item_seen = memoryview(self.user_seen), memoryview(self.item_seen)

    def _value(self, user: int, item: int) -> float:
        value = self.global_mean
        user_seen, item_seen = self._user_seen[user], self._item_seen[item]
        if user_seen:
            value += self._user_bias[user]
        if item_seen:
            value += self._item_bias[item]
        if user_seen and item_seen:
            # the cblas_ddot call of `@`, without its operator dispatch
            value += float(self.user_factors[user].dot(self.item_factors[item]))
        return value
