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
        if not (0 < self.learning_rate < np.inf and 0 <= self.regularization < np.inf):
            raise ValueError("learning_rate must be finite and > 0, regularization finite and >= 0")
        if operator.index(self.epochs) < 0:
            raise ValueError("epochs must be >= 0")


class MostPopular(_PredictorMixin):
    """Non-personalized baseline: each item's global mean training rating."""

    def __init__(self, clamp: bool = True):
        self.clamp = clamp
        self.train = None
        self.item_stats = None

    def fit(self, train: RatingDataset) -> "MostPopular":
        self.train = train
        self.item_stats = compute_item_stats(train)
        return self

    def predict(self, user: int, item: int) -> float:
        _, item = self._check_query(user, item)
        return self._clamp(self.item_stats.mean_or_global(item))


class _CosineKnn(_PredictorMixin):
    """Mean-centered cosine kNN shared by :class:`UserKnn` and :class:`ItemKnn`.

    The *entities* (users or items) are the rows compared with each other.
    A query (entity, column) takes as neighbors the other entities rated in
    that column and aggregates the deviations of the k most similar
    positive ones.  `fit` hands the training dataset, the means and k to a
    `kernels.KnnIndex`, which lays the ratings out itself;
    its query computes the similarities per query, compiled when the
    extension is built, so memory stays O(ratings).  The compiled query
    computes only the neighbours' dot products, from the cheaper of the
    entity's columns and the neighbours' rows, with the numpy query's bits.
    Subclasses set `user_major` (entities are users) and `compute_stats`
    (the means deviations are centered on).
    """

    def __init__(self, config: KnnConfig | None = None, clamp: bool = True):
        self.config = config or KnnConfig()
        self.clamp = clamp
        self.train = None

    def fit(self, train: RatingDataset) -> "_CosineKnn":
        self.train = train
        self.stats = self.compute_stats(train)
        self._index = kernels.KnnIndex(train, self.user_major, self.stats.means, self.config.k)
        return self

    def _predict(self, entity: int, column: int) -> float:
        mean = self.stats.mean(entity)
        if mean is None:
            return self._clamp(self.stats.global_mean)
        agg = self._index.query(entity, column)
        if agg is None:
            # no other rater in the column has positive similarity
            return self._clamp(mean)
        return self._clamp(mean + agg)

    def predict(self, user: int, item: int) -> float:
        user, item = self._check_query(user, item)
        return self._predict(user, item) if self.user_major else self._predict(item, user)


class UserKnn(_CosineKnn):
    """User-based kNN: neighbors are the item's other raters, deviations are
    centered on user means.

    Falls back to the user's mean when no rater has positive similarity,
    then to the global mean for users absent from training.
    """

    user_major = True
    compute_stats = staticmethod(compute_user_stats)


class ItemKnn(_CosineKnn):
    """Item-based kNN, the transpose of :class:`UserKnn`: neighbors are the
    user's other rated items, deviations are centered on item means.

    Falls back to the item's mean when the user rated nothing comparable,
    then to the global mean for items absent from training.
    """

    user_major = False
    compute_stats = staticmethod(compute_item_stats)


class MatrixFactorization(_PredictorMixin):
    """Biased matrix factorization fit by SGD.

    Model: global_mean + user_bias + item_bias + user_factors . item_factors,
    trained on squared error with L2 regularization.  Fully deterministic
    under a fixed seed.  Terms belonging to users or items unseen in
    training are dropped at prediction time.
    """

    def __init__(self, config: MfConfig | None = None, clamp: bool = True):
        self.config = config or MfConfig()
        self.clamp = clamp
        self.train = None

    def fit(self, train: RatingDataset) -> "MatrixFactorization":
        cfg = self.config
        self.train = train
        rng = np.random.default_rng(cfg.seed)
        self.global_mean = float(train.ratings.mean())
        self.user_factors = rng.normal(0.0, INIT_SCALE, (train.n_users, cfg.factors))
        self.item_factors = rng.normal(0.0, INIT_SCALE, (train.n_items, cfg.factors))
        self.user_bias = np.zeros(train.n_users)
        self.item_bias = np.zeros(train.n_items)
        self.user_seen = np.bincount(train.users, minlength=train.n_users) > 0
        self.item_seen = np.bincount(train.items, minlength=train.n_items) > 0

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
        return self

    def predict(self, user: int, item: int) -> float:
        user, item = self._check_query(user, item)
        value = self.global_mean
        if self.user_seen[user]:
            value += self.user_bias[user]
        if self.item_seen[item]:
            value += self.item_bias[item]
        if self.user_seen[user] and self.item_seen[item]:
            value += float(self.user_factors[user] @ self.item_factors[item])
        return self._clamp(value)
