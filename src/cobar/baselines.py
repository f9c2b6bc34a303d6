"""Comparison predictors: item popularity, user/item kNN, matrix factorization.

All four share the same interface as the confidence-based model: `fit(train)`
then `predict(user, item) -> float`, with predictions clamped to the training
scale unless constructed with `clamp=False`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .data import RatingDataset, compute_item_stats, compute_user_stats


@dataclass
class KnnConfig:
    """Cosine-similarity neighborhood settings (shared by both kNN variants)."""

    k: int = 30
    min_overlap: int = 1

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"neighbor count must be >= 1, got {self.k}")
        if self.min_overlap < 1:
            raise ValueError(f"min_overlap must be >= 1, got {self.min_overlap}")


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
    init_scale: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.factors < 1:
            raise ValueError("factors must be >= 1")
        if self.learning_rate <= 0 or self.regularization < 0 or self.init_scale < 0:
            raise ValueError("learning_rate must be > 0, regularization and init_scale >= 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")


class _ClampMixin:
    def _clamp(self, value: float) -> float:
        if not self.clamp:
            return value
        return min(max(value, self.train.rating_min), self.train.rating_max)


class MostPopular(_ClampMixin):
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
        return self._clamp(self.item_stats.mean_or_global(item))


def _top_k_aggregate(sims: np.ndarray, deviations: np.ndarray, k: int) -> float | None:
    """Weighted mean of deviations over the k most similar positive neighbors.

    Neighbor order at equal similarity follows the input order, which the
    callers keep sorted by index for determinism.  Returns None when no
    neighbor has positive similarity.
    """
    pos = np.flatnonzero(sims > 0.0)
    if len(pos) == 0:
        return None
    if len(pos) > k:
        # stable sort on -sim keeps index order among equals
        order = np.argsort(-sims[pos], kind="stable")[:k]
        pos = pos[order]
    weights = sims[pos]
    return float(np.sum(weights * deviations[pos]) / np.sum(np.abs(weights)))


class _CosineKnn(_ClampMixin):
    """Mean-centered cosine kNN shared by :class:`UserKnn` and :class:`ItemKnn`.

    The *entities* (users or items) are the rows compared with each other.
    A query (entity, column) takes as neighbors the other entities rated in
    that column and aggregates the deviations of the k most similar
    positive ones.  Similarities are computed per query from the CSR arrays
    of both axes, so memory stays O(ratings) and nothing is shared or
    mutated between queries.  Subclasses set `user_major` (entities are
    users) and `compute_stats` (the means deviations are centered on).
    """

    def __init__(self, config: KnnConfig | None = None, clamp: bool = True):
        self.config = config or KnnConfig()
        self.clamp = clamp
        self.train = None

    def fit(self, train: RatingDataset) -> "_CosineKnn":
        self.train = train
        self.stats = self.compute_stats(train)
        by_user = train.sparse_by_user()
        by_item = by_user.T.tocsr()
        rows, cols = (by_user, by_item) if self.user_major else (by_item, by_user)
        self._norms = np.sqrt(np.asarray(rows.multiply(rows).sum(axis=1)).ravel())
        # intp indices spare a cast in every per-query gather and bincount
        self._rows = (rows.indptr.astype(np.intp), rows.indices.astype(np.intp), rows.data)
        self._cols = (cols.indptr.astype(np.intp), cols.indices.astype(np.intp), cols.data)
        return self

    def _predict(self, entity: int, column: int) -> float:
        mean = self.stats.mean(entity)
        if mean is None:
            return self._clamp(self.stats.global_mean)
        cp, ci, cd = self._cols
        neighbors, ratings = ci[cp[column]:cp[column + 1]], cd[cp[column]:cp[column + 1]]
        keep = neighbors != entity
        neighbors, ratings = neighbors[keep], ratings[keep]
        if len(neighbors) == 0 or self._norms[entity] == 0.0:
            return self._clamp(mean)

        # Every (entity, rating) in each column the query entity rated, in
        # ascending column order; bincount then sums each dot product in the
        # same order as a sparse row-times-matrix product would.
        rp, ri, rd = self._rows
        lo, hi = rp[entity], rp[entity + 1]
        starts = cp[ri[lo:hi]]
        lengths = cp[ri[lo:hi] + 1] - starts
        ends = np.cumsum(lengths)
        pos = np.repeat(starts - ends + lengths, lengths) + np.arange(ends[-1])
        who = ci[pos]
        n = len(self._norms)
        dots = np.bincount(who, weights=np.repeat(rd[lo:hi], lengths) * cd[pos], minlength=n)[neighbors]
        # an all-zero neighbor has no direction: similarity 0, not 0/0
        denom = self._norms[entity] * self._norms[neighbors]
        sims = np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0.0)
        if self.config.min_overlap > 1:
            overlap = np.bincount(who, minlength=n)[neighbors]
            sims[overlap < self.config.min_overlap] = 0.0
        deviations = ratings - self.stats.means[neighbors]
        agg = _top_k_aggregate(sims, deviations, self.config.k)
        if agg is None:
            return self._clamp(mean)
        return self._clamp(mean + agg)


class UserKnn(_CosineKnn):
    """User-based kNN: neighbors are the item's other raters, deviations are
    centered on user means.

    Falls back to the user's mean when no rater has positive similarity,
    then to the global mean for users absent from training.
    """

    user_major = True
    compute_stats = staticmethod(compute_user_stats)

    def predict(self, user: int, item: int) -> float:
        return self._predict(user, item)


class ItemKnn(_CosineKnn):
    """Item-based kNN, the transpose of :class:`UserKnn`: neighbors are the
    user's other rated items, deviations are centered on item means.

    Falls back to the item's mean when the user rated nothing comparable,
    then to the global mean for items absent from training.
    """

    user_major = False
    compute_stats = staticmethod(compute_item_stats)

    def predict(self, user: int, item: int) -> float:
        return self._predict(item, user)


class MatrixFactorization(_ClampMixin):
    """Biased matrix factorization fit by SGD.

    Model: global_mean + user_bias + item_bias + user_factors . item_factors,
    trained on squared error with L2 regularization.  Fully deterministic
    under a fixed seed; `epoch_mse` records the training error after each
    epoch.  Terms belonging to users or items unseen in training are dropped
    at prediction time.
    """

    def __init__(self, config: MfConfig | None = None, clamp: bool = True, kernel=None):
        self.config = config or MfConfig()
        self.clamp = clamp
        self._kernel = kernel if kernel is not None else kernels.mf_sgd_epoch
        self.train = None

    def fit(self, train: RatingDataset) -> "MatrixFactorization":
        cfg = self.config
        self.train = train
        rng = np.random.default_rng(cfg.seed)
        self.global_mean = float(train.ratings.mean())
        self.user_factors = rng.normal(0.0, cfg.init_scale, (train.n_users, cfg.factors))
        self.item_factors = rng.normal(0.0, cfg.init_scale, (train.n_items, cfg.factors))
        self.user_bias = np.zeros(train.n_users)
        self.item_bias = np.zeros(train.n_items)
        self.user_seen = np.bincount(train.users, minlength=train.n_users) > 0
        self.item_seen = np.bincount(train.items, minlength=train.n_items) > 0

        users, items, ratings = train.users, train.items, train.ratings
        self.epoch_mse: list[float] = [self._train_mse()]
        for _ in range(cfg.epochs):
            order = rng.permutation(train.n_ratings)
            self._kernel(
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
            self.epoch_mse.append(self._train_mse())
        return self

    def _train_mse(self) -> float:
        t = self.train
        pred = (
            self.global_mean
            + self.user_bias[t.users]
            + self.item_bias[t.items]
            + np.einsum("ij,ij->i", self.user_factors[t.users], self.item_factors[t.items])
        )
        return float(np.mean((t.ratings - pred) ** 2))

    def predict(self, user: int, item: int) -> float:
        value = self.global_mean
        if self.user_seen[user]:
            value += self.user_bias[user]
        if self.item_seen[item]:
            value += self.item_bias[item]
        if self.user_seen[user] and self.item_seen[item]:
            value += float(self.user_factors[user] @ self.item_factors[item])
        return self._clamp(value)
