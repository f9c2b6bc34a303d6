"""Rating data ingestion, per-user/per-item statistics, the query check and
clamp every predictor shares, and k-fold splits.

A :class:`RatingDataset` stores the ratings as three parallel arrays plus
external-id maps.  Cross-validation works on *triple indices*: a fold's
training portion is a :meth:`RatingDataset.subset` that keeps the full
user/item index space, so users or items that only occur in the test fold
are still addressable (they simply have no training ratings and take the
cold-start paths in the predictors).
"""

from __future__ import annotations

import io
import logging
import math
import operator
from array import array
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable

import numpy as np

logger = logging.getLogger(__name__)

DELIMITER_ALIASES = {"tab": "\t", "comma": ",", "semicolon": ";", "space": " "}


class ParseError(ValueError):
    """Malformed rating file; the message starts with the offending 1-based
    line number when there is one."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _checked(name: str, obj, ndim: int, dtype: str, writable: bool = False) -> np.ndarray:
    """`obj`, once it is known to be a C-contiguous `ndim`-dimensional numpy
    array of `dtype` (and writable if asked); `TypeError` or `ValueError`
    naming `name` otherwise."""
    if not isinstance(obj, np.ndarray):
        raise TypeError(f"{name} must be an array, not {type(obj).__name__}")
    if obj.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got {obj.ndim} dimensions")
    if obj.dtype != dtype:
        raise TypeError(f"{name} must hold {dtype}, got {obj.dtype}")
    if not obj.flags.c_contiguous:
        raise ValueError(f"{name} must be C-contiguous")
    if writable and not obj.flags.writeable:
        raise ValueError(f"{name} must be writable")
    return obj


def _check_range(name: str, index: np.ndarray, bound: int) -> None:
    if len(index) and (index.min() < 0 or index.max() >= bound):
        raise IndexError(f"{name} holds an index out of range [0, {bound})")


class _Derived:
    """A read-only attribute of a `RatingDataset`, built on first read and
    kept in the dataset's `_derived` dict.  `functools.cached_property`
    would keep it in the instance `__dict__` instead, and once CPython
    3.11 materialises that dict every attribute read of the instance is
    slower: each prediction reads its training set, and cobar's
    predictions on a perfbench ft fold ran 6% slower."""

    def __init__(self, build):
        self._build = build
        self.__doc__ = build.__doc__

    def __set_name__(self, owner, name):
        self._name = name

    def __get__(self, dataset, owner=None):
        if dataset is None:
            return self
        derived = dataset._derived
        if self._name not in derived:
            derived[self._name] = self._build(dataset)
        return derived[self._name]

    def __set__(self, dataset, value):
        raise AttributeError(f"{self._name} is derived from the triples and cannot be set")


@dataclass
class RatingDataset:
    """Sparse user x item rating store with contiguous internal indices.

    Construction checks the triples once, for every model that reads them:
    C-contiguous 1-D int32 `users` and `items` and float64 `ratings` of one
    length, every index in range, every rating finite, no (user, item)
    pair repeated.  It checks and keeps read-only copies of the three
    arrays, so no write reaches the checked triples: not through the
    dataset, and not through the arrays it was built from, which stay the
    caller's.  `rating_min` and `rating_max` are clamp bounds, not checked
    against the ratings.

    The state every model derives from the triples is built on first read
    and cached on the dataset, read-only, so the models fit on one
    training set share it: the CSR layouts `user_layout` and
    `item_layout`, and the `MeanStats` `user_stats` and `item_stats`.  A
    `subset` starts with nothing cached, and a pickle keeps what was
    built.
    """

    user_ids: list[str]
    item_ids: list[str]
    users: np.ndarray             # int32, one entry per rating triple
    items: np.ndarray             # int32
    ratings: np.ndarray           # float64
    rating_min: float
    rating_max: float
    name: str = ""

    def __post_init__(self):
        users = _checked("users", self.users, 1, "int32").copy()
        items = _checked("items", self.items, 1, "int32").copy()
        ratings = _checked("ratings", self.ratings, 1, "float64").copy()
        if not len(users) == len(items) == len(ratings):
            raise ValueError("users, items and ratings must have the same length")
        _check_range("users", users, self.n_users)
        _check_range("items", items, self.n_items)
        if not np.isfinite(ratings).all():
            raise ValueError("ratings must be finite")
        pairs = np.sort(users.astype(np.int64) * self.n_items + items)
        if np.any(pairs[1:] == pairs[:-1]):
            raise ValueError("users and items hold a repeated (user, item) pair")
        for name, array in (("users", users), ("items", items), ("ratings", ratings)):
            array.flags.writeable = False
            setattr(self, name, array)
        self._derived = {}

    def __setstate__(self, state):
        # numpy loads a pickled array writable: keep the checked ones and
        # the cached layouts read-only
        self.__dict__.update(state)
        derived = self._derived
        for array in (self.users, self.items, self.ratings, *derived.get("user_layout", ()),
                      *derived.get("item_layout", ())):
            array.flags.writeable = False

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    @property
    def n_ratings(self) -> int:
        return len(self.ratings)

    @_Derived
    def _user_map(self) -> dict[str, int]:
        return {u: i for i, u in enumerate(self.user_ids)}

    @_Derived
    def _item_map(self) -> dict[str, int]:
        return {u: i for i, u in enumerate(self.item_ids)}

    @_Derived
    def user_layout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ratings with users as rows, each row sorted by item, as
        `cobar.kernels.csr_rows` lays them out: int64 indptr, int32 item
        indices and float64 ratings, explicit zeros kept."""
        return self._layout(self.users, self.items, self.n_users, self.n_items)

    @_Derived
    def item_layout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The transpose of `user_layout`: items as rows, each row sorted by
        user."""
        return self._layout(self.items, self.users, self.n_items, self.n_users)

    def _layout(self, keys: np.ndarray, others: np.ndarray, n_keys: int, n_others: int):
        from . import kernels   # which imports this module
        layout = kernels.csr_rows(keys, others, self.ratings, n_keys, n_others)
        for array in layout:
            array.flags.writeable = False
        return layout

    @_Derived
    def user_stats(self) -> MeanStats:
        """Each user's mean rating and the global mean; `ValueError` for a
        dataset with no ratings."""
        return _mean_stats(self, self.users, self.n_users)

    @_Derived
    def item_stats(self) -> MeanStats:
        """Each item's mean rating and the global mean; `ValueError` for a
        dataset with no ratings."""
        return _mean_stats(self, self.items, self.n_items)

    def user_index(self, external_id: str) -> int:
        try:
            return self._user_map[external_id]
        except KeyError:
            raise KeyError(f"unknown user id {external_id!r}") from None

    def item_index(self, external_id: str) -> int:
        try:
            return self._item_map[external_id]
        except KeyError:
            raise KeyError(f"unknown item id {external_id!r}") from None

    def subset(self, triple_indices: np.ndarray) -> "RatingDataset":
        """New dataset over the same user/item index space, keeping only the
        given triples.  Scale bounds are inherited, not recomputed, so clamping
        stays identical across folds.  `triple_indices` are positions or a
        boolean mask; an empty list selects nothing."""
        idx = np.asarray(triple_indices)
        if idx.size == 0:
            # np.asarray([]) is float64, which numpy refuses as an index
            idx = idx.astype(np.intp)
        return replace(self, users=self.users[idx], items=self.items[idx], ratings=self.ratings[idx])


def parse_ratings(
    source: str | Path | Iterable[str],
    delimiter: str = "\t",
    skip_header: bool = False,
    name: str = "",
) -> RatingDataset:
    """Parse `user<delim>item<delim>rating[<delim>ignored...]` lines.

    `source` is a path to a UTF-8 file or an iterable of text lines, and
    `delimiter` one of the `DELIMITER_ALIASES` or a non-empty string;
    `ValueError` for an empty one, before the source is opened.  Ids and
    the rating are stripped of whitespace, and blank lines are skipped, as
    is the first line when `skip_header` is true.  Duplicate (user, item)
    pairs keep the last rating seen; the number of replaced pairs is logged
    as a warning, not kept.  Users and items are indexed in order of first
    appearance, and the records keep the order of each pair's first line.
    The rating scale is the observed min/max of the kept ratings.

    A file is read once, as bytes, so a pipe, a FIFO or a ``<(...)``
    substitution parses as a regular file does.  The compiled tokenizer,
    `cobar.kernels.tokenize`, splits the bytes when they fit its strict
    ASCII subset.  Every other file, every iterable and every input on the
    numpy backend goes through the line loop, which decodes the bytes
    already read and holds them while it runs: both give the same dataset,
    bit for bit.

    Raises :class:`ParseError` for empty input, short lines, an empty user
    or item id, non-numeric or non-finite ratings, or a file line that is
    not UTF-8, naming the 1-based line number.  A byte-order mark at the
    start of a file is dropped.
    """
    delimiter = DELIMITER_ALIASES.get(delimiter, delimiter)
    if not delimiter:
        raise ValueError("empty delimiter '': fields need a separator of at least one character")
    if not isinstance(source, (str, Path)):
        return _keep_last(*_read_lines(source, delimiter, skip_header), name)
    from . import kernels   # which imports this module
    with open(source, "rb") as fh:
        data = fh.read()
    columns = kernels.tokenize(data, delimiter, skip_header)
    if columns is None:
        try:
            # utf-8-sig strips a byte-order mark, which would join the first
            # id; the reader decodes newlines as a text-mode open does
            columns = _read_lines(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig"), delimiter, skip_header)
        except UnicodeDecodeError:
            # the reader decodes in chunks, so the error gives no line
            for line_no, raw in enumerate(io.BytesIO(data), start=1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ParseError(str(exc), line_no) from None
            raise
    del data   # free the bytes before `_keep_last` sorts and copies the records
    return _keep_last(*columns, name)


def _read_lines(lines: Iterable[str], delimiter: str, skip_header: bool):
    """The line loop of `parse_ratings`: ``(user_ids, item_ids, users,
    items, ratings)``, the ids in first-seen order and one entry per record
    in line order, repeated pairs included."""
    # each id's index is its position in insertion order, so the keys are
    # the id lists
    user_index: dict[str, int] = {}
    item_index: dict[str, int] = {}
    users, items, ratings = array("i"), array("i"), array("d")
    for line_no, raw in enumerate(lines, start=1):
        if line_no == 1 and skip_header:
            continue
        line = raw.rstrip("\r\n")
        if not line.strip():
            continue
        parts = line.split(delimiter)
        if len(parts) < 3:
            raise ParseError(
                f"expected at least 3 fields separated by {delimiter!r}, got {len(parts)}",
                line_no,
            )
        user_key, item_key = parts[0].strip(), parts[1].strip()
        if not user_key or not item_key:
            raise ParseError("empty user or item id", line_no)
        try:
            rating = float(parts[2])
        except ValueError:
            raise ParseError(f"non-numeric rating {parts[2]!r}", line_no) from None
        if not math.isfinite(rating):
            raise ParseError(f"non-finite rating {parts[2]!r}", line_no)
        users.append(user_index.setdefault(user_key, len(user_index)))
        items.append(item_index.setdefault(item_key, len(item_index)))
        ratings.append(rating)
    return (list(user_index), list(item_index), np.asarray(users, dtype=np.int32),
            np.asarray(items, dtype=np.int32), np.asarray(ratings))


def _keep_last(user_ids: list[str], item_ids: list[str], users: np.ndarray, items: np.ndarray, ratings: np.ndarray,
               name: str) -> RatingDataset:
    """The dataset of the records: each (user, item) pair once, with its
    last rating, at the position of its first record, as a dict keyed by
    the pair would keep them."""
    if not len(ratings):
        raise ParseError("no rating records found in input")
    keys = users.astype(np.int64) * len(item_ids) + items
    # stable: each pair's records stay in line order
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    replaced = len(ratings) - len(starts)
    if replaced:
        logger.warning("%s: %d duplicate (user, item) pairs, kept last rating", name or "ratings", replaced)
        first = order[starts]
        kept = np.zeros(len(ratings), dtype=bool)
        kept[first] = True
        last_ratings = ratings.copy()
        last_ratings[first] = ratings[order[np.append(starts[1:], len(order)) - 1]]
        users, items, ratings = users[kept], items[kept], last_ratings[kept]
    return RatingDataset(
        user_ids=user_ids,
        item_ids=item_ids,
        users=users,
        items=items,
        ratings=ratings,
        rating_min=float(ratings.min()),
        rating_max=float(ratings.max()),
        name=name,
    )


@dataclass
class MeanStats:
    """Per-user or per-item training means; NaN marks a user or item with no
    training ratings.

    Building the stats makes the `means` array read-only, and a loaded
    pickle keeps it so: a training set's stats are shared by every model
    fit on it, so a write would reach them all.
    """

    means: np.ndarray    # float64 (n_keys,), NaN when undefined
    global_mean: float

    def __post_init__(self):
        self.means.flags.writeable = False

    def __setstate__(self, state):
        # numpy loads a pickled array writable
        self.__dict__.update(state)
        self.means.flags.writeable = False

    def mean(self, key: int) -> float | None:
        m = self.means[key]
        return None if math.isnan(m) else float(m)

    def mean_or_global(self, key: int) -> float:
        m = self.means[key]
        return self.global_mean if math.isnan(m) else float(m)


def _mean_stats(train: RatingDataset, keys: np.ndarray, n_keys: int) -> MeanStats:
    """Arithmetic mean of the training ratings per key plus the global mean."""
    if train.n_ratings == 0:
        raise ValueError("cannot compute statistics of an empty training set")
    counts = np.bincount(keys, minlength=n_keys)
    sums = np.bincount(keys, weights=train.ratings, minlength=n_keys)
    with np.errstate(invalid="ignore"):
        means = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    return MeanStats(means=means, global_mean=float(train.ratings.mean()))


def compute_user_stats(train: RatingDataset) -> MeanStats:
    """Arithmetic mean of each user's training ratings plus the global mean:
    the training set's one `user_stats`, built on first read."""
    return train.user_stats


def compute_item_stats(train: RatingDataset) -> MeanStats:
    """Arithmetic mean of each item's training ratings plus the global mean:
    the training set's one `item_stats`, built on first read."""
    return train.item_stats


class _PredictorMixin:
    """Shared by every predictor: `_check_query` rejects a query before the
    fit or outside the training index space, and `_clamp` clips a
    prediction to the training rating scale, unless the predictor was built
    with `clamp=False`."""

    def _check_query(self, user: int, item: int) -> tuple[int, int]:
        """The query's indices as Python ints; `TypeError` for a
        non-integer, `ValueError` out of range."""
        train = self.train
        if train is None:
            raise RuntimeError("model is not fitted")
        user, item = operator.index(user), operator.index(item)
        # len() in place of the n_users/n_items properties: this runs on every query
        if not 0 <= user < len(train.user_ids):
            raise ValueError(f"user index {user} out of range")
        if not 0 <= item < len(train.item_ids):
            raise ValueError(f"item index {item} out of range")
        return user, item

    def _clamp(self, value: float) -> float:
        if not self.clamp:
            return value
        return min(max(value, self.train.rating_min), self.train.rating_max)


@dataclass
class FoldSplit:
    """Seeded partition of triple indices into k near-equal folds."""

    k: int
    assignment: np.ndarray  # int32 (n_ratings,), values in [0, k)

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignment != fold)


def _check_fold_count(k: int) -> None:
    if k < 2:
        raise ValueError(f"fold count must be >= 2, got {k}")


def kfold_split(dataset: RatingDataset, k: int, seed: int) -> FoldSplit:
    """Uniform seeded shuffle of the triples into k folds (sizes differ by <= 1)."""
    n = dataset.n_ratings
    _check_fold_count(k)
    if k > n:
        raise ValueError(f"cannot split {n} ratings into {k} folds")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    assignment = np.empty(n, dtype=np.int32)
    assignment[perm] = np.arange(n, dtype=np.int32) % k
    return FoldSplit(k=k, assignment=assignment)


def fold_train_test(dataset: RatingDataset, split: FoldSplit, fold: int) -> tuple[RatingDataset, np.ndarray]:
    """Training subset and test triple indices for one fold."""
    if not 0 <= fold < split.k:
        raise ValueError(f"fold {fold} out of range [0, {split.k})")
    train = dataset.subset(split.train_indices(fold))
    return train, split.test_indices(fold)


def _check_user_cap(max_users: int) -> None:
    if max_users < 1:
        raise ValueError("max_users must be >= 1")


def subsample_users(dataset: RatingDataset, max_users: int, seed: int) -> RatingDataset:
    """Keep a seeded random subset of users and rebuild contiguous indices.

    Items left without any rating are dropped; external ids are preserved.
    Returns the dataset unchanged when it already fits the cap.
    """
    _check_user_cap(max_users)
    if dataset.n_users <= max_users:
        return dataset
    rng = np.random.default_rng(seed)
    keep = np.sort(rng.choice(dataset.n_users, size=max_users, replace=False))
    keep_mask = np.zeros(dataset.n_users, dtype=bool)
    keep_mask[keep] = True
    sel = keep_mask[dataset.users]

    old_users = dataset.users[sel]
    old_items = dataset.items[sel]
    ratings = dataset.ratings[sel]
    user_map = -np.ones(dataset.n_users, dtype=np.int64)
    user_map[keep] = np.arange(len(keep))
    kept_items = np.unique(old_items)
    item_map = -np.ones(dataset.n_items, dtype=np.int64)
    item_map[kept_items] = np.arange(len(kept_items))

    return RatingDataset(
        user_ids=[dataset.user_ids[u] for u in keep],
        item_ids=[dataset.item_ids[i] for i in kept_items],
        users=user_map[old_users].astype(np.int32),
        items=item_map[old_items].astype(np.int32),
        ratings=ratings,
        rating_min=dataset.rating_min,
        rating_max=dataset.rating_max,
        name=dataset.name,
    )
