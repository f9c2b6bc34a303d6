"""The hot kernels: one checked entry each, over a compiled or a numpy loop.

The Ward merge loop, the MF SGD epoch and the kNN query are compiled in the
C extension `_compiled` when a C compiler is available at install time;
without it the numpy loops in `_python` run.  ``BACKEND`` names the loops
selected at import: ``"c"`` when `_compiled` imports, ``"python"`` when
there is no `_compiled`; one that exists but cannot load, or lacks a loop,
stops the import with the rebuild command.  `ward_linkage`, `mf_sgd_epoch`
and `KnnIndex` check their arguments, once for both backends, before they
call the selected loop, which trusts its caller.  `KnnIndex` lays out the
triples of a `RatingDataset`, checked when it was built, along both axes
with `cobar.data.csr_rows`.  Both backends give the same merges, heights,
MF updates and kNN aggregates bit for bit: only speed depends on BACKEND.
"""

from __future__ import annotations

import importlib.util
import math
import operator

import numpy as np

from ..data import RatingDataset, _check_range, _checked, csr_rows
from . import _python

_REBUILD = "rebuild it with: python setup.py build_ext --inplace --force"

try:
    from . import _compiled
except ImportError as exc:
    # only a missing extension selects the numpy loops: one that exists but
    # cannot load, e.g. a truncated file, stops the import
    _spec = importlib.util.find_spec(f"{__name__}._compiled")
    if _spec is not None:
        raise ImportError(f"extension {_spec.origin} cannot be loaded; {_REBUILD}") from exc
    _compiled = None

_missing = [name for name in ("ward_loop", "sgd_epoch", "knn_query") if _compiled and not hasattr(_compiled, name)]
if _missing:
    # an extension built from older source, e.g. one a build reused
    # because its file times looked up to date
    raise ImportError(
        f"stale extension {getattr(_compiled, '__file__', _compiled.__name__)} lacks {', '.join(_missing)}; {_REBUILD}"
    )

BACKEND: str = "c" if _compiled is not None else "python"
_loops = _compiled or _python


def ward_linkage(d2) -> tuple[np.ndarray, np.ndarray]:
    """Agglomerative merge loop with Ward updates on squared distances.

    Parameters
    ----------
    d2:
        Condensed squared pairwise distances between the n singleton
        clusters: a writable, C-contiguous 1-D float64 array of n(n-1)/2
        entries, pair i < j at ``i*n - i*(i+1)//2 + j - i - 1`` (the order
        of `scipy.spatial.distance.pdist`), every entry finite and
        nonnegative; `TypeError` or `ValueError` otherwise.  It is the
        loop's working memory: its contents are undefined after the call.

    Returns
    -------
    merges:
        (n-1, 2) int64 array of merged node ids, each row sorted ascending.
        Leaves are 0..n-1; merge m creates node n+m.
    heights:
        (n-1,) float64 linkage values in the squared-distance domain,
        non-decreasing; a zero height is always +0.0.

    Equal minimal linkages are broken by the lexicographically smallest
    (id, id) pair, which makes the result deterministic.  A linkage that
    overflows to a height that is not finite raises `OverflowError`.
    """
    d2 = _checked("d2", d2, 1, "float64", writable=True)
    length = len(d2)
    n = (1 + math.isqrt(1 + 8 * length)) // 2
    if n * (n - 1) // 2 != length:
        raise ValueError(f"d2 has {length} entries, which is not n(n-1)/2 for any n")
    # min() and max() propagate NaN, so one comparison catches it
    if length and not (d2.min() >= 0.0 and d2.max() < np.inf):
        raise ValueError("squared distances must be finite and nonnegative")
    merges = np.empty((n - 1, 2), dtype=np.int64)
    heights = np.empty(n - 1, dtype=np.float64)
    if n > 1:
        _loops.ward_loop(d2, merges, heights)
        # a loop stops at the first height that is not finite
        if not np.isfinite(heights).all():
            raise OverflowError("Ward linkage overflowed: a merge height is not finite")
        # the loops may keep different zeros of a d2 holding -0.0; adding
        # +0.0 turns -0.0 into +0.0 and leaves every other height as it is
        heights += 0.0
    return merges, heights


def mf_sgd_epoch(users, items, ratings, order, user_factors, item_factors, user_bias, item_bias,
                 global_mean: float, learning_rate: float, regularization: float) -> None:
    """One stochastic gradient pass over the ratings, updating the factors
    and biases in place.

    Every array is 1-D and C-contiguous: int32 `users` and `items`,
    float64 `ratings`, int64 `order`, and the written float64 factors (2-D,
    with equal column counts) and biases (one per factor row); `TypeError`
    or `ValueError` otherwise.  `order` gives the sample visiting order,
    drawn outside the kernel so that both backends follow the same
    trajectory.  An entry of `order`, `users` or `items` outside its array
    raises `IndexError`.  Everything is checked before anything is written.
    The triples come bare, not as a `RatingDataset`, so they are checked here.
    """
    users = _checked("users", users, 1, "int32")
    items = _checked("items", items, 1, "int32")
    ratings = _checked("ratings", ratings, 1, "float64")
    order = _checked("order", order, 1, "int64")
    user_factors = _checked("user_factors", user_factors, 2, "float64", writable=True)
    item_factors = _checked("item_factors", item_factors, 2, "float64", writable=True)
    user_bias = _checked("user_bias", user_bias, 1, "float64", writable=True)
    item_bias = _checked("item_bias", item_bias, 1, "float64", writable=True)
    if not len(users) == len(items) == len(ratings):
        raise ValueError("users, items and ratings must have the same length")
    if user_factors.shape[1] != item_factors.shape[1]:
        raise ValueError("user_factors and item_factors must have the same number of columns")
    if len(user_bias) != len(user_factors) or len(item_bias) != len(item_factors):
        raise ValueError("user_bias and item_bias must have one entry per factor row")
    _check_range("order", order, len(ratings))
    _check_range("users", users, len(user_factors))
    _check_range("items", items, len(item_factors))
    _loops.sgd_epoch(users, items, ratings, order, user_factors, item_factors, user_bias, item_bias,
                     global_mean, learning_rate, regularization)


class KnnIndex:
    """The mean-centred cosine kNN query of `UserKnn` and `ItemKnn`.

    The *entities* are the rows compared with each other, and the
    *columns* the other axis: the users and items of the training
    `RatingDataset`, which checked its triples, when `user_major` is true,
    its items and users otherwise.  `means` holds one float64 per entity
    and `k` >= 1; `TypeError` or `ValueError` otherwise.  It lays the
    ratings out with `cobar.data.csr_rows`, in CSR form along both axes
    with every row sorted, plus the norms, so each query checks only its
    own arguments before the loop reads the arrays unchecked.
    """

    def __init__(self, train: RatingDataset, user_major: bool, means, k: int):
        if not isinstance(train, RatingDataset):
            raise TypeError(f"train must be a RatingDataset, not {type(train).__name__}")
        if user_major:
            entities, columns, self.n_entities, self.n_columns = train.users, train.items, train.n_users, train.n_items
        else:
            entities, columns, self.n_entities, self.n_columns = train.items, train.users, train.n_items, train.n_users
        means = _checked("means", means, 1, "float64")
        if len(means) != self.n_entities:
            raise ValueError(f"means has {len(means)} entries, not one per entity ({self.n_entities})")
        self.k = operator.index(k)
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        rows = csr_rows(entities, columns, train.ratings, self.n_entities, self.n_columns)
        cols = csr_rows(columns, entities, train.ratings, self.n_columns, self.n_entities)
        # each row's squares summed in ascending column order
        entity_of = np.repeat(np.arange(self.n_entities), np.diff(rows[0]))
        norms = np.sqrt(np.bincount(entity_of, weights=rows[2] * rows[2], minlength=self.n_entities))
        # the compiled loop's dot products, zeroed again after every query
        self._arrays = (*rows, *cols, norms, means.copy(), np.zeros(self.n_entities))

    def query(self, entity: int, column: int) -> float | None:
        """The similarity-weighted mean deviation of the `k` neighbours most
        similar to `entity` among the other entities rated in `column`,
        counting only positive similarities; at equal similarity the lower
        entity index wins.  None when no neighbour has positive similarity.
        An index out of range raises `IndexError`."""
        entity, column = operator.index(entity), operator.index(column)
        if not 0 <= entity < self.n_entities:
            raise IndexError(f"entity {entity} out of range [0, {self.n_entities})")
        if not 0 <= column < self.n_columns:
            raise IndexError(f"column {column} out of range [0, {self.n_columns})")
        return _loops.knn_query(*self._arrays, entity, column, self.k)
