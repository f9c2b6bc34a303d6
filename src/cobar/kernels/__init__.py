"""The hot kernels: one checked entry each, over a compiled or a numpy loop.

Eight compiled loops, in the C extension `_compiled` when a C compiler is
available at install time: the cosine distance pass and the Ward merge
loop of cobar's user hierarchy, the MF SGD epoch, the kNN query, the build
of cobar's cluster statistics, cobar's whole prediction, which walks them,
the tokenizer of a rating file, and the counting sort behind `csr_rows`.
Without it the numpy loops in `_python` run, and every rating file takes
the line loop of `cobar.data.parse_ratings`.  ``BACKEND`` names the loops selected at
import: ``"c"`` when `_compiled` imports, ``"python"`` when there is no
`_compiled`; one that exists but cannot load, or reads the loops'
arguments in another layout, as every extension that lacks a loop does,
stops the import with the rebuild command.  `csr_rows`, `cosine_distance_matrix`, `ward_linkage`,
`mf_sgd_epoch`, `KnnIndex`, `ClusterStatsIndex` and `tokenize` check their
arguments, once for both backends, before they call the selected loop,
which trusts its caller with every array.  `csr_rows` is the package's
one CSR builder, whose int32 indices, beside int64 indptrs, every loop
reads.  A `RatingDataset`, which checked its triples when it was built,
lays them out with it along both axes once, on first read, and `KnnIndex`
reads those two read-only layouts.  `cosine_distance_matrix` lays out along
both axes only the ratings of the users it is given, by their position
in that list; `ClusterStatsIndex` lays them out per item over the leaf
ranges of a `Dendrogram`, which checked its tree when built, and its loop
finds each gap's int64 node as it fills the gap's entry; it keeps no
ratings, and cobar's query walks from a leaf up by the tree's parent ids.
The index builds or references every array cobar's query reads, each
user's leaf and the training set's user and item means among them, so no
array crosses its `bind`.  The query loops, which run once per
prediction, are bound to their arrays once: the whole kNN prediction by
`KnnIndex.bind(lo, hi)`, and cobar's at one confidence level and one
gamma, a float run and a detail run that share one interval walk, by
`ClusterStatsIndex.bind(level, gamma, lo, hi)`, each called once by a
fit; a pickle holds the arrays, and a loaded kNN or cobar model binds
again.  Every bound query reads a (user, item) pair and checks it
itself, with the `TypeError` and `ValueError` of every predictor's
`predict` on both backends, so each kNN or cobar prediction is one
bound call, which also walks the fallbacks and clamps.  The t quantiles of a confidence level are computed once per
process, in one read-only table that grows by doubling; each bound cobar
query reads a prefix of it.  The cosine loops sum each dot
product item by item in ascending order, as scipy's sparse product does,
and clip ``1 - (dot / norm_i) / norm_j`` to [0, 2] with NaN passing.  The two Ward
loops are one algorithm: they square the distances in place,
checking each as they square it, and merge the same pair with the same
Lance-Williams operands at every step, found through the same slots and
lazy bounds on the rows' minima.  Both backends give the same distances,
merges, heights, CSR layouts, MF updates, kNN aggregates, cluster
statistics and parsed datasets bit for bit: only speed depends on BACKEND.

Only data crosses into a loop: no entry hands one a work buffer.  Both
backends' cosine pass and Ward loop run on the calling thread, and the
compiled ones release the GIL.  The compiled kNN query allocates its work
buffers once, when it is bound, and the compiled queries keep the GIL.
"""

from __future__ import annotations

import importlib.util
import math
import operator
from collections.abc import Callable

import numpy as np

from .._special import stdtrit
from ..data import MeanStats, RatingDataset, _check_range, _checked, _read_only, _ReadOnlyState
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

# the layout of the arguments the entries below hand the compiled loops,
# and of the checks the loops make, `LAYOUT` in `_compiled.c`; an extension
# from before it has layout 1.  Every change of a loop raised it, so this
# also rejects an extension built from older source that lacks a loop,
# e.g. one a build reused because its file times looked up to date
_LAYOUT = 11
if _compiled and getattr(_compiled, "LAYOUT", 1) != _LAYOUT:
    # e.g. an extension whose queries read int32 indices as int64
    raise ImportError(
        f"stale extension {getattr(_compiled, '__file__', _compiled.__name__)} has argument layout "
        f"{getattr(_compiled, 'LAYOUT', 1)}, not {_LAYOUT}; {_REBUILD}"
    )

BACKEND: str = "c" if _compiled is not None else "python"
_loops = _compiled or _python


def cosine_distance_matrix(dataset: RatingDataset, users) -> np.ndarray:
    """Condensed pairwise cosine distances between the given users' rating vectors.

    `dataset` is a `RatingDataset`, which checked its triples, and `users`
    a 1-D array of distinct user indices of it; `TypeError`, `ValueError`
    or `IndexError` otherwise.  Every listed user must have a nonzero
    rating vector, or `ValueError` names its position.  Returns the
    n(n-1)/2 distances ``1 - cos``, clipped to [0, 2], of the pairs i < j of
    positions in `users`, in the order of `scipy.spatial.distance.pdist`:
    pair (i, j) sits at ``i*n - i*(i+1)//2 + j - i - 1``.

    The listed users' ratings are laid out with `csr_rows`, by int32
    position and by item, and each norm is the square root of the row's
    nonzero squares summed as scipy's ``R.multiply(R).sum(axis=1)`` sums
    them.  Every other temporary is freed before the result, the only array
    of size n^2, is allocated.  The cost is driven by the number of ratings
    and n^2, not by n * n_items.
    """
    if not isinstance(dataset, RatingDataset):
        raise TypeError(f"dataset must be a RatingDataset, not {type(dataset).__name__}")
    users = np.asarray(users)
    if users.ndim != 1:
        raise ValueError(f"users must be 1-dimensional, got {users.ndim} dimensions")
    if len(users) and users.dtype.kind not in "iu":
        raise TypeError(f"users must hold integers, got {users.dtype}")
    users = users.astype(np.int64, copy=False)
    _check_range("users", users, dataset.n_users)
    n = len(users)
    position = np.full(dataset.n_users, -1, dtype=np.int32)
    position[users] = np.arange(n)
    if np.count_nonzero(position >= 0) != n:
        raise ValueError("users holds a repeated user")
    rated = position[dataset.users]
    kept = rated >= 0
    positions, items, ratings = rated[kept], dataset.items[kept], dataset.ratings[kept]
    del position, rated, kept
    rows = csr_rows(positions, items, ratings, n, dataset.n_items)
    cols = csr_rows(items, positions, ratings, dataset.n_items, n)
    del positions, items, ratings
    norms = np.sqrt(_nonzero_square_sums(rows[0], rows[2]))
    if np.any(norms == 0.0):
        bad = int(np.flatnonzero(norms == 0.0)[0])
        raise ValueError(f"user at position {bad} has a zero-norm rating vector")
    dist = np.empty(n * (n - 1) // 2, dtype=np.float64)
    _loops.cosine_rows(*rows, *cols, norms, dist)
    return dist


def _nonzero_square_sums(indptr: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Each CSR row's sum of squares, with the bits of scipy's
    ``R.multiply(R).sum(axis=1)``: `multiply` drops the squares that are
    zero, and the sum is `np.add.reduceat` over each non-empty row of the
    rest.  Keeping the zeros would change the pairwise summation tree, and
    the `bincount` norms of `KnnIndex` round differently off a binary-exact
    scale."""
    squares = data * data
    nonzero = squares != 0.0
    before = np.zeros(len(data) + 1, dtype=np.int64)
    np.cumsum(nonzero, out=before[1:])
    bounds = before[indptr]   # the nonzero squares of the rows before each row
    sums = np.zeros(len(indptr) - 1)
    filled = bounds[1:] > bounds[:-1]
    if filled.any():
        sums[filled] = np.add.reduceat(squares[nonzero], bounds[:-1][filled])
    return sums


def csr_rows(keys, others, ratings, n_keys: int, n_others: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rating triples in CSR form with `keys` as rows, each row sorted
    by `others`: int64 indptr, int32 indices and float64 data, explicit
    zeros kept.  `keys` and `others` are C-contiguous 1-D int32 arrays, as a
    `RatingDataset` stores its users and items; `TypeError` for any other
    width, before the loop runs.  The triples are a `RatingDataset`'s,
    checked there, so every index is in range and no pair repeats.  The
    package's one CSR builder: the cosine pass, the cluster statistics and
    a `RatingDataset`'s two cached layouts, which `KnnIndex` reads, are all
    built by it.  The compiled backend orders the triples by a two-pass
    counting sort, O(ratings + n_keys + n_others), the numpy one by an
    argsort of ``key * n_others + other``; the pairs are unique, so both
    give the same arrays."""
    keys = _checked("keys", keys, 1, "int32")
    others = _checked("others", others, 1, "int32")
    indptr, indices = np.empty(n_keys + 1, dtype=np.int64), np.empty(len(keys), dtype=np.int32)
    data = np.empty(len(keys))
    _loops.csr_fill(keys, others, ratings, n_others, indptr, indices, data)
    return indptr, indices, data


def ward_linkage(d) -> tuple[np.ndarray, np.ndarray]:
    """Agglomerative merge loop with Ward updates, on pairwise distances,
    as ``scipy.cluster.hierarchy.linkage(d, "ward")`` takes them.

    Parameters
    ----------
    d:
        Condensed pairwise distances between the n singleton clusters: a
        writable, C-contiguous 1-D float64 array of n(n-1)/2 entries, pair
        i < j at ``i*n - i*(i+1)//2 + j - i - 1`` (the order of
        `scipy.spatial.distance.pdist`); `TypeError` or `ValueError`
        otherwise.  Every entry must be finite and nonnegative with a
        finite square; the loop squares the entries in place and raises
        `ValueError` before any merge is made otherwise.  It is the loop's
        working memory: its contents are undefined after the call.

    Returns
    -------
    merges:
        (n-1, 2) int64 array of merged node ids, each row sorted ascending.
        Leaves are 0..n-1; merge m creates node n+m.
    heights:
        (n-1,) float64 merge heights, the square roots of the linkage
        values of the squared distances, non-decreasing; a zero height is
        always +0.0, as squaring turns a -0.0 entry into +0.0.

    Equal minimal linkages are broken by the lexicographically smallest
    (id, id) pair, which makes the result deterministic.  A linkage that
    overflows to a height that is not finite raises `OverflowError`.
    """
    d = _checked("d", d, 1, "float64", writable=True)
    length = len(d)
    n = (1 + math.isqrt(1 + 8 * length)) // 2
    if n * (n - 1) // 2 != length:
        raise ValueError(f"d has {length} entries, which is not n(n-1)/2 for any n")
    merges = np.empty((n - 1, 2), dtype=np.int64)
    heights = np.empty(n - 1, dtype=np.float64)
    if n > 1:
        _loops.ward_loop(d, merges, heights)
        # a loop stops at the first height that is not finite
        if not np.isfinite(heights).all():
            raise OverflowError("Ward linkage overflowed: a merge height is not finite")
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


def tokenize(data, delimiter: str, skip_header: bool) -> tuple | None:
    r"""The records of a rating file's bytes, as the line loop of
    `cobar.data.parse_ratings` reads them, or None for an input that loop
    must read itself.

    `data` is the file's `bytes` and `delimiter` a non-empty str;
    `TypeError` or `ValueError` otherwise.  Returns ``(user_ids, item_ids,
    users, items, ratings)``: the ids in first-seen order and int32, int32
    and float64 columns with one entry per record in line order, repeated
    pairs included.  The compiled loop reads a strict ASCII subset: an
    ASCII delimiter, every byte ASCII after an optional UTF-8 byte-order
    mark, lines ending in ``\n`` or ``\r\n``, and on every line that is
    neither blank nor the skipped header, at least three fields, non-empty
    ids and a rating that `float()`'s parser reads whole, with no
    underscore, to a finite value; the loop runs that parser in place.  It
    returns None for any other input, as the numpy backend does for every
    input.
    """
    if not isinstance(data, bytes):
        raise TypeError(f"data must be bytes, not {type(data).__name__}")
    if not isinstance(delimiter, str):
        raise TypeError(f"delimiter must be a str, not {type(delimiter).__name__}")
    if not delimiter:
        raise ValueError("delimiter must not be empty")
    if not delimiter.isascii():
        return None
    # one entry per line at most
    size = data.count(b"\n") + 1
    users, items, ratings = np.empty(size, dtype=np.int32), np.empty(size, dtype=np.int32), np.empty(size)
    found = _loops.tokenize(data, delimiter.encode("ascii"), bool(skip_header), users, items, ratings)
    if found is None:
        return None
    user_ids, item_ids, n = found
    return user_ids, item_ids, users[:n], items[:n], ratings[:n]


class KnnIndex(_ReadOnlyState):
    """The mean-centred cosine kNN prediction of `UserKnn` and `ItemKnn`.

    The *entities* are the rows compared with each other, and the
    *columns* the other axis: the users and items of the training
    `RatingDataset`, which checked its triples, when `user_major` is true,
    its items and users otherwise.  `stats` is the entities' `MeanStats`,
    with one float64 mean per entity, and `k` >= 1; `TypeError` or
    `ValueError` otherwise.  The index lays nothing out: it reads the
    dataset's `user_layout` and `item_layout`, built once per dataset by
    `csr_rows` with every row sorted and int32 indices, and the read-only
    means of the `MeanStats`, not copied, beside its global mean; like
    every array the index reads, they are made read-only.  It adds the
    entities' norms, so its bound query, the whole prediction of `bind`,
    checks only its pair before the loop reads the arrays unchecked.

    The compiled loop computes only the dot products a query reads, those
    of the entity with the neighbours in the column, from the side that
    visits fewer elements: it scatters the entity's columns into a scratch
    indexed by entity, or walks each neighbour's row against the entity's
    ratings staged in a scratch indexed by column.  Both add the products
    in ascending column order from +0.0, as the numpy loop's `bincount`
    does; the walk also adds a zero product for each column the entity did
    not rate, which changes no bit, as a sum of finite terms begun at +0.0
    is never -0.0.  Each `bind` binds the loop to the arrays and k, with k
    capped at the entity count, which changes no neighbour set; the
    compiled bound query then allocates its work buffers, the scratch among
    them, which each query leaves zeroed, and holds them until it is freed.
    It keeps the GIL throughout a query, so queries from several threads
    never see each other's work.
    """

    _READ_ONLY, _STATE = ("_arrays",), ("_arrays", "_global_mean", "user_major", "k")

    def __init__(self, train: RatingDataset, user_major: bool, stats: MeanStats, k: int):
        if not isinstance(train, RatingDataset):
            raise TypeError(f"train must be a RatingDataset, not {type(train).__name__}")
        if not isinstance(stats, MeanStats):
            raise TypeError(f"stats must be a MeanStats, not {type(stats).__name__}")
        self.user_major = bool(user_major)
        layouts = (train.user_layout, train.item_layout)
        rows, cols = layouts if self.user_major else layouts[::-1]
        n_entities = len(rows[0]) - 1
        means = _checked("means", stats.means, 1, "float64")
        if len(means) != n_entities:
            raise ValueError(f"means has {len(means)} entries, not one per entity ({n_entities})")
        self.k = operator.index(k)
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        # each row's squares summed in ascending column order
        entity_of = np.repeat(np.arange(n_entities), np.diff(rows[0]))
        norms = np.sqrt(np.bincount(entity_of, weights=rows[2] * rows[2], minlength=n_entities))
        self._arrays = (*rows, *cols, norms, means)
        self._global_mean = float(stats.global_mean)
        self._restore()

    def bind(self, lo: float, hi: float) -> Callable[[int, int], float]:
        """The whole prediction clamped to [lo, hi], bound to the index's
        arrays: ``query(user, item)``.  It reads the pair by
        `operator.index` and raises `ValueError` for a user, then an item,
        out of range of the training set, as `predict` of every predictor
        does.  An entity without training ratings, a NaN mean, gets the
        global mean.  Any other gets its mean plus the similarity-weighted
        mean deviation of the `k` neighbours most similar to it among the
        other entities rated in the column, counting only positive
        similarities, at equal similarity the lower entity index first; or
        its mean alone when no neighbour has positive similarity.  The
        value is clamped by two comparisons, which let NaN pass."""
        # the compiled bind reads k as a C integer; the norms are one per entity
        k = min(self.k, max(len(self._arrays[6]), 1))
        return _loops.bind_knn_query(*self._arrays, self._global_mean, k, float(lo), float(hi), self.user_major)


# per confidence level, its read-only table of t quantiles so far
_t_tables: dict[float, np.ndarray] = {}


def _t_critical_table(level: float, size: int) -> np.ndarray:
    """Entry d is the two-sided Student-t critical value at `level` with d
    degrees of freedom (NaN at d = 0): the kernel behind scipy's
    ``t.ppf(0.5 + level / 2, d)``, with the same bits.  The `size` entries
    are a read-only prefix of the level's table, which is computed once
    per process and grows by doubling; each entry depends only on its
    index and the level, so a prefix has the bits of a table of `size`."""
    table = _t_tables.get(level)
    if table is None or len(table) < size:
        length = 64 if table is None else len(table)
        while length < size:
            length *= 2
        table = _t_tables[level] = stdtrit(np.arange(length), 0.5 + level / 2.0)
        _read_only(table)
    return table[:size]


class ClusterStatsIndex(_ReadOnlyState):
    """Everything cobar's narrowest-interval query reads, in O(ratings +
    users + items) arrays: the rating statistics of every cluster of a user
    hierarchy, per item, and the per-user and per-item values of the
    fallback chain and the blend.

    The hierarchy is a `Dendrogram` over users of `train`, a
    `RatingDataset`; both checked their arrays when built, so this checks
    only their types and that the leaf users are in range: `TypeError` or
    `IndexError` otherwise.  It reads the dendrogram's `nodes`, not a copy,
    where every node covers a contiguous range of leaf positions.  For each
    item the index keeps its r raters' sorted positions, not their ratings,
    and for each of the r - 1 gaps between adjacent raters one entry (sum,
    sum of squares, min, max): the statistics of the lowest node that holds
    both raters, the sum of the two ranges that node joins.  That is the
    addition a bottom-up merge of per-node maps makes, so every (node, item)
    statistic of two or more ratings is, bit for bit, one of these entries.
    Ratings of users outside the hierarchy are left out.  The ratings are
    laid out by item with `csr_rows`, their raters' leaf positions int32;
    the selected loop then finds each gap's node, an int64 node id, walking
    up from the left rater's leaf until the node's range holds the right
    rater, and fills the gap's entry in the same pass.  Beside them the
    index holds each user's leaf, -1 outside the hierarchy, and references
    to the training set's cached, read-only user and item means and its
    global mean.  `bind` makes cobar's whole query at one confidence level
    and one gamma; the index holds neither.
    """

    _READ_ONLY, _STATE = ("_arrays", "_lookup"), ("_arrays", "_lookup", "_global_mean", "_most_raters")

    def __init__(self, dendrogram, train: RatingDataset):
        from ..clustering import Dendrogram   # which imports this module
        if not isinstance(dendrogram, Dendrogram):
            raise TypeError(f"dendrogram must be a Dendrogram, not {type(dendrogram).__name__}")
        if not isinstance(train, RatingDataset):
            raise TypeError(f"train must be a RatingDataset, not {type(train).__name__}")
        _check_range("leaf_users", dendrogram.leaf_users, train.n_users)
        n, n_items, nodes = dendrogram.n_leaves, train.n_items, dendrogram.nodes

        # the leaf users' ratings in (item, position) order
        position = np.full(train.n_users, -1, dtype=np.int32)
        position[dendrogram.leaf_users] = nodes[0, :n]
        rated = position[train.users]
        kept = rated >= 0
        index = np.zeros((2, n_items + 1), dtype=np.int64)
        index[0], positions, ratings = csr_rows(train.items[kept], rated[kept], train.ratings[kept], n_items, n)
        counts = np.diff(index[0])
        np.cumsum(np.maximum(counts - 1, 0), out=index[1, 1:])
        # the loop finds each gap's node and fills its entry
        gap_nodes = np.empty(index[1, -1], dtype=np.int64)
        gaps = np.empty((4, len(gap_nodes)))
        _loops.stats_build(index, positions, ratings, nodes, gap_nodes, gaps)
        self._arrays = (index, positions, gap_nodes, gaps, nodes)
        self._most_raters = max(2, int(counts.max(initial=0)))
        leaf_of = np.full(train.n_users, -1, dtype=np.int64)
        leaf_of[dendrogram.leaf_users] = np.arange(n)
        # (user_means, item_means, leaf_of): what the query reads per user and per item
        self._lookup = (train.user_stats.means, train.item_stats.means, leaf_of)
        self._global_mean = train.user_stats.global_mean
        self._restore()

    @property
    def n_entries(self) -> int:
        """Stored (n, sum, sum of squares, min, max) statistics: one per rating,
        as its rater's position, and one per gap: 2r - 1 for r >= 1 raters."""
        return len(self._arrays[1]) + len(self._arrays[2])

    def bind(self, level: float, gamma: float, lo: float,
             hi: float) -> tuple[Callable[[int, int], float], Callable[[int, int], tuple]]:
        """Cobar's whole query at confidence `level`, in (0, 1), and weight
        `gamma`, clamped to [lo, hi], bound to the index's arrays and a
        prefix of the level's t quantiles: ``(predict, detail)``, two calls
        of ``(user, item)``.  A level outside (0, 1), or NaN, raises
        `ValueError` before any loop runs.  Both calls read the indices by
        `operator.index` and raise `ValueError` for a user, then an item,
        out of range of the training set, as `predict` of every predictor
        does.

        A user without training ratings, a NaN mean, gets the global mean,
        one outside the hierarchy the user's mean.  Otherwise the walk
        scores every cluster on the leaf's path up to the root, by the
        parent ids, that holds two or more of the item's ratings, by its
        two-sided Student-t interval for the item's mean rating; a wider
        cluster must be strictly narrower, so at equal width the smaller
        one wins.  The narrowest gets ``gamma * user_mean + (1 - gamma) *
        total / n``, with the node's count and sum of the item's ratings,
        and an item without one the user's mean.  The value is clamped to
        [lo, hi] by two comparisons, which let NaN pass.  `predict` returns
        it as a float, `detail` as ``(value, fallback, node, size,
        cluster_mean, half_width, user_mean)``, the fields of a
        `cobar.core.Prediction` with the fallback as its code: 0 to 4 for
        the interval, a single rating, a cold item, a cold user and an
        unclustered user.
        """
        if not 0.0 < level < 1.0:
            raise ValueError(f"confidence level must be in (0, 1), got {level}")
        # n ratings read the entry at n - 1 degrees of freedom
        table = _t_critical_table(level, self._most_raters)
        args = (*self._arrays, table, *self._lookup, self._global_mean, float(gamma), float(lo), float(hi))
        return _loops.bind_cobar_query(*args, False), _loops.bind_cobar_query(*args, True)
