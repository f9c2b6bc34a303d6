"""The hot kernels: one checked entry each, over a compiled or a numpy loop.

Seven compiled loops, in the C extension `_compiled` when a C compiler is
available at install time: the cosine distance pass and the Ward merge
loop of cobar's user hierarchy, the MF SGD epoch, the kNN query, the build
and query of cobar's cluster statistics, the tokenizer of a rating file,
and the counting sort behind `csr_rows`.  Without it the numpy loops in
`_python` run, and every rating file takes the line loop of
`cobar.data.parse_ratings`.  ``BACKEND`` names the loops selected at
import: ``"c"`` when `_compiled` imports, ``"python"`` when there is no
`_compiled`; one that exists but cannot load, lacks a loop, or reads the
loops' arguments in another layout, stops the import with the rebuild
command.  `csr_rows`, `cosine_distance_matrix`, `ward_linkage`,
`mf_sgd_epoch`, `KnnIndex`, `ClusterStatsIndex` and `tokenize` check their
arguments, once for both backends, before they call the selected loop,
which trusts its caller.  `csr_rows` is the package's one CSR builder,
whose int32 indices, beside int64 indptrs, every loop reads.  A
`RatingDataset`, which checked its triples when it was built, lays them
out with it along both axes once, on first read, and `KnnIndex` reads
those two read-only layouts.  `cosine_distance_matrix` lays out along
both axes only the ratings of the users it is given, by their position
in that list; `ClusterStatsIndex` lays them out per item over the leaf
ranges of a `Dendrogram`, which checked its tree when built, and its loop
finds each gap's int64 node as it fills the gap's entry.  The two query
loops, which run once per prediction, are bound to their arrays once:
`KnnIndex` at construction, `ClusterStatsIndex` per confidence level on
its first query; a pickle holds the arrays, and both bind again when it
is loaded.  The cosine loops sum each dot product item by item in
ascending order, as scipy's sparse product does, and clip
``1 - (dot / norm_i) / norm_j`` to [0, 2] with NaN passing.  The two Ward
loops are one algorithm: they square the distances in place,
checking each as they square it, and merge the same pair with the same
Lance-Williams operands at every step, found through the same slots and
lazy bounds on the rows' minima.  Both backends give the same distances,
merges, heights, CSR layouts, MF updates, kNN aggregates, cluster
statistics and parsed datasets bit for bit: only speed depends on BACKEND.

Only data crosses into a loop: no entry hands one a thread count or a
work buffer.  The compiled cosine pass and Ward loop release the GIL and
pick their own thread count: 2 when the input is above the loop's floor
(`COSINE_FLOOR` users, `WARD_FLOOR` clusters, 2,000 each) and the process
may run on two CPUs, 1 otherwise, with no option for it.  They return the
count, which the entries ignore.  With 2 they split their rows, or each
merge's update and move, with one worker thread.  The numpy loops run on
one thread.  Results never depend on the thread count.  The compiled kNN
query allocates its work buffers once, when it is bound, and the compiled
queries keep the GIL.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import operator
from collections.abc import Callable, Mapping

import numpy as np

from .._special import stdtrit
from ..data import RatingDataset, _check_range, _checked
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

_missing = [name for name in ("ward_loop", "sgd_epoch", "bind_knn_query", "stats_build", "bind_stats_query",
                              "cosine_rows", "tokenize", "csr_fill")
            if _compiled and not hasattr(_compiled, name)]
if _missing:
    # an extension built from older source, e.g. one a build reused
    # because its file times looked up to date
    raise ImportError(
        f"stale extension {getattr(_compiled, '__file__', _compiled.__name__)} lacks {', '.join(_missing)}; {_REBUILD}"
    )
# the layout of the arguments the entries below hand the compiled loops,
# `LAYOUT` in `_compiled.c`; an extension from before it has layout 1
_LAYOUT = 7
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


class KnnIndex:
    """The mean-centred cosine kNN query of `UserKnn` and `ItemKnn`.

    The *entities* are the rows compared with each other, and the
    *columns* the other axis: the users and items of the training
    `RatingDataset`, which checked its triples, when `user_major` is true,
    its items and users otherwise.  `means` holds one float64 per entity
    and `k` >= 1; `TypeError` or `ValueError` otherwise.  The index lays
    nothing out: it reads the dataset's `user_layout` and `item_layout`,
    built once per dataset by `csr_rows` with every row sorted and int32
    indices, and the means as given, not copied, as a `MeanStats` holds
    them read-only.  It adds the entities' norms, so each query checks only
    its own arguments before the loop reads the arrays unchecked.  All of
    them stay read-only when a pickle is loaded.

    The compiled loop computes only the dot products a query reads, those
    of the entity with the neighbours in the column, from the side that
    visits fewer elements: it scatters the entity's columns into a scratch
    indexed by entity, or walks each neighbour's row against the entity's
    ratings staged in a scratch indexed by column.  Both add the products
    in ascending column order from +0.0, as the numpy loop's `bincount`
    does; the walk also adds a zero product for each column the entity did
    not rate, which changes no bit, as a sum of finite terms begun at +0.0
    is never -0.0.  The loop is bound to its arrays and k here, once, with k
    capped at the entity count, which changes no neighbour set; the
    compiled bound query then allocates its work buffers, the scratch among
    them, which each query leaves zeroed, and holds them until it is freed.
    It keeps the GIL throughout a query, so queries from several threads
    never see each other's work.
    """

    def __init__(self, train: RatingDataset, user_major: bool, means, k: int):
        if not isinstance(train, RatingDataset):
            raise TypeError(f"train must be a RatingDataset, not {type(train).__name__}")
        layouts = (train.user_layout, train.item_layout)
        rows, cols = layouts if user_major else layouts[::-1]
        self.n_entities, self.n_columns = len(rows[0]) - 1, len(cols[0]) - 1
        means = _checked("means", means, 1, "float64")
        if len(means) != self.n_entities:
            raise ValueError(f"means has {len(means)} entries, not one per entity ({self.n_entities})")
        self.k = operator.index(k)
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        # each row's squares summed in ascending column order
        entity_of = np.repeat(np.arange(self.n_entities), np.diff(rows[0]))
        norms = np.sqrt(np.bincount(entity_of, weights=rows[2] * rows[2], minlength=self.n_entities))
        norms.flags.writeable = False
        self._arrays = (*rows, *cols, norms, means)
        self._bind()

    def _bind(self):
        # the compiled bind reads k as a C integer
        self._query = _loops.bind_knn_query(*self._arrays, min(self.k, max(self.n_entities, 1)))

    def __getstate__(self):
        # a compiled bound query cannot be pickled; the arrays it reads can
        return {**self.__dict__, "_query": None}

    def __setstate__(self, state):
        # numpy loads a pickled array writable: keep the bound query's read-only
        self.__dict__.update(state)
        for array in self._arrays:
            array.flags.writeable = False
        self._bind()

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
        return self._query(entity, column)


def _t_critical_table(level: float, size: int) -> np.ndarray:
    """Entry d is the two-sided Student-t critical value at `level` with d
    degrees of freedom (NaN at d = 0): the kernel behind scipy's
    ``t.ppf(0.5 + level / 2, d)``, with the same bits."""
    return stdtrit(np.arange(size), 0.5 + level / 2.0)


class ClusterStatsIndex:
    """The rating statistics of every cluster of a user hierarchy, per item,
    for cobar's narrowest-interval query, in O(ratings) arrays.

    The hierarchy is a `Dendrogram` over users of `train`, a
    `RatingDataset`; both checked their arrays when built, so this checks
    only their types and that the leaf users are in range: `TypeError` or
    `IndexError` otherwise.  It reads the dendrogram's `nodes`, not a copy,
    where every node covers a contiguous range of leaf positions.  For each
    item the index keeps its r raters' sorted positions and ratings and, for
    each of the r - 1 gaps between adjacent raters, one entry (sum, sum of
    squares, min, max): the statistics of the lowest node that holds both
    raters, the sum of the two ranges that node joins.  That is the addition
    a bottom-up merge of per-node maps makes, so every (node, item) statistic
    is, bit for bit, one of these 2r - 1 entries.  Ratings of users outside
    the hierarchy are left out.  The ratings are laid out by item with
    `csr_rows`, their raters' leaf positions int32; the selected loop then
    finds each gap's node, an int64 node id, walking up from the left
    rater's leaf until the node's range holds the right rater, and fills the
    gap's entry in the same pass.
    """

    def __init__(self, dendrogram, train: RatingDataset):
        from ..clustering import Dendrogram   # which imports this module
        if not isinstance(dendrogram, Dendrogram):
            raise TypeError(f"dendrogram must be a Dendrogram, not {type(dendrogram).__name__}")
        if not isinstance(train, RatingDataset):
            raise TypeError(f"train must be a RatingDataset, not {type(train).__name__}")
        _check_range("leaf_users", dendrogram.leaf_users, train.n_users)
        n = self.n_leaves = dendrogram.n_leaves
        self.n_nodes, self.n_items = dendrogram.n_nodes, train.n_items
        nodes = dendrogram.nodes

        # the leaf users' ratings in (item, position) order
        position = np.full(train.n_users, -1, dtype=np.int32)
        position[dendrogram.leaf_users] = nodes[0, :n]
        rated = position[train.users]
        kept = rated >= 0
        index = np.zeros((2, self.n_items + 1), dtype=np.int64)
        index[0], positions, ratings = csr_rows(train.items[kept], rated[kept], train.ratings[kept], self.n_items, n)
        counts = np.diff(index[0])
        np.cumsum(np.maximum(counts - 1, 0), out=index[1, 1:])
        # the loop finds each gap's node and fills its entry
        gap_nodes = np.empty(index[1, -1], dtype=np.int64)
        gaps = np.empty((4, len(gap_nodes)))
        _loops.stats_build(index, positions, ratings, nodes, gap_nodes, gaps)
        self._arrays = (index, positions, gap_nodes, gaps, nodes)
        self._ratings = ratings
        self._most_raters = max(2, int(counts.max(initial=0)))
        # per level, the query bound to the arrays and the level's t quantiles
        self._queries: dict[float, Callable[[int, int], tuple[int, float, int, float] | None]] = {}

    def __getstate__(self):
        # a compiled bound query cannot be pickled: keep only its level
        return {**self.__dict__, "_queries": list(self._queries)}

    def __setstate__(self, state):
        self.__dict__.update(state, _queries={})
        for level in state["_queries"]:
            self._bind(level)

    def _bind(self, level: float) -> Callable[[int, int], tuple[int, float, int, float] | None]:
        # n ratings read the entry at n - 1 degrees of freedom
        table = _t_critical_table(level, self._most_raters)
        query = self._queries[level] = _loops.bind_stats_query(*self._arrays, table)
        return query

    @property
    def n_entries(self) -> int:
        """Stored (n, sum, sum of squares, min, max) entries: one per rating
        and one per gap, 2r - 1 for an item with r >= 1 raters."""
        return len(self._ratings) + len(self._arrays[2])

    def query(self, leaf: int, item: int, level: float) -> tuple[int, float, int, float] | None:
        """The narrowest two-sided Student-t interval at `level` for the
        item's mean rating among the clusters on `leaf`'s chain to the root
        that hold at least two of its ratings, as ``(node, half_width, n,
        total)`` with the node's count and sum of the item's ratings; None
        when no cluster on the chain holds two.  Walking from the leaf up, a
        wider cluster must be strictly narrower, so at equal width the
        smaller one wins.  An index out of range raises `IndexError`.  The
        first query at a level checks it, `ValueError` outside (0, 1) or
        NaN, and binds the loop to the arrays and that level's table of t
        quantiles."""
        leaf, item = operator.index(leaf), operator.index(item)
        if not 0 <= leaf < self.n_leaves:
            raise IndexError(f"leaf {leaf} out of range [0, {self.n_leaves})")
        if not 0 <= item < self.n_items:
            raise IndexError(f"item {item} out of range [0, {self.n_items})")
        query = self._queries.get(level)
        if query is None:
            if not 0.0 < level < 1.0:
                raise ValueError(f"confidence level must be in (0, 1), got {level}")
            query = self._bind(level)
        return query(leaf, item)

    def items_at(self, node: int) -> Mapping[int, tuple[int, float, float, float, float]]:
        """A read-only mapping ``{item: (n, sum, sum of squares, min, max)}``
        of every item rated inside cluster `node`: what a bottom-up merge of
        per-node maps would hold there.  Its length comes from a count per
        node; its entries are built from the arrays when first read."""
        node = operator.index(node)
        if not 0 <= node < self.n_nodes:
            raise IndexError(f"node {node} out of range [0, {self.n_nodes})")
        return _NodeItems(self, node)

    def _entries_at(self, node: int) -> dict[int, tuple[int, float, float, float, float]]:
        (ptr, gptr), _, _, gaps, nodes = self._arrays
        keys, by_position, starts, ranked = self._view
        lo, hi = nodes[0, node], nodes[1, node]
        items = np.unique(by_position[starts[lo]:starts[hi]])
        first = np.searchsorted(keys, items * self.n_leaves + lo)
        count = np.searchsorted(keys, items * self.n_leaves + hi) - first
        entries = np.empty((4, len(items)))
        one = count == 1
        lone = self._ratings[first[one]]
        entries[:, one] = lone, lone * lone, lone, lone
        many = ~one
        if many.any():
            # the entry of the largest gap between the ratings, whose
            # (gap node, gap index) pair ranks highest
            gap_first = gptr[items[many]] + first[many] - ptr[items[many]]
            bounds = np.column_stack([gap_first, gap_first + count[many] - 1]).ravel()
            entries[:, many] = gaps[:, np.maximum.reduceat(ranked, bounds)[::2] % len(gaps[0])]
        return dict(zip(items.tolist(), zip(count.tolist(), *entries.tolist())))

    @functools.cached_property
    def _items_per_node(self) -> list[int]:
        """How many items have a rating inside each node: its children's
        items, less those rated under both, whose gaps are the node's."""
        _, positions, gap_nodes, _, nodes = self._arrays
        counts = np.bincount(positions, minlength=self.n_leaves)[nodes[0, :self.n_leaves]].tolist()
        counts += [0] * (self.n_nodes - self.n_leaves)
        shared = np.bincount(gap_nodes, minlength=self.n_nodes).tolist()
        # a child's id is below its parent's, so each count is final when read
        for node, parent in enumerate(nodes[2].tolist()):
            counts[node] -= shared[node]
            if parent >= 0:
                counts[parent] += counts[node]
        return counts

    @functools.cached_property
    def _view(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """What `items_at` searches: the sorted (item, position) keys of the
        ratings, their items in (position, item) order, where each leaf
        position starts in that order, and each gap's (node, index) rank."""
        (ptr, _), positions, gap_nodes, _, _ = self._arrays
        items = np.repeat(np.arange(self.n_items), np.diff(ptr))
        starts = np.zeros(self.n_leaves + 1, dtype=np.int64)
        np.cumsum(np.bincount(positions, minlength=self.n_leaves), out=starts[1:])
        # one more entry, so that a last reduceat bound may equal the gap count
        ranked = np.append(gap_nodes * len(gap_nodes) + np.arange(len(gap_nodes)), 0)
        return items * self.n_leaves + positions, items[np.lexsort((items, positions))], starts, ranked


class _NodeItems(Mapping):
    """The statistics of one node of a `ClusterStatsIndex` per item, as its
    `items_at` returns them."""

    def __init__(self, stats: ClusterStatsIndex, node: int):
        self._stats, self._node = stats, node

    @functools.cached_property
    def _entries(self) -> dict[int, tuple[int, float, float, float, float]]:
        return self._stats._entries_at(self._node)

    def __len__(self) -> int:
        return self._stats._items_per_node[self._node]

    def __getitem__(self, item: int) -> tuple[int, float, float, float, float]:
        return self._entries[item]

    def __iter__(self):
        return iter(self._entries)

    def __repr__(self) -> str:
        return repr(self._entries)
