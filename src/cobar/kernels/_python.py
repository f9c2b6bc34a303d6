"""Pure numpy implementations of the hot kernels.

They are the fallback for environments without the compiled `_compiled`
extension and the reference it is tested against: each gives the compiled
loop's bits on the same memory, and trusts its caller, `cobar.kernels`, to
have checked or built every array.  The queries check their own two indices,
with the compiled queries' errors and words.  The cosine pass and the Ward loop are the
compiled algorithms vectorised: the cosine pass over the products of one
row at a time, the Ward loop over the active slots of each merge, with
the compiled loop's slots, lazy bounds and rescans.  Where the steps
differ, the order of every sum is kept: the CSR layout sorts where the
compiled one counts, which the unique pairs make the same order, the
stats build joins its gaps in rounds where the compiled one pops them off
a stack, and the kNN query sums every dot product of the entity where the
compiled one sums those it reads.  The queries (the kNN query and cobar's
two prediction runs over one interval walk) are bound to their arrays
once, as compiled, here with `functools.partial`, over the same arrays:
the compiled kNN query allocates its work buffers itself when it is
bound.  Where the compiled cosine pass and Ward loop
choose a thread count of their own, these run on the calling thread.  The
compiled tokenizer has no numpy twin: its `tokenize` here declines every
input.
"""

from __future__ import annotations

import functools
import math
import operator
from bisect import bisect_left

import numpy as np


def csr_fill(keys: np.ndarray, others: np.ndarray, ratings: np.ndarray, n_others: int, indptr: np.ndarray,
             indices: np.ndarray, data: np.ndarray) -> None:
    """The layout of `cobar.kernels.csr_rows`, which checks the int32 keys
    and others and allocates `indptr`, `indices` and `data`: the triples in
    CSR form with the keys as rows, each row sorted by others.  The order
    is the argsort of ``key * n_others + other``; the pairs are unique, so
    it is the compiled counting sort's."""
    order = np.argsort(keys.astype(np.int64) * n_others + others)
    indptr[0] = 0
    np.cumsum(np.bincount(keys, minlength=len(indptr) - 1), out=indptr[1:])
    indices[:] = others[order]
    data[:] = ratings[order]


def _runs(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The positions of the runs of `lengths` entries from `starts`, one
    run after the other; there is at least one run."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - ends + lengths, lengths) + np.arange(ends[-1])


def cosine_rows(rows_indptr: np.ndarray, rows_indices: np.ndarray, rows_data: np.ndarray, cols_indptr: np.ndarray,
                cols_indices: np.ndarray, cols_data: np.ndarray, norms: np.ndarray, dist: np.ndarray) -> None:
    """The distance pass of `cobar.kernels.cosine_distance_matrix`, which
    lays out the ratings of its n users in CSR form by row and by column,
    each sorted, with int32 indices, computes their norms and allocates
    `dist`: fills the condensed distances ``1 - (dot / norm_i) / norm_j``,
    clipped to [0, 2] with NaN passing, in pdist order.

    Row i's dot products with the rows j > i are the products of its
    ratings with the later rows' ratings in each column it rated, summed
    per row j by `np.bincount`, column by column in row i's order, as the
    compiled loop sums them.  A cursor per column skips the rows j <= i:
    every earlier row that rated the column has passed it, so it points at
    row i's own rating.  Row i's distances are written straight into
    `dist`.
    """
    n = len(norms)
    cursor = cols_indptr[:-1].copy()
    pos = 0
    for i in range(n - 1):
        ratings = slice(rows_indptr[i], rows_indptr[i + 1])
        columns = rows_indices[ratings]
        starts = cursor[columns] + 1
        cursor[columns] = starts
        lengths = cols_indptr[columns + 1] - starts
        at = _runs(starts, lengths)
        products = np.repeat(rows_data[ratings], lengths) * cols_data[at]
        out = dist[pos:pos + n - i - 1]
        np.divide(np.bincount(cols_indices[at], products, minlength=n)[i + 1:], norms[i], out=out)
        np.divide(out, norms[i + 1:], out=out)
        # 1 - cos clipped to [0, 2] equals 1 - (cos clipped to [-1, 1])
        np.subtract(1.0, out, out=out)
        np.clip(out, 0.0, 2.0, out=out)
        pos += n - i - 1


# the input the Ward loops reject, worded as the compiled loop words it
_WARD_BAD_INPUT = "distances must be finite and nonnegative, with finite squares"


@np.errstate(over="ignore", invalid="ignore")
def ward_loop(d: np.ndarray, merges: np.ndarray, heights: np.ndarray) -> None:
    """The merge loop of `cobar.kernels.ward_linkage`, which checks the
    layout of `d` and allocates `merges` and `heights`; fills the n-1 rows
    of both for the condensed distances `d` of n >= 2 clusters.

    The compiled loop, vectorised over slots.  It squares `d` in place
    first, and raises `ValueError` before any merge is written when a
    distance is NaN, negative or infinite or its square overflows.  Slots
    lo..n-1 hold the active clusters, pair r < c at ``d[off[r] + c]``, and
    merge m retires slot lo = m: merging slots i < j writes the Ward update
    into slot j's pairs and moves slot lo into slot i, unless i is lo, in
    one pass.  So row r's upper run, its pairs with the slots above it, is
    one contiguous run of active pairs.  ``umin[r]`` is a lower bound on
    its minimum, exact unless ``stale[r]``; a merge lowers a bound to a
    new entry below it, and marks a row stale whose exact minimum it
    removed.  At each merge the stale rows at the smallest bound g are
    rescanned until none is left; then g is the smallest distance, and
    the tie scan reads only the rows whose bound is g for the
    lexicographically smallest id pair at g.  Each height is the square
    root of the merge's linkage.

    A minimum that is not finite (the Ward updates overflowed) ends the
    loop, as in the compiled loop: the merges not made are written as -1
    and their heights as inf, which the entry rejects, and the overflow
    itself raises no warning.
    """
    # min() propagates NaN, so one comparison catches it; inf, and a
    # square that overflows, leave an infinite square
    if not d.min() >= 0.0:
        raise ValueError(_WARD_BAD_INPUT)
    np.square(d, out=d)
    if not d.max() < np.inf:
        raise ValueError(_WARD_BAD_INPUT)
    n = len(heights) + 1
    slot = np.arange(n)
    off = slot * (2 * n - slot - 3) // 2 - 1
    run_length = n - 1 - slot
    node_id = slot.copy()
    size = np.ones(n)
    umin = np.full(n, np.inf)
    umin[:-1] = np.minimum.reduceat(d, off[:-1] + slot[:-1] + 1)
    stale = np.zeros(n, dtype=bool)

    for lo in range(n - 1):
        while True:
            g = umin[lo:].min()
            rows = lo + np.flatnonzero((umin[lo:] == g) & stale[lo:])
            if not len(rows):
                break
            lengths = run_length[rows]
            umin[rows] = np.minimum.reduceat(d[_runs(off[rows] + rows + 1, lengths)], np.cumsum(lengths) - lengths)
            stale[rows] = False
        if not g < np.inf:
            merges[lo:] = -1
            heights[lo:] = np.inf
            return

        # every pair at g lies in a row whose bound is g; the smallest id
        # pair wins, ids below 2n
        rows = lo + np.flatnonzero(umin[lo:] == g)
        at = _runs(off[rows] + rows + 1, run_length[rows])
        hit = d[at] == g
        r = np.repeat(rows, run_length[rows])[hit]
        c = at[hit] - off[r]
        low, high = np.minimum(node_id[r], node_id[c]), np.maximum(node_id[r], node_id[c])
        best = np.argmin(low * 2 * n + high)
        i, j = int(r[best]), int(c[best])
        merges[lo] = low[best], high[best]
        heights[lo] = np.sqrt(g)

        # slot k's pairs with i and j, and slot lo's pair with k; k = lo,
        # when i is not lo, writes only pairs of the retired row lo, and its
        # update also goes to the pair (i, j)
        k = slot[lo:]
        k = k[(k != i) & (k != j)]
        at_i, at_j = off[np.minimum(k, i)] + np.maximum(k, i), off[np.minimum(k, j)] + np.maximum(k, j)
        old_i, old_j, moved, s = d[at_i], d[at_j], d[off[lo] + k], size[k]
        v = ((size[i] + s) * old_i + (size[j] + s) * old_j - s * g) / ((size[i] + size[j]) + s)
        np.maximum(v, 0.0, out=v)
        d[at_i] = moved
        d[at_j] = v
        if i != lo:
            d[off[i] + j] = v[0]

        # rows k < j gain v, and rows k < i also the moved entry, in their
        # upper runs; rows k > j keep theirs
        below = (k < j) & (k != lo)
        k, under_i = k[below], k[below] < i
        new = np.where(under_i, np.fmin(v[below], moved[below]), v[below])
        bound = umin[k]
        improved = new < bound
        lost = (bound == old_j[below]) | (under_i & (bound == old_i[below]))
        stale[k] = ~improved & (stale[k] | lost)
        umin[k] = np.where(improved, new, bound)

        size[j] += size[i]
        node_id[j] = n + lo
        size[i], node_id[i] = size[lo], node_id[lo]
        for x in (i, j):
            umin[x] = np.fmin.reduce(d[off[x] + x + 1:off[x] + n], initial=np.inf)
        stale[[i, j, lo]] = False
        umin[lo] = np.inf


def sgd_epoch(
    users: np.ndarray,
    items: np.ndarray,
    ratings: np.ndarray,
    order: np.ndarray,
    user_factors: np.ndarray,
    item_factors: np.ndarray,
    user_bias: np.ndarray,
    item_bias: np.ndarray,
    global_mean: float,
    learning_rate: float,
    regularization: float,
) -> None:
    """The epoch of `cobar.kernels.mf_sgd_epoch`, which checks every array
    and index: one stochastic gradient pass over the ratings in `order`,
    updating the factors and biases in place.  Dot products are summed in
    factor order from 0.0, as compiled (`sum` compensates on Python 3.12+)."""
    lr = learning_rate
    reg = regularization
    for t in order:
        u = users[t]
        i = items[t]
        p = user_factors[u]
        q = item_factors[i]
        dot = 0.0
        for term in (p * q).tolist():
            dot += term
        err = ratings[t] - (global_mean + user_bias[u] + item_bias[i] + dot)
        user_bias[u] += lr * (err - reg * user_bias[u])
        item_bias[i] += lr * (err - reg * item_bias[i])
        p_old = p.copy()
        p += lr * (err * q - reg * p)
        q += lr * (err * p_old - reg * q)


def _check_indices(names: tuple[str, str], sizes: tuple[int, int], first, second) -> tuple[int, int]:
    """A query's two indices read by `operator.index`, `TypeError` for
    either that is no integer, then `IndexError` for the first of them
    outside ``[0, size)``, as a compiled bound query checks them."""
    first, second = operator.index(first), operator.index(second)
    for name, value, size in zip(names, (first, second), sizes):
        if not 0 <= value < size:
            raise IndexError(f"{name} {value} out of range [0, {size})")
    return first, second


def knn_query(
    rows_indptr: np.ndarray,
    rows_indices: np.ndarray,
    rows_data: np.ndarray,
    cols_indptr: np.ndarray,
    cols_indices: np.ndarray,
    cols_data: np.ndarray,
    norms: np.ndarray,
    means: np.ndarray,
    entity: int,
    column: int,
    k: int,
) -> float | None:
    """The query of `cobar.kernels.KnnIndex`, which builds the arrays and
    checks k once: the similarity-weighted mean deviation of the k most
    similar positive neighbours of `entity` in `column`, or None when no
    neighbour has positive similarity.  It checks `entity` against the
    norms and `column` against the column layout."""
    entity, column = _check_indices(("entity", "column"), (len(norms), len(cols_indptr) - 1), entity, column)
    cp, ci, cd = cols_indptr, cols_indices, cols_data
    neighbors, ratings = ci[cp[column]:cp[column + 1]], cd[cp[column]:cp[column + 1]]
    keep = neighbors != entity
    neighbors, ratings = neighbors[keep], ratings[keep]
    if len(neighbors) == 0 or norms[entity] == 0.0:
        return None

    # Every (entity, rating) in each column the query entity rated, in
    # ascending column order; bincount then sums each dot product in the
    # same order as a sparse row-times-matrix product would.
    rp, ri, rd = rows_indptr, rows_indices, rows_data
    lo, hi = rp[entity], rp[entity + 1]
    starts = cp[ri[lo:hi]]
    lengths = cp[ri[lo:hi] + 1] - starts
    pos = _runs(starts, lengths)
    who = ci[pos]
    dots = np.bincount(who, weights=np.repeat(rd[lo:hi], lengths) * cd[pos], minlength=len(norms))[neighbors]
    # an all-zero neighbor has no direction: similarity 0, not 0/0
    denom = norms[entity] * norms[neighbors]
    sims = np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0.0)
    deviations = ratings - means[neighbors]
    return _top_k_aggregate(sims, deviations, k)


def bind_knn_query(rows_indptr: np.ndarray, rows_indices: np.ndarray, rows_data: np.ndarray, cols_indptr: np.ndarray,
                   cols_indices: np.ndarray, cols_data: np.ndarray, norms: np.ndarray, means: np.ndarray,
                   k: int) -> functools.partial:
    """`knn_query` bound to the arrays of `cobar.kernels.KnnIndex` and k:
    a `query(entity, column)` that checks its indices, as the compiled bind
    returns one."""
    return functools.partial(knn_query, rows_indptr, rows_indices, rows_data, cols_indptr, cols_indices, cols_data,
                             norms, means, k=k)


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
    return float(np.sum(weights * deviations[pos]) / np.sum(weights))


def stats_build(index: np.ndarray, positions: np.ndarray, ratings: np.ndarray, nodes: np.ndarray,
                gap_nodes: np.ndarray, gaps: np.ndarray) -> None:
    """The build of `cobar.kernels.ClusterStatsIndex`, which lays out the
    arguments: fills `gap_nodes` and the (sum, sum of squares, min, max)
    rows of `gaps`.

    Item i's ratings are ``ratings[index[0, i]:index[0, i + 1]]``, at the
    ascending leaf `positions` of their raters, and the gaps between them
    ``index[1, i]`` on.  A gap's node is the lowest node holding its two
    raters, found by walking up from the left rater's leaf, in rounds over
    every gap at once, until the node's range of leaf positions holds the
    right rater.  A gap's entry is its left range's entry plus its right
    range's, left operand first, the min and max as ``np.minimum`` and
    ``np.maximum`` take them.  A gap is filled once no remaining gap of its
    item next to it is lower: those are the gaps the compiled loop pops
    from its stack.  Each run of adjacent ratings joined so far keeps its
    entry at its first rating.
    """
    ptr, gptr = index
    lows, highs, parents = nodes
    total, squares, low, high = gaps
    n_gaps = len(gap_nodes)
    per_item = np.diff(gptr)
    item = np.repeat(np.arange(len(per_item)), per_item)
    left = np.arange(n_gaps) - gptr[item] + ptr[item]   # each gap's left rating

    right = positions[left + 1]
    gap_nodes[:] = np.argsort(lows[:(len(lows) + 1) // 2])[positions[left]]
    walking = np.flatnonzero(highs[gap_nodes] <= right)
    while len(walking):
        gap_nodes[walking] = parents[gap_nodes[walking]]
        walking = walking[highs[gap_nodes[walking]] <= right[walking]]

    run_total, run_squares, run_low, run_high = ratings.copy(), ratings * ratings, ratings.copy(), ratings.copy()
    run_start = np.arange(len(ratings))   # of the run ending at a rating
    run_end = np.arange(len(ratings))     # of the run starting at a rating
    # the gaps still open next to each gap, -1 at the ends of an item
    before, after = np.arange(n_gaps) - 1, np.arange(n_gaps) + 1
    before[gptr[:-1][per_item > 0]] = -1
    after[gptr[1:][per_item > 0] - 1] = -1
    open_gaps = np.arange(n_gaps)
    while len(open_gaps):
        g, b, a = gap_nodes[open_gaps], before[open_gaps], after[open_gaps]
        ready = ((b < 0) | (g < gap_nodes[b])) & ((a < 0) | (g < gap_nodes[a]))
        j = open_gaps[ready]
        start, nxt = run_start[left[j]], left[j] + 1
        end = run_end[nxt]
        run_total[start] = total[j] = run_total[start] + run_total[nxt]
        run_squares[start] = squares[j] = run_squares[start] + run_squares[nxt]
        run_low[start] = low[j] = np.minimum(run_low[start], run_low[nxt])
        run_high[start] = high[j] = np.maximum(run_high[start], run_high[nxt])
        run_end[start], run_start[end] = end, start
        b, a = before[j], after[j]
        after[b[b >= 0]] = a[b >= 0]
        before[a[a >= 0]] = b[a >= 0]
        open_gaps = open_gaps[~ready]


def _stats_walk(index: np.ndarray, positions: np.ndarray, gap_nodes: np.ndarray, gaps: np.ndarray,
                nodes: np.ndarray, t_critical: np.ndarray, leaf: int, item: int) -> tuple | None:
    """The interval walk of `cobar_detail`, on a leaf and an item it
    checked: ``(node, half_width, n, total)`` of the
    narrowest interval on the leaf's path to the root, or None.

    The window ``[a, b)`` of the item's raters inside the current node
    widens by bisection as the walk climbs.  When it first holds ratings,
    its entry is its largest gap's; after that it grows on one side only,
    and the gap joining the old window to the new raters is the new node's
    own.  Only nodes where the window grew can be narrower than the node
    below, so only they are scored.
    """
    ptr, gptr = index
    lows, highs, parents = nodes
    start, end = int(ptr[item]), int(ptr[item + 1])
    if end - start < 2:
        return None
    to_gap = int(gptr[item]) - start   # gap k joins ratings k and k + 1
    at = lows[leaf]
    a = bisect_left(positions, at, start, end)
    b = a + 1 if a < end and positions[a] == at else a
    best = None
    node = parents[leaf]
    while node >= 0:
        lo, hi = lows[node], highs[node]
        new_a = bisect_left(positions, lo, start, a) if a > start and positions[a - 1] >= lo else a
        new_b = bisect_left(positions, hi, b, end) if b < end and positions[b] < hi else b
        if new_a != a or new_b != b:
            if a == b:
                gap_run = gap_nodes[to_gap + new_a:to_gap + new_b - 1]
                top = to_gap + new_a + int(np.argmax(gap_run)) if len(gap_run) else -1
            else:
                top = to_gap + (a - 1 if new_a < a else b - 1)
            a, b = new_a, new_b
            n = b - a
            if n > 1:
                total, total_sq, low, high = gaps[:, top]
                # equal ratings have variance 0 exactly: off a binary-exact
                # grid their sums round, and the formula alone would give
                # small widths that break "smaller cluster wins at equal width"
                variance = 0.0 if low == high else max((total_sq - total * total / n) / (n - 1), 0.0)
                half_width = float(t_critical[n - 1] * math.sqrt(variance / n))
                if best is None or half_width < best[1]:
                    best = (int(node), half_width, n, float(total))
        node = parents[node]
    return best


# the fallbacks of `cobar_detail`, as codes in the order of `cobar.core.Fallback`
INTERVAL, SINGLE_RATING, COLD_ITEM, COLD_USER, UNCLUSTERED_USER = range(5)


def cobar_detail(index: np.ndarray, positions: np.ndarray, gap_nodes: np.ndarray, gaps: np.ndarray,
                 nodes: np.ndarray, t_critical: np.ndarray, user_means: np.ndarray, item_means: np.ndarray,
                 leaf_of: np.ndarray, global_mean: float, gamma: float, lo: float, hi: float, user: int,
                 item: int) -> tuple:
    """Cobar's prediction of `cobar.kernels.ClusterStatsIndex.bind`, whose
    index builds the arrays: ``(value, fallback, node, size, cluster_mean,
    half_width, user_mean)``, the fields of a `cobar.core.Prediction` with
    the fallback as its code.

    Both indices are read by `operator.index`, then `ValueError` names the
    user and then the item out of range, as `_PredictorMixin.predict`
    words it.  The fallback chain, in order: a user with a NaN mean gets
    the global mean, `COLD_USER`, and no user mean; one without a leaf, -1
    in `leaf_of`, gets the user's mean, `UNCLUSTERED_USER`; the narrowest
    interval of `_stats_walk` on the leaf's path gets the blend ``gamma *
    user_mean + (1 - gamma) * total / n``, `INTERVAL`, with the node, its
    size and the mean; then an item with a NaN mean gets the user's mean,
    `COLD_ITEM`, and any other item too, `SINGLE_RATING`.  The value is then
    clamped to [lo, hi] by two comparisons, which let NaN pass.
    """
    user, item = operator.index(user), operator.index(item)
    if not 0 <= user < len(user_means):
        raise ValueError(f"user index {user} out of range")
    if not 0 <= item < len(item_means):
        raise ValueError(f"item index {item} out of range")
    user_mean, leaf, chosen = float(user_means[user]), int(leaf_of[user]), (None,) * 4
    if user_mean != user_mean:
        fallback, value, user_mean = COLD_USER, global_mean, None
    elif leaf < 0:
        fallback, value = UNCLUSTERED_USER, user_mean
    elif (interval := _stats_walk(index, positions, gap_nodes, gaps, nodes, t_critical, leaf, item)) is not None:
        node, half_width, n, total = interval
        mean = total / n
        chosen = (node, int(nodes[1, node] - nodes[0, node]), mean, half_width)
        fallback, value = INTERVAL, gamma * user_mean + (1.0 - gamma) * mean
    elif item_means[item] != item_means[item]:
        fallback, value = COLD_ITEM, user_mean
    else:
        fallback, value = SINGLE_RATING, user_mean
    if value < lo:
        value = lo
    if value > hi:
        value = hi
    return (value, fallback, *chosen, user_mean)


def cobar_value(*args) -> float:
    """The value of `cobar_detail` alone: the float of `predict`."""
    return cobar_detail(*args)[0]


def bind_cobar_query(index: np.ndarray, positions: np.ndarray, gap_nodes: np.ndarray, gaps: np.ndarray,
                     nodes: np.ndarray, t_critical: np.ndarray, user_means: np.ndarray, item_means: np.ndarray,
                     leaf_of: np.ndarray, global_mean: float, gamma: float, lo: float, hi: float,
                     detailed: bool) -> functools.partial:
    """`cobar_detail`, or `cobar_value` when not `detailed`, bound to every
    argument but the query's two indices, as the compiled bind returns one."""
    run = cobar_detail if detailed else cobar_value
    return functools.partial(run, index, positions, gap_nodes, gaps, nodes, t_critical, user_means, item_means,
                             leaf_of, global_mean, gamma, lo, hi)


def tokenize(data: bytes, delimiter: bytes, skip_header: bool, users: np.ndarray, items: np.ndarray,
             ratings: np.ndarray) -> None:
    """The numpy backend has no tokenizer: None sends every input to the
    line loop of `cobar.data.parse_ratings`, which reads it to the same
    dataset as the compiled tokenizer."""
    return None
