"""Pure numpy implementations of the hot kernels.

They are the fallback for environments without the compiled `_compiled`
extension and the reference that extension is tested against.  Like the
compiled loops, they trust their caller, `cobar.kernels`, to have checked
every argument.
"""

from __future__ import annotations

import numpy as np


@np.errstate(over="ignore", invalid="ignore")
def ward_loop(d2: np.ndarray, merges: np.ndarray, heights: np.ndarray) -> None:
    """The merge loop of `cobar.kernels.ward_linkage`, which checks `d2` and
    allocates `merges` and `heights`; fills the n-1 rows of both for the
    condensed squared distances `d2` of n >= 2 clusters.

    The work matrix keeps the a active clusters in slots 0..a-1, so
    ``D[:a, :a]`` is always the live block.  Merging the clusters in slots
    i < j writes the Ward update into row and column i and moves the last
    active slot into the freed slot j.  The tie-break compares node ids,
    not slots, so the moves leave the result unchanged.  This numpy loop
    copies `d2` into one n x n work matrix, row by row, so a `d2` that is a
    view costs no second copy; the compiled loop runs the same steps inside
    `d2` itself.

    A minimum that is not finite (the Ward updates overflowed) is written
    to `heights` and ends the loop, as in the compiled loop, and the entry
    rejects it; the overflow itself raises no warning.
    """
    n = len(heights) + 1
    D = np.empty((n, n))
    start = 0
    for r in range(n - 1):
        row = d2[start:start + n - 1 - r]
        D[r, r + 1:] = row
        D[r + 1:, r] = row
        start += n - 1 - r
    np.fill_diagonal(D, np.inf)
    node_id = np.arange(n, dtype=np.int64)
    size = np.ones(n, dtype=np.float64)
    row_min = D.min(axis=1)

    for m in range(n - 1):
        a = n - m
        g = row_min[:a].min()
        if not g < np.inf:
            heights[m] = g
            return

        # all pairs at the minimum, lexicographic smallest id pair wins
        best_ids = None
        best_slots = None
        for r in np.flatnonzero(row_min[:a] == g):
            for c in np.flatnonzero(D[r, :a] == g):
                x, y = node_id[r], node_id[c]
                ids = (x, y) if x < y else (y, x)
                if best_ids is None or ids < best_ids:
                    best_ids = ids
                    best_slots = (r, c) if r < c else (c, r)
        i, j = best_slots
        merges[m, 0], merges[m, 1] = best_ids
        heights[m] = g

        # Ward update of slot i against every active slot.  D is symmetric,
        # so rows i and j are also the old columns; their diagonal inf
        # makes new_d inf at i and j.
        old_i = D[i, :a]
        old_j = D[j, :a]
        s = size[:a]
        new_d = ((size[i] + s) * old_i + (size[j] + s) * old_j - s * g) / (size[i] + size[j] + s)
        np.maximum(new_d, 0.0, out=new_d)

        # row minima: direct improvement, else recompute rows whose old
        # minimum was their distance to i or j (row i is recomputed below,
        # row j leaves)
        rm = row_min[:a]
        improved = new_d < rm
        stale = ~improved & ((rm == old_i) | (rm == old_j))
        stale[i] = stale[j] = False
        rm[improved] = new_d[improved]
        D[i, :a] = new_d
        D[:a, i] = new_d
        size[i] += size[j]
        node_id[i] = n + m

        # the last active slot moves into the freed slot j
        last = a - 1
        if j != last:
            D[j, :last] = D[last, :last]
            D[:last, j] = D[:last, last]
            D[j, j] = np.inf
            size[j] = size[last]
            node_id[j] = node_id[last]
            row_min[j] = row_min[last]
            stale[j] = stale[last]
        for r in np.flatnonzero(stale[:last]):
            row_min[r] = D[r, :last].min()
        row_min[i] = D[i, :last].min() if last > 1 else np.inf


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
    updating the factors and biases in place."""
    lr = learning_rate
    reg = regularization
    for t in order:
        u = users[t]
        i = items[t]
        p = user_factors[u]
        q = item_factors[i]
        err = ratings[t] - (global_mean + user_bias[u] + item_bias[i] + float(p @ q))
        user_bias[u] += lr * (err - reg * user_bias[u])
        item_bias[i] += lr * (err - reg * item_bias[i])
        p_old = p.copy()
        p += lr * (err * q - reg * p)
        q += lr * (err * p_old - reg * q)


def knn_query(
    rows_indptr: np.ndarray,
    rows_indices: np.ndarray,
    rows_data: np.ndarray,
    cols_indptr: np.ndarray,
    cols_indices: np.ndarray,
    cols_data: np.ndarray,
    norms: np.ndarray,
    means: np.ndarray,
    scratch: np.ndarray,
    entity: int,
    column: int,
    k: int,
) -> float | None:
    """The query of `cobar.kernels.KnnIndex`, which builds the arrays and
    checks k once, and `entity` and `column` on every call: the
    similarity-weighted mean deviation of the k most similar positive
    neighbours of `entity` in `column`, or None when no neighbour has
    positive similarity.  The compiled loop's `scratch` of dot products is
    not needed here."""
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
    ends = np.cumsum(lengths)
    pos = np.repeat(starts - ends + lengths, lengths) + np.arange(ends[-1])
    who = ci[pos]
    dots = np.bincount(who, weights=np.repeat(rd[lo:hi], lengths) * cd[pos], minlength=len(norms))[neighbors]
    # an all-zero neighbor has no direction: similarity 0, not 0/0
    denom = norms[entity] * norms[neighbors]
    sims = np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0.0)
    deviations = ratings - means[neighbors]
    return _top_k_aggregate(sims, deviations, k)


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
