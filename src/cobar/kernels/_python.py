"""Pure numpy implementations of the hot kernels.

They are the fallback for environments without the compiled `_compiled`
extension and the reference that extension is tested against.  Like the
compiled loops, they trust their caller, `cobar.kernels`, to have checked
every argument.
"""

from __future__ import annotations

import numpy as np


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
