"""Pure numpy implementations of the hot kernels.

They are the fallback for environments without the compiled `_compiled`
extension and the reference that extension is tested against.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial.distance import squareform


def _condensed_size(d2) -> int:
    """The n of a condensed distance vector, checked as the compiled loop
    checks it, with the same exceptions and messages."""
    try:
        view = memoryview(d2)
    except TypeError:
        raise TypeError(f"d2 must be an array, not {type(d2).__name__}") from None
    if view.ndim != 1:
        raise ValueError(f"d2 must be 1-dimensional, got {view.ndim} dimensions")
    if view.itemsize != 8 or view.format not in ("d", "@d", "=d"):
        raise TypeError(f"d2 must hold float64, got format '{view.format}' of {view.itemsize} bytes")
    if not view.c_contiguous:
        raise ValueError("d2 must be C-contiguous")
    if view.readonly:
        raise ValueError("d2 must be writable")
    length = view.shape[0]
    n = (1 + math.isqrt(1 + 8 * length)) // 2
    if n * (n - 1) // 2 != length:
        raise ValueError(f"d2 has {length} entries, which is not n(n-1)/2 for any n")
    return n


def ward_linkage(d2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
        non-decreasing.

    Equal minimal linkages are broken by the lexicographically smallest
    (id, id) pair, which makes the result deterministic.

    The work matrix keeps the a active clusters in slots 0..a-1, so
    ``D[:a, :a]`` is always the live block.  Merging the clusters in slots
    i < j writes the Ward update into row and column i and moves the last
    active slot into the freed slot j.  The tie-break compares node ids,
    not slots, so the moves leave the result unchanged.  This numpy loop
    expands `d2` into one n x n work matrix; the compiled loop runs the
    same steps inside `d2` itself.
    """
    n = _condensed_size(d2)
    d2 = np.asarray(d2)
    # min() and max() propagate NaN, so one comparison catches it
    if d2.size and not (d2.min() >= 0.0 and d2.max() < np.inf):
        raise ValueError("squared distances must be finite and nonnegative")
    merges = np.empty((n - 1 if n > 1 else 0, 2), dtype=np.int64)
    heights = np.empty(n - 1 if n > 1 else 0, dtype=np.float64)
    if n < 2:
        return merges, heights

    D = squareform(d2, checks=False)
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

    return merges, heights


def _check_range(name: str, index: np.ndarray, bound: int) -> None:
    if len(index) and (index.min() < 0 or index.max() >= bound):
        raise IndexError(f"{name} holds an index out of range [0, {bound})")


def mf_sgd_epoch(
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
    """One stochastic gradient pass over the ratings, updating in place.

    `order` gives the sample visiting order; drawing it outside the kernel
    keeps both backends on the same trajectory.  Every visited index is
    checked before anything is written: numpy would wrap a negative one
    around, where the compiled epoch raises `IndexError`.
    """
    _check_range("order", order, len(ratings))
    _check_range("users", users[order], len(user_factors))
    _check_range("items", items[order], len(item_factors))
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
