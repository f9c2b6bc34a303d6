"""Pure numpy implementations of the hot kernels.

`ward_linkage` is the only Ward merge loop.  `mf_sgd_epoch` is the fallback
for environments without the compiled `_mf` extension and the reference
that extension is tested against.
"""

from __future__ import annotations

import numpy as np


def ward_linkage(d2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Agglomerative merge loop with Ward updates on squared distances.

    Parameters
    ----------
    d2:
        Symmetric (n, n) matrix of squared pairwise distances between the
        n singleton clusters.

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
    """
    d2 = np.asarray(d2, dtype=np.float64)
    n = d2.shape[0]
    if d2.shape != (n, n):
        raise ValueError(f"distance matrix must be square, got {d2.shape}")
    merges = np.empty((n - 1 if n > 1 else 0, 2), dtype=np.int64)
    heights = np.empty(n - 1 if n > 1 else 0, dtype=np.float64)
    if n < 2:
        return merges, heights

    D = d2.copy()
    np.fill_diagonal(D, np.inf)
    active = np.ones(n, dtype=bool)
    node_id = np.arange(n, dtype=np.int64)
    size = np.ones(n, dtype=np.float64)
    row_min = D.min(axis=1)

    for m in range(n - 1):
        act = np.flatnonzero(active)
        g = row_min[act].min()

        # all pairs at the minimum, lexicographic smallest id pair wins
        best_ids = None
        best_slots = None
        for r in act[row_min[act] == g]:
            for c in np.flatnonzero(D[r] == g):
                a, b = node_id[r], node_id[c]
                ids = (a, b) if a < b else (b, a)
                if best_ids is None or ids < best_ids:
                    best_ids = ids
                    best_slots = (r, c) if r < c else (c, r)
        i, j = best_slots
        merges[m, 0], merges[m, 1] = best_ids
        heights[m] = g

        # Ward update of the kept slot i against every other active cluster
        keep = active.copy()
        keep[i] = keep[j] = False
        k = np.flatnonzero(keep)
        denom = size[i] + size[j] + size[k]
        new_d = ((size[i] + size[k]) * D[i, k] + (size[j] + size[k]) * D[j, k] - size[k] * g) / denom
        new_d = np.maximum(new_d, 0.0)

        old_col_i = D[:, i].copy()
        old_col_j = D[:, j].copy()
        D[i, :] = np.inf
        D[:, i] = np.inf
        D[i, k] = new_d
        D[k, i] = new_d
        D[j, :] = np.inf
        D[:, j] = np.inf

        active[j] = False
        size[i] += size[j]
        node_id[i] = n + m

        # row minima: direct improvement, else recompute rows whose old
        # minimum sat in a rewritten column
        if len(k):
            improved = D[k, i] < row_min[k]
            row_min[k[improved]] = D[k[improved], i]
            stale = ~improved & ((row_min[k] == old_col_i[k]) | (row_min[k] == old_col_j[k]))
            for r in k[stale]:
                row_min[r] = D[r].min()
        row_min[i] = D[i].min() if len(k) else np.inf

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
