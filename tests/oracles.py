"""Independent reference implementations the tests check the library against.

Everything here recomputes from raw inputs along a different code path than
the library: the clustering oracle uses the closed-form merge cost over the
original distance matrix, the prediction oracle enumerates cluster members
top-down and re-derives intervals from the raw ratings, the kNN oracle
ranks neighbors from dense rating vectors, and the statistical constants
are frozen from published tables.
"""

import math
from itertools import combinations

import numpy as np
from scipy import stats as scipy_stats

# Two-sided 95% Student-t critical values, published table, df = 1..29.
T_TABLE_95 = {
    1: 12.7062, 2: 4.3027, 3: 3.1824, 4: 2.7764, 5: 2.5706,
    6: 2.4469, 7: 2.3646, 8: 2.3060, 9: 2.2622, 10: 2.2281,
    11: 2.2010, 12: 2.1788, 13: 2.1604, 14: 2.1448, 15: 2.1314,
    16: 2.1199, 17: 2.1098, 18: 2.1009, 19: 2.0930, 20: 2.0860,
    21: 2.0796, 22: 2.0739, 23: 2.0687, 24: 2.0639, 25: 2.0595,
    26: 2.0555, 27: 2.0518, 28: 2.0484, 29: 2.0452,
}

# Wilcoxon signed-rank critical values of min(W+, W-) for the two-sided
# test (published tables); None = no rejection possible at that size.
WILCOXON_CRITICAL = {
    0.05: {5: None, 6: 0, 7: 2, 8: 3, 9: 5, 10: 8},
    0.01: {5: None, 6: None, 7: None, 8: 0, 9: 1, 10: 3},
}


def ward_cost(d2: np.ndarray, members_a, members_b) -> float:
    """Closed-form Ward merge cost from the original squared distances.

    Independent of the merge history; equals the Lance-Williams recursion
    value for any pair of disjoint clusters.
    """
    na, nb = len(members_a), len(members_b)
    t_ab = math.fsum(d2[a, b] for a in members_a for b in members_b)
    s_a = math.fsum(d2[a1, a2] for a1, a2 in combinations(members_a, 2))
    s_b = math.fsum(d2[b1, b2] for b1, b2 in combinations(members_b, 2))
    return (2.0 * na * nb / (na + nb)) * (t_ab / (na * nb) - s_a / na**2 - s_b / nb**2)


def ward_agglomeration(d2: np.ndarray):
    """Greedy agglomeration with the closed-form cost at every step.

    Returns (merges, heights) in the same node-id convention as the
    library kernel: leaves 0..n-1, merge m creates node n+m; ties on cost
    go to the lexicographically smallest id pair.
    """
    n = d2.shape[0]
    clusters = {i: (i,) for i in range(n)}
    merges = []
    heights = []
    for step in range(n - 1):
        best = None
        for ida, idb in combinations(sorted(clusters), 2):
            cost = ward_cost(d2, clusters[ida], clusters[idb])
            key = (cost, ida, idb)
            if best is None or key < best:
                best = key
        cost, ida, idb = best
        new_id = n + step
        clusters[new_id] = clusters.pop(ida) + clusters.pop(idb)
        merges.append((ida, idb))
        heights.append(cost)
    return np.asarray(merges, dtype=np.int64), np.asarray(heights, dtype=np.float64)


def interval_half_width(ratings, level=0.95) -> float:
    """Student-t half-width recomputed from the raw sample."""
    n = len(ratings)
    mean = math.fsum(ratings) / n
    variance = math.fsum((x - mean) ** 2 for x in ratings) / (n - 1)
    t_crit = scipy_stats.t.ppf(0.5 + level / 2.0, n - 1)
    return float(t_crit) * math.sqrt(variance / n)


def brute_force_prediction(dataset, dendrogram, user, item, gamma=0.5, level=0.95, clamp=True):
    """Exhaustive re-derivation of the confidence-based prediction.

    Enumerates every dendrogram node, resolves its member users top-down
    via leaves_under, re-collects the members' raw ratings of the item, and
    recomputes each interval from scratch.  The narrowest interval wins;
    ties go to the smaller cluster.  Fallbacks: user mean when no cluster
    has two ratings for the item, global mean for users without ratings.
    """
    user_ratings = sorted(
        float(r) for u, i, r in zip(dataset.users, dataset.items, dataset.ratings) if u == user
    )
    if not user_ratings:
        value = math.fsum(dataset.ratings) / len(dataset.ratings)
        return _clamp(value, dataset, clamp), "cold_user", None

    user_mean = math.fsum(user_ratings) / len(user_ratings)
    candidates = []
    for node in range(dendrogram.n_nodes):
        members = {int(dendrogram.leaf_users[leaf]) for leaf in dendrogram.leaves_under(node)}
        if user not in members:
            continue
        ratings = sorted(
            float(r)
            for u, i, r in zip(dataset.users, dataset.items, dataset.ratings)
            if i == item and u in members
        )
        if len(ratings) < 2:
            continue
        hw = interval_half_width(ratings, level)
        mean = math.fsum(ratings) / len(ratings)
        candidates.append((hw, len(members), node, mean))
    if not candidates:
        return _clamp(user_mean, dataset, clamp), "no_interval", None
    hw, _, node, mean = min(candidates)
    value = gamma * user_mean + (1.0 - gamma) * mean
    return _clamp(value, dataset, clamp), "blend", node


def _clamp(value, dataset, clamp):
    if not clamp:
        return value
    return min(max(value, dataset.rating_min), dataset.rating_max)


def wilcoxon_enumerated_p(diffs) -> float:
    """Literal 2^m enumeration of the two-sided exact p-value (small m only)."""
    diffs = np.asarray(diffs, dtype=np.float64)
    diffs = diffs[diffs != 0.0]
    m = len(diffs)
    ranks = scipy_stats.rankdata(np.abs(diffs), method="average")
    w_plus = ranks[diffs > 0].sum()
    w_minus = ranks[diffs < 0].sum()
    observed = min(w_plus, w_minus)
    hits = 0
    for signs in range(2**m):
        w = sum(ranks[j] for j in range(m) if (signs >> j) & 1)
        if w <= observed:
            hits += 1
    return min(2.0 * hits / 2**m, 1.0)


def knn_prediction(dataset, user, item, k=30, min_overlap=1, user_based=True, clamp=True):
    """Brute-force mean-centered cosine kNN from dense rating vectors.

    The entities are users (``user_based``) or items, each a dense vector
    over the other axis with 0 where nothing was rated.  Every other entity
    rated in the query column is a candidate; its cosine is recomputed with
    ``math.fsum`` and it counts only with positive similarity and at least
    ``min_overlap`` co-rated columns.  Candidates are ranked by similarity,
    ties by index, and the first k aggregate.  Fallbacks: the entity's mean,
    then the global mean for entities without ratings.
    """
    rows, cols = (dataset.users, dataset.items) if user_based else (dataset.items, dataset.users)
    n_rows = dataset.n_users if user_based else dataset.n_items
    n_cols = dataset.n_items if user_based else dataset.n_users
    entity, column = (user, item) if user_based else (item, user)
    dense = np.zeros((n_rows, n_cols))
    rated = np.zeros((n_rows, n_cols), dtype=bool)
    for a, b, r in zip(rows, cols, dataset.ratings):
        dense[a, b] = r
        rated[a, b] = True

    def mean_of(a):
        return math.fsum(dense[a][rated[a]]) / int(rated[a].sum())

    if not rated[entity].any():
        return _clamp(math.fsum(dataset.ratings) / len(dataset.ratings), dataset, clamp)
    base = mean_of(entity)
    norm_e = math.sqrt(math.fsum(dense[entity] ** 2))
    ranked = []
    for other in range(n_rows if norm_e > 0.0 else 0):
        if other == entity or not rated[other, column]:
            continue
        norm_o = math.sqrt(math.fsum(dense[other] ** 2))
        if norm_o == 0.0:
            continue
        sim = math.fsum(dense[entity] * dense[other]) / (norm_e * norm_o)
        overlap = int((rated[entity] & rated[other]).sum())
        if sim > 0.0 and overlap >= min_overlap:
            ranked.append((-sim, other))
    ranked.sort()
    chosen = ranked[:k]
    if not chosen:
        return _clamp(base, dataset, clamp)
    num = math.fsum(-s * (dense[o, column] - mean_of(o)) for s, o in chosen)
    den = math.fsum(-s for s, _ in chosen)
    return _clamp(base + num / den, dataset, clamp)
