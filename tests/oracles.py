"""Independent reference implementations the tests check the library against.

Everything here recomputes from raw inputs along a different code path than
the library: the clustering oracle uses the closed-form merge cost over the
original distance matrix, the prediction oracle enumerates cluster members
top-down and re-derives intervals from the raw ratings, the kNN oracle
ranks neighbors from dense rating vectors, the MF training error is summed
rating by rating from the fitted terms, and the statistical constants
are frozen from published tables.  The Ward and cosine references are the
earlier, allocation-heavy implementations, which the in-place ones must
match bit for bit, and the per-query prediction reference is the earlier
method-per-node chain walk, which the flat interval loop must match bit for
bit.  The per-(node, item) dict maps of cluster statistics and the chain
walk over them are the earlier implementation of `cobar.core`, which the
O(ratings) index must match bit for bit; `node_items` reads one node's
entries back out of that index's arrays, and its single ratings out of the
training set.  `composed_prediction` builds each fitted predictor's value
from its public pieces, one call per step, which the predictors' own query
paths must match bit for bit.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np
from scipy import sparse
from scipy import stats as scipy_stats
from scipy.special import stdtrit

from cobar.kernels import csr_rows

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


def ward_reference(d2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The earlier Ward merge loop, kept verbatim as a bit-identity reference.

    It masks merged clusters out with a boolean array and rewrites their
    rows and columns to inf; `ward_linkage` must give the same merges and
    the same heights, bit for bit, including on exact ties.
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


def condensed(d2: np.ndarray) -> np.ndarray:
    """The upper triangle of a square matrix, row by row: the condensed
    layout `ward_linkage` takes and `cosine_distance_matrix` returns."""
    return d2[np.triu_indices(len(d2), 1)]


def cosine_distance_reference(dataset, users=None) -> np.ndarray:
    """The earlier cosine distance matrix, kept verbatim as a bit-identity
    reference: the whole sparse product made dense, then each step as a
    new array and `upper + upper.T` for exact symmetry.  The matrix comes
    from scipy's own COO to CSR conversion of the triples, not from the
    library's CSR builder."""
    R = sparse.csr_matrix((dataset.ratings, (dataset.users, dataset.items)),
                          shape=(dataset.n_users, dataset.n_items))
    if users is not None:
        R = R[np.asarray(users)]
    norms = np.sqrt(np.asarray(R.multiply(R).sum(axis=1)).ravel())
    if np.any(norms == 0.0):
        bad = int(np.flatnonzero(norms == 0.0)[0])
        raise ValueError(f"user at position {bad} has a zero-norm rating vector")
    S = np.asarray((R @ R.T).todense(), dtype=np.float64)
    cos = S / norms[:, None] / norms[None, :]
    dist = 1.0 - np.clip(cos, -1.0, 1.0)
    np.clip(dist, 0.0, 2.0, out=dist)
    # exact symmetry so the merge loop's tie handling sees one value per pair
    upper = np.triu(dist, 1)
    return upper + upper.T


def dense_ratings(dataset) -> np.ndarray:
    """The n_users x n_items rating matrix, zero where unrated."""
    dense = np.zeros((dataset.n_users, dataset.n_items))
    dense[dataset.users, dataset.items] = dataset.ratings
    return dense


def leaves_under(dendrogram, node) -> np.ndarray:
    """Leaf ids contained in the cluster rooted at `node`, resolved top-down
    from the merge table."""
    if not 0 <= node < dendrogram.n_nodes:
        raise ValueError(f"node {node} out of range [0, {dendrogram.n_nodes})")
    out = []
    stack = [node]
    while stack:
        cur = stack.pop()
        if cur < dendrogram.n_leaves:
            out.append(cur)
        else:
            left, right = dendrogram.merges[cur - dendrogram.n_leaves]
            stack.append(int(right))
            stack.append(int(left))
    return np.asarray(out, dtype=np.int64)


def pairwise_cosine_distance(a, b) -> float:
    """1 - cos(a, b) of two dense rating vectors, with `math.fsum` sums."""
    dot = math.fsum(float(x) * float(y) for x, y in zip(a, b))
    norm_a = math.sqrt(math.fsum(float(x) ** 2 for x in a))
    norm_b = math.sqrt(math.fsum(float(y) ** 2 for y in b))
    return 1.0 - min(max(dot / (norm_a * norm_b), -1.0), 1.0)


def interval_half_width(ratings, level=0.95) -> float:
    """Student-t half-width recomputed from the raw sample."""
    n = len(ratings)
    mean = math.fsum(ratings) / n
    variance = math.fsum((x - mean) ** 2 for x in ratings) / (n - 1)
    return _t_critical_reference(level, n - 1) * math.sqrt(variance / n)


class BruteForceOracle:
    """Exhaustive re-derivation of the confidence-based prediction.

    Once per dataset, it resolves every dendrogram node's member users
    top-down via `leaves_under` and groups the raw rating triples by user
    and by item.  A query then re-collects, for every node that holds the
    user, the members' raw ratings of the item and recomputes the interval
    from scratch (each (node, item) once, as the sample does not depend on
    the user).  The narrowest interval wins; ties go to the smaller
    cluster.  Fallbacks: global mean for users without ratings, user mean
    for users in no cluster (labelled `unclustered_user`) and when no
    cluster has two ratings for the item.  Calling it returns
    ``(value, label, node)``.
    """

    def __init__(self, dataset, dendrogram, gamma=0.5, level=0.95, clamp=True):
        self.dataset = dataset
        self.gamma, self.level, self.clamp = gamma, level, clamp
        self.by_user: dict[int, list[float]] = {}
        self.by_item: dict[int, list[tuple[int, float]]] = {}
        for u, i, r in zip(dataset.users.tolist(), dataset.items.tolist(), dataset.ratings.tolist()):
            self.by_user.setdefault(u, []).append(r)
            self.by_item.setdefault(i, []).append((u, r))
        self.members = [
            {int(dendrogram.leaf_users[leaf]) for leaf in leaves_under(dendrogram, node)}
            for node in range(dendrogram.n_nodes)
        ]
        self._intervals: dict[tuple[int, int], tuple | None] = {}

    def _interval(self, node, item):
        key = (node, item)
        if key not in self._intervals:
            members = self.members[node]
            ratings = sorted(r for u, r in self.by_item.get(item, ()) if u in members)
            self._intervals[key] = (
                (interval_half_width(ratings, self.level), len(members), node, math.fsum(ratings) / len(ratings))
                if len(ratings) >= 2 else None
            )
        return self._intervals[key]

    def __call__(self, user, item):
        dataset = self.dataset
        user_ratings = sorted(self.by_user.get(user, ()))
        if not user_ratings:
            value = math.fsum(dataset.ratings) / len(dataset.ratings)
            return _clamp(value, dataset, self.clamp), "cold_user", None

        user_mean = math.fsum(user_ratings) / len(user_ratings)
        nodes = [node for node, members in enumerate(self.members) if user in members]
        if not nodes:
            return _clamp(user_mean, dataset, self.clamp), "unclustered_user", None
        candidates = [c for c in (self._interval(node, item) for node in nodes) if c is not None]
        if not candidates:
            return _clamp(user_mean, dataset, self.clamp), "no_interval", None
        hw, _, node, mean = min(candidates)
        value = self.gamma * user_mean + (1.0 - self.gamma) * mean
        return _clamp(value, dataset, self.clamp), "blend", node


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


def wilcoxon_normal_p(diffs) -> float:
    """The two-sided p-value of the normal approximation with tie and
    continuity correction, in the arithmetic `wilcoxon_signed_rank` used
    when its ranks came from `rankdata` and its tail from `norm.cdf`."""
    diffs = np.asarray(diffs, dtype=np.float64)
    diffs = diffs[diffs != 0.0]
    m = len(diffs)
    ranks = scipy_stats.rankdata(np.abs(diffs), method="average")
    statistic = min(float(ranks[diffs > 0].sum()), float(ranks[diffs < 0].sum()))
    _, tie_counts = np.unique(np.abs(diffs), return_counts=True)
    tie_term = float(np.sum(tie_counts**3 - tie_counts)) / 48.0
    var = m * (m + 1) * (2 * m + 1) / 24.0 - tie_term
    z = (statistic - m * (m + 1) / 4.0 + 0.5) / math.sqrt(var)
    return min(2.0 * float(scipy_stats.norm.cdf(z)), 1.0)


def knn_prediction(dataset, user, item, k=30, user_based=True, clamp=True):
    """Brute-force mean-centered cosine kNN from dense rating vectors.

    The entities are users (``user_based``) or items, each a dense vector
    over the other axis with 0 where nothing was rated.  Every other entity
    rated in the query column is a candidate; its cosine is recomputed with
    ``math.fsum`` and it counts only with positive similarity.  Candidates
    are ranked by similarity, ties by index, and the first k aggregate.
    Fallbacks: the entity's mean, then the global mean for entities without
    ratings.
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
        if sim > 0.0:
            ranked.append((-sim, other))
    ranked.sort()
    chosen = ranked[:k]
    if not chosen:
        return _clamp(base, dataset, clamp)
    num = math.fsum(-s * (dense[o, column] - mean_of(o)) for s, o in chosen)
    den = math.fsum(-s for s, _ in chosen)
    return _clamp(base + num / den, dataset, clamp)


def mf_training_mse(model, dataset) -> float:
    """Mean squared error of a fitted `MatrixFactorization` over `dataset`'s
    ratings, from its global mean, biases and factors, one rating at a time."""
    errors = [
        r - (model.global_mean + model.user_bias[u] + model.item_bias[i]
             + math.fsum(model.user_factors[u] * model.item_factors[i]))
        for u, i, r in zip(dataset.users, dataset.items, dataset.ratings)
    ]
    return math.fsum(e * e for e in errors) / len(errors)


@lru_cache(maxsize=None)
def _t_critical_reference(level: float, dof: int) -> float:
    return float(scipy_stats.t.ppf(0.5 + level / 2.0, dof))


def confidence_half_width_reference(n: int, s2: float, level: float = 0.95) -> float:
    """The former `confidence_half_width`, as it stood beside the method-per-node walk."""
    if n < 2:
        raise ValueError(f"confidence interval undefined for n={n} (need n >= 2)")
    if s2 < 0.0:
        s2 = 0.0
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level must be in (0, 1), got {level}")
    return _t_critical_reference(level, n - 1) * math.sqrt(s2 / n)


class ClusterItemStatsReference:
    """The earlier per-(node, item) accessors of `ClusterItemStats`, verbatim,
    over the same accumulator maps."""

    def __init__(self, node_maps, level):
        self._maps = node_maps
        self.level = level

    def get(self, node, item):
        return self._maps[node].get(item)

    def mean(self, node, item):
        n, total, _, _, _ = self._maps[node][item]
        return total / n

    def variance(self, node, item):
        n, total, total_sq, lo, hi = self._maps[node][item]
        if n < 2:
            raise ValueError(f"variance undefined for n={n}")
        if lo == hi:
            return 0.0
        s2 = (total_sq - total * total / n) / (n - 1)
        return max(s2, 0.0)

    def half_width(self, node, item):
        n, _, _, _, _ = self._maps[node][item]
        return confidence_half_width_reference(n, self.variance(node, item), self.level)


def parents_reference(dendrogram) -> np.ndarray:
    """Each node's parent id, -1 for the root, read from the merge table."""
    parents = np.full(dendrogram.n_nodes, -1, dtype=np.int64)
    for m, (left, right) in enumerate(dendrogram.merges.tolist()):
        parents[left] = parents[right] = dendrogram.n_leaves + m
    return parents


def ancestor_chain_reference(dendrogram, leaf):
    """The earlier `Dendrogram.ancestor_chain`: walks the parent ids per call."""
    if not 0 <= leaf < dendrogram.n_leaves:
        raise ValueError(f"leaf index {leaf} out of range [0, {dendrogram.n_leaves})")
    parents = parents_reference(dendrogram)
    chain = [leaf]
    node = leaf
    while parents[node] != -1:
        node = int(parents[node])
        chain.append(node)
    return np.asarray(chain, dtype=np.int64)


def leaf_of_reference(dendrogram, user) -> int:
    """The leaf of `user`, by a search of the dendrogram's leaf users; -1
    for a user outside the hierarchy."""
    found = np.flatnonzero(dendrogram.leaf_users == user)
    return int(found[0]) if len(found) else -1


@dataclass
class ClusterChoiceReference:
    node: int
    size: int
    mean: float
    half_width: float


def select_optimal_cluster_reference(chain, item, stats, sizes):
    """The earlier `select_optimal_cluster`, verbatim: four accessor calls
    per qualifying node and a new choice object at every improvement."""
    best = None
    for node in chain:
        node = int(node)
        entry = stats.get(node, item)
        if entry is None or entry[0] < 2:
            continue
        hw = stats.half_width(node, item)
        if best is None or hw < best.half_width:
            best = ClusterChoiceReference(node=node, size=int(sizes[node]), mean=stats.mean(node, item), half_width=hw)
    return best


@lru_cache(maxsize=None)
def _t_critical(level: float, dof: int) -> float:
    # the kernel behind scipy's `t.ppf(p, dof)`, with the same bits
    return float(stdtrit(dof, 0.5 + level / 2.0))


def _variance(n: int, total: float, total_sq: float, lo: float, hi: float) -> float:
    """(n-1)-denominator sample variance of an accumulator, clipped at zero.

    Exactly zero when all ratings are equal (min == max).  Off a
    binary-exact grid such as 0.5 steps the sums round, and the
    sum-of-squares formula alone gives small positive values that break
    "smaller cluster wins at equal width".
    """
    if lo == hi:
        return 0.0
    s2 = (total_sq - total * total / n) / (n - 1)
    return max(s2, 0.0)


class ClusterItemStats:
    """Per (dendrogram node, item) rating accumulators.

    Built bottom-up: each internal node's map combines its children's
    (count, sum, sum of squares, min, max) entries, the first three by sum
    and the last two by min and max, so construction costs O(total ratings
    x tree depth) instead of a from-scratch pass per node.
    """

    def __init__(self, node_maps: list[dict[int, tuple[int, float, float, float, float]]]):
        self._maps = node_maps

    def items_at(self, node: int) -> dict[int, tuple[int, float, float, float, float]]:
        return self._maps[node]


def node_items(stats, dendrogram, train, node) -> dict[int, tuple[int, float, float, float, float]]:
    """``{item: (n, sum, sum of squares, min, max)}`` for every item rated
    inside cluster `node` of the `ClusterStatsIndex` `stats`, built over
    `dendrogram` and `train`: what a bottom-up merge of per-node maps holds
    there.

    A single rater's entry is its rating, read from `train` through the
    dendrogram's leaf positions, as the index keeps no rating.  For more,
    the raters inside the node are a run of the item's sorted leaf
    positions in the index, and the entry is that of the run's gap with
    the highest node, the lowest node that holds them all, whose two
    ranges hold just them.
    """
    (ptr, gptr), positions, gap_nodes, gaps, nodes = stats._arrays
    lo, hi = nodes[0, node], nodes[1, node]
    position = np.full(train.n_users, -1, dtype=np.int64)
    position[dendrogram.leaf_users] = dendrogram.nodes[0, :dendrogram.n_leaves]
    rated = position[train.users]
    inside = (lo <= rated) & (rated < hi)
    rated_by: dict[int, list[float]] = {}
    for item, rating in zip(train.items[inside].tolist(), train.ratings[inside].tolist()):
        rated_by.setdefault(item, []).append(rating)
    entries = {}
    for item in sorted(rated_by):
        if len(rated_by[item]) == 1:
            rating, = rated_by[item]
            entries[item] = (1, rating, rating * rating, rating, rating)
        else:
            start, end = int(ptr[item]), int(ptr[item + 1])
            a, b = start + np.searchsorted(positions[start:end], [lo, hi])
            first = int(gptr[item]) + a - start   # gap k joins ratings k and k + 1
            top = first + int(np.argmax(gap_nodes[first:first + b - a - 1]))
            entries[item] = (int(b - a), *gaps[:, top].tolist())
    return entries


def build_item_stats_dict(dendrogram, train) -> ClusterItemStats:
    """The earlier `cobar.core.build_item_stats`, verbatim: accumulate (n,
    sum, sum_sq, min, max) per item for every node of the hierarchy."""
    maps: list[dict[int, tuple[int, float, float, float, float]]] = [dict() for _ in range(dendrogram.n_nodes)]
    rows = csr_rows(train.users, train.items, train.ratings, train.n_users, train.n_items)
    indptr, indices, data = (a.tolist() for a in rows)
    for leaf, user in enumerate(dendrogram.leaf_users.tolist()):
        lo, hi = indptr[user], indptr[user + 1]
        # one float object serves as the sum, the min and the max
        maps[leaf] = {i: (1, r, r * r, r, r) for i, r in zip(indices[lo:hi], data[lo:hi])}
    for m, (left, right) in enumerate(dendrogram.merges):
        a, b = maps[int(left)], maps[int(right)]
        if len(b) > len(a):
            a, b = b, a
        merged = dict(a)
        for item, entry in b.items():
            cur = merged.get(item)
            if cur is None:
                merged[item] = entry
            else:
                n2, s2, q2, lo2, hi2 = entry
                merged[item] = (cur[0] + n2, cur[1] + s2, cur[2] + q2, min(cur[3], lo2), max(cur[4], hi2))
        maps[dendrogram.n_leaves + m] = merged
    return ClusterItemStats(maps)


def select_optimal_cluster_dict(chain, item, stats, level):
    """The earlier `cobar.core.select_optimal_cluster`, verbatim: the
    narrowest-interval cluster for the item among the chain's nodes, as
    ``(node, half_width)``, walking every node's map.

    Only nodes with >= 2 ratings for the item qualify.  Walking leaf to
    root, a strict improvement is required, so at equal half-width the
    smaller (earlier) cluster wins.  Returns None when no chain node
    qualifies.
    """
    maps = stats._maps
    best = None
    best_hw = 0.0
    for node in chain:
        entry = maps[node].get(item)
        if entry is None:
            continue
        n, total, total_sq, lo, hi = entry
        if n < 2:
            continue
        # two-sided Student-t half-width on the cluster's item mean
        hw = _t_critical(level, n - 1) * math.sqrt(_variance(n, total, total_sq, lo, hi) / n)
        if best is None or hw < best_hw:
            best, best_hw = node, hw
    if best is None:
        return None
    return int(best), best_hw


class CobarReference:
    """The earlier `CobarModel.predict_detailed` over the state of a model
    fit on `train`, through the reference chain walk and accessors above;
    verbatim but for the `unclustered_user` label of a user without a leaf
    and the user's mean, read from the `MeanStats` array."""

    def __init__(self, model, train):
        self.config = model.config
        self.train = train
        self.user_stats = model.user_stats
        self.dendrogram = model.dendrogram
        maps = build_item_stats_dict(model.dendrogram, train)._maps
        self.stats = ClusterItemStatsReference(maps, model.config.confidence_level)
        self._item_counts = np.bincount(train.items, minlength=train.n_items)
        self._clamp = lambda value: _clamp(value, train, model.clamp)

    def predict_detailed(self, user, item):
        from cobar import Fallback, Prediction

        if self.train is None:
            raise RuntimeError("model is not fitted")
        if not 0 <= user < self.train.n_users:
            raise ValueError(f"user index {user} out of range")
        if not 0 <= item < self.train.n_items:
            raise ValueError(f"item index {item} out of range")

        user_mean = float(self.user_stats.means[user])
        if math.isnan(user_mean):
            return Prediction(
                value=self._clamp(self.user_stats.global_mean),
                fallback=Fallback.COLD_USER,
            )

        leaf = leaf_of_reference(self.dendrogram, user)
        choice = None
        if leaf >= 0:
            chain = ancestor_chain_reference(self.dendrogram, leaf)
            sizes = self.dendrogram.nodes[1] - self.dendrogram.nodes[0]
            choice = select_optimal_cluster_reference(chain, item, self.stats, sizes)
        if choice is None:
            if leaf < 0:
                fallback = Fallback.UNCLUSTERED_USER
            else:
                fallback = Fallback.COLD_ITEM if self._item_counts[item] == 0 else Fallback.SINGLE_RATING
            return Prediction(
                value=self._clamp(user_mean),
                fallback=fallback,
                user_mean=user_mean,
            )

        gamma = self.config.gamma
        value = gamma * user_mean + (1.0 - gamma) * choice.mean
        return Prediction(
            value=self._clamp(value),
            fallback=Fallback.NONE,
            chosen_node=choice.node,
            cluster_size=choice.size,
            cluster_mean=choice.mean,
            half_width=choice.half_width,
            user_mean=user_mean,
        )


@lru_cache(maxsize=4)
def _item_stats_dict(dendrogram, train) -> ClusterItemStats:
    """`build_item_stats_dict` once per hierarchy and training set, both
    hashed by identity."""
    return build_item_stats_dict(dendrogram, train)


def composed_prediction(model, train, user, item):
    """The prediction of a predictor fit on `train` for an in-range (user,
    item), built from public pieces one call at a time: the training set's
    means with the numpy aggregate over a fresh `KnnIndex`'s arrays for
    the kNNs, ``float(U[u] @ V[i])`` for MF, the dict maps of `build_item_stats_dict` walked by
    `select_optimal_cluster_dict` along the chain of the user's leaf for
    cobar, and ``min(max(value, lo), hi)`` with the training scale for the
    clamp."""
    from cobar import CobarModel, ItemKnn, MatrixFactorization, MostPopular, UserKnn
    from cobar.kernels import KnnIndex, _python

    if isinstance(model, MostPopular):
        mean = float(train.item_stats.means[item])
        value = train.item_stats.global_mean if math.isnan(mean) else mean
    elif isinstance(model, (UserKnn, ItemKnn)):
        user_major = isinstance(model, UserKnn)
        entity, column = (user, item) if user_major else (item, user)
        stats = train.user_stats if user_major else train.item_stats
        mean = float(stats.means[entity])
        if math.isnan(mean):
            value = stats.global_mean
        else:
            index = KnnIndex(train, user_major, stats, model.config.k)
            agg = _python.knn_aggregate(*index._arrays, index.k, entity, column)
            value = mean if agg is None else mean + agg
    elif isinstance(model, MatrixFactorization):
        value = model.global_mean
        if model.user_seen[user]:
            value += model.user_bias[user]
        if model.item_seen[item]:
            value += model.item_bias[item]
        if model.user_seen[user] and model.item_seen[item]:
            value += float(model.user_factors[user] @ model.item_factors[item])
    elif isinstance(model, CobarModel):
        mean = float(model.user_stats.means[user])
        leaves = model.dendrogram.leaf_users.tolist()
        choice = None
        if math.isnan(mean):
            value = model.user_stats.global_mean
        elif user in leaves:
            stats = _item_stats_dict(model.dendrogram, train)
            chain = ancestor_chain_reference(model.dendrogram, leaves.index(user)).tolist()
            choice = select_optimal_cluster_dict(chain, item, stats, model.config.confidence_level)
        if choice is not None:
            n, total = stats.items_at(choice[0])[item][:2]
            gamma = model.config.gamma
            value = gamma * mean + (1.0 - gamma) * (total / n)
        elif not math.isnan(mean):
            value = mean
    else:
        raise TypeError(f"no composed prediction for {type(model).__name__}")
    return min(max(value, train.rating_min), train.rating_max) if model.clamp else value
