"""Agglomerative user hierarchy: Ward linkage over cosine distances.

Users are represented by their rating vectors over the full item space
(zero where unrated).  The merge loop applies the Lance-Williams recurrence
with Ward coefficients to the *squared* cosine distances; reported merge
heights are the square roots of those linkage values, so the two-user case
degenerates to the plain pairwise distance.

Ties in the minimal linkage are broken by the lexicographically smallest
(node id, node id) pair, making the hierarchy deterministic.

The pairwise distances are stored once, as the condensed upper triangle of
n(n-1)/2 doubles: `cosine_distance_matrix`, the checked entry of the
distance pass in `cobar.kernels`, fills it, and the merge loop squares it
in place and works inside it.  `agglomerate` looks the pass up in this
module, where perfbench's tracer wraps it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import kernels
from .data import RatingDataset, _ReadOnlyState, _checked
from .kernels import cosine_distance_matrix


@dataclass(eq=False)
class Dendrogram(_ReadOnlyState):
    """Binary merge tree; leaves 0..n-1 are users, node n+m is merge m.

    Construction checks the tree once, for every reader: n >= 1 distinct
    leaf users, C-contiguous arrays, and each merge joining two distinct
    nodes made before it, no node twice; `TypeError` or `ValueError`
    otherwise.  Like `RatingDataset`, it keeps read-only copies of the
    arrays, and it derives the layout once: the leaves are numbered
    depth-first, so node v covers the leaf positions lows[v] <= p < highs[v],
    highs[v] - lows[v] of them, and a leaf's path to the root follows the
    parent ids.  It holds only these four arrays.  Equality is identity.
    """

    _READ_ONLY = ("merges", "heights", "leaf_users", "nodes")

    merges: np.ndarray      # (n-1, 2) int64 node ids, row-sorted
    heights: np.ndarray     # (n-1,) float64, non-decreasing
    leaf_users: np.ndarray  # (n_leaves,) int64 dataset user index per leaf
    nodes: np.ndarray = field(init=False, repr=False)   # (3, 2n-1) int64 lows, highs, parents (root: -1)

    def __post_init__(self):
        merges = _checked("merges", self.merges, 2, "int64").copy()
        heights = _checked("heights", self.heights, 1, "float64").copy()
        leaf_users = _checked("leaf_users", self.leaf_users, 1, "int64").copy()
        n = len(leaf_users)
        if n == 0 or merges.shape != (n - 1, 2) or heights.shape != (n - 1,):
            raise ValueError(f"merges and heights must have shapes (n-1, 2) and (n-1,) for n >= 1 leaves, "
                             f"got {merges.shape} and {heights.shape} for {n}")
        if len(np.unique(leaf_users)) != n:
            raise ValueError("leaf_users holds a repeated user")
        # a tree: merge m joins two distinct nodes made before it, and no node twice
        if n > 1 and (merges.min() < 0 or np.any(merges.max(axis=1) >= n + np.arange(n - 1))
                      or np.any(np.bincount(merges.ravel(), minlength=2 * n - 2) != 1)):
            raise ValueError("merges do not form a binary tree over the leaves")

        pairs = merges.tolist()
        sizes, parents, lows = [1] * (2 * n - 1), [-1] * (2 * n - 1), [0] * (2 * n - 1)
        for m, (left, right) in enumerate(pairs):
            sizes[n + m] = sizes[left] + sizes[right]
            parents[left] = parents[right] = n + m
        # top down: a parent's id is above its children's, so its low is set
        # before theirs
        for m in range(n - 2, -1, -1):
            left, right = pairs[m]
            lows[left] = lows[n + m]
            lows[right] = lows[n + m] + sizes[left]
        self.merges, self.heights, self.leaf_users = merges, heights, leaf_users
        lows = np.array(lows, dtype=np.int64)
        self.nodes = np.stack([lows, lows + np.array(sizes, dtype=np.int64), np.array(parents, dtype=np.int64)])
        self._restore()

    @property
    def n_leaves(self) -> int:
        return len(self.leaf_users)

    @property
    def n_nodes(self) -> int:
        return 2 * self.n_leaves - 1

    def ancestor_chain(self, leaf: int) -> np.ndarray:
        """Node ids from the user's leaf up to the root, inclusive, by the
        parent ids."""
        if not 0 <= leaf < self.n_leaves:
            raise ValueError(f"leaf index {leaf} out of range [0, {self.n_leaves})")
        parents = self.nodes[2]
        chain = [leaf]
        while parents[chain[-1]] >= 0:
            chain.append(parents[chain[-1]])
        return np.array(chain, dtype=np.int64)

    def save(self, path: str | Path) -> None:
        """Text export, one merge per line: `left right height new_id`."""
        with open(path, "w", encoding="utf-8") as fh:
            for m, ((left, right), h) in enumerate(zip(self.merges, self.heights)):
                fh.write(f"{left} {right} {float(h)!r} {self.n_leaves + m}\n")


def clusterable_users(dataset: RatingDataset) -> np.ndarray:
    """Users with a nonzero rating vector, which implies at least one rating."""
    sum_sq = np.bincount(dataset.users, weights=dataset.ratings**2, minlength=dataset.n_users)
    return np.flatnonzero(sum_sq > 0.0)


def agglomerate(dataset: RatingDataset) -> Dendrogram:
    """Cluster the dataset's clusterable users, in ascending index order,
    into a full merge hierarchy: `kernels.ward_linkage` over their
    `cosine_distance_matrix`, whose buffer, the fit's only n^2 array, the
    merge loop squares and works in, then the `Dendrogram` of its merges
    and heights."""
    if dataset.n_ratings == 0:
        raise ValueError("cannot cluster an empty dataset")
    users = clusterable_users(dataset)
    if len(users) == 0:
        raise ValueError("no users with ratings to cluster")

    merges, heights = kernels.ward_linkage(cosine_distance_matrix(dataset, users))
    return Dendrogram(merges=merges, heights=heights, leaf_users=users)
