"""Cosine distances, the agglomeration kernel, and dendrogram structure."""

import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import squareform

from cobar import agglomerate, cosine_distance_matrix, kernels
from cobar.clustering import Dendrogram, clusterable_users
from cobar.kernels import _python
from conftest import RATING_SCALES, c_compiler_found, make_dataset, random_grid_dataset
from oracles import (
    ancestor_chain_reference,
    condensed,
    cosine_distance_reference,
    dense_ratings,
    leaves_under,
    pairwise_cosine_distance,
    parents_reference,
    ward_agglomeration,
    ward_reference,
)


def signed_dataset(rng, n_users=400, n_items=150):
    """Non-grid ratings of both signs, so cosines fall below 0, plus copies
    and negated copies of some users, whose cosines of +-1 can round past
    the clip bounds."""
    rows = []
    for u in range(n_users):
        items = rng.choice(n_items, size=int(rng.integers(1, 25)), replace=False)
        for i in items:
            rows.append((f"u{u}", f"i{i}", round(float(rng.normal(0.3, 2.0)), 3)))
    ratings_of = {}
    for u, i, r in rows:
        ratings_of.setdefault(u, []).append((i, r))
    for k, u in enumerate(list(ratings_of)[:40]):
        sign = -1.0 if k % 2 else 1.0
        rows.extend((f"copy{k}", i, sign * r * 1.5) for i, r in ratings_of[u])
    return make_dataset(rows)


def pair_distance(rows):
    """Cosine distance between the two users of a two-user dataset."""
    ds = make_dataset(rows)
    dist = cosine_distance_matrix(ds, np.arange(ds.n_users))
    assert dist.shape == (1,)
    return dist[0]


class TestCosineDistance:
    def test_identical_vectors(self):
        rows = [(u, i, r) for u in "ab" for i, r in zip("xyz", [1.0, 2.0, 3.0])]
        assert pair_distance(rows) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_supports(self):
        assert pair_distance([("a", "x", 3.0), ("b", "y", 2.0)]) == pytest.approx(1.0)

    def test_hand_computed_pair(self):
        rows = [("a", "x", 1.0), ("a", "y", 2.0), ("b", "x", 2.0), ("b", "y", 1.0)]
        # dot = 4, norms = sqrt(5) each
        assert pair_distance(rows) == pytest.approx(1.0 - 4.0 / 5.0, abs=1e-12)

    def test_zero_norm_rejected(self):
        rows = [("a", "x", 0.0), ("a", "y", 0.0), ("a", "z", 0.0), ("b", "x", 1.0)]
        with pytest.raises(ValueError, match="zero-norm"):
            pair_distance(rows)

    @pytest.mark.parametrize("dataset, users, error, match", [
        (lambda ds: [ds.users, ds.items, ds.ratings], np.arange(3), TypeError, "must be a RatingDataset"),
        (lambda ds: ds, np.arange(3.0), TypeError, "must hold integers"),
        (lambda ds: ds, np.array([True, False, True]), TypeError, "must hold integers"),
        (lambda ds: ds, np.arange(4).reshape(2, 2), ValueError, "1-dimensional"),
        (lambda ds: ds, np.array([0, 3]), IndexError, r"out of range \[0, 3\)"),
        (lambda ds: ds, np.array([-1, 0]), IndexError, "out of range"),
        (lambda ds: ds, np.array([0, 2, 0]), ValueError, "repeated user"),
    ], ids=["triples", "float-users", "mask", "2-d", "user-high", "user-negative", "repeated"])
    def test_bad_argument_rejected(self, kernel_backend, dataset, users, error, match):
        ds = make_dataset([(u, i, 1.0) for u in "abc" for i in "xy"])
        with pytest.raises(error, match=match):
            cosine_distance_matrix(dataset(ds), users)

    def test_matrix_matches_pairwise_function(self):
        rng = np.random.default_rng(6)
        ds = random_grid_dataset(rng, max_users=10)
        users = clusterable_users(ds)
        dist = cosine_distance_matrix(ds, users)
        assert dist.shape == (len(users) * (len(users) - 1) // 2,)
        dense = dense_ratings(ds)
        pos = 0
        for a in range(len(users)):
            for b in range(a + 1, len(users)):   # pdist order
                expected = pairwise_cosine_distance(dense[users[a]], dense[users[b]])
                assert dist[pos] == pytest.approx(expected, abs=1e-10)
                pos += 1

    @pytest.mark.parametrize("scale", [*RATING_SCALES, "signed_copies"])
    def test_matrix_bit_identical_to_reference(self, scale, request, monkeypatch):
        # only step_0_01 and signed_copies have sums that round, so only
        # they tell apart two ways of summing the squares into the norms or
        # the products into the dot products
        rng = np.random.default_rng(8)
        if scale == "signed_copies":
            datasets = [signed_dataset(rng)]
        else:
            datasets = [random_grid_dataset(rng, max_users=40, max_items=25, draw=RATING_SCALES[scale])
                        for _ in range(40)]
        backends = [_python]
        if c_compiler_found():
            backends.append(request.getfixturevalue("compiled_kernels"))
        for ds in datasets:
            users = clusterable_users(ds)
            shuffled = rng.permutation(users)
            ref = cosine_distance_reference(ds, users)
            ref_shuffled = cosine_distance_reference(ds, shuffled)
            if scale == "signed_copies":
                assert len(users) >= 400
                assert ref.max() > 1.0   # negative cosines present
            ref_merges, ref_heights = ward_reference(ref**2)
            # each backend's cosine loop, and the hierarchy its Ward loop
            # builds on the distances
            for backend in backends:
                monkeypatch.setattr(kernels, "_loops", backend)
                assert np.array_equal(squareform(cosine_distance_matrix(ds, users)), ref)
                assert np.array_equal(squareform(cosine_distance_matrix(ds, shuffled)), ref_shuffled)
                dend = agglomerate(ds)
                assert np.array_equal(dend.merges, ref_merges)
                assert np.array_equal(dend.heights, np.sqrt(np.maximum(ref_heights, 0.0)))


class TestAgglomerate:
    def test_single_user_degenerate(self):
        ds = make_dataset([("solo", "x", 3.0)])
        dend = agglomerate(ds)
        assert dend.n_leaves == 1
        assert len(dend.merges) == 0
        assert dend.n_nodes == 1
        assert dend.ancestor_chain(0).tolist() == [0]

    def test_two_users_height_equals_distance(self):
        ds = make_dataset([("a", "x", 4.0), ("a", "y", 1.0), ("b", "x", 1.0), ("b", "y", 4.0)])
        dend = agglomerate(ds)
        assert len(dend.merges) == 1
        assert dend.merges[0].tolist() == [0, 1]
        dense = dense_ratings(ds)
        assert dend.heights[0] == pytest.approx(pairwise_cosine_distance(dense[0], dense[1]), abs=1e-12)

    def test_two_tight_pairs_merge_first(self):
        # users 0,1 share item tastes; users 2,3 share different ones
        rows = [
            ("a", "x", 4.0), ("a", "y", 3.5),
            ("b", "x", 4.0), ("b", "y", 3.0),
            ("c", "p", 2.0), ("c", "q", 4.0),
            ("d", "p", 2.0), ("d", "q", 3.5),
        ]
        dend = agglomerate(make_dataset(rows))
        first_two = {tuple(m) for m in dend.merges[:2].tolist()}
        assert first_two == {(0, 1), (2, 3)}
        assert dend.merges[2].tolist() == [4, 5]

    def test_matches_closed_form_oracle(self, ward_linkage):
        rng = np.random.default_rng(100)
        for _ in range(25):
            n = int(rng.integers(2, 12))
            d = rng.uniform(0.05, 1.9, size=(n, n))
            d = np.triu(d, 1)
            d = d + d.T
            merges, heights = ward_linkage(condensed(d))
            oracle_merges, oracle_heights = ward_agglomeration(d**2)
            np.testing.assert_array_equal(merges, oracle_merges)
            np.testing.assert_allclose(heights, np.sqrt(oracle_heights), rtol=1e-9, atol=1e-12)

    def test_exact_tie_break_lexicographic(self, ward_linkage):
        # three identical points: every pairwise distance is 0
        merges, heights = ward_linkage(np.zeros(3))
        assert merges.tolist() == [[0, 1], [2, 3]]
        assert heights.tolist() == [0.0, 0.0]

    def test_peak_memory_half_matrix(self, kernel_backend):
        # the condensed distances (n(n-1)/2 doubles) and the ratings laid
        # out along both axes; both merge loops work inside the distances.
        # Here 0.62 (compiled) and 0.65 (numpy): 40 ratings per user make
        # the layout large next to the distances
        rng = np.random.default_rng(12)
        rows = [
            (f"u{u}", f"i{i}", int(rng.integers(1, 11)) / 2.0)
            for u in range(1000)
            for i in rng.choice(300, size=40, replace=False)
        ]
        ds = make_dataset(rows)
        n = len(clusterable_users(ds))
        tracemalloc.start()
        try:
            agglomerate(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.8 * 8 * n * n

    def test_inputs_not_written(self, kernel_backend):
        # the merge loop overwrites the distances agglomerate made, and
        # nothing the caller passed in
        ds = signed_dataset(np.random.default_rng(73), n_users=60, n_items=40)
        arrays = [ds.users, ds.items, ds.ratings]
        before = [a.copy() for a in arrays]
        agglomerate(ds)
        for array, copy in zip(arrays, before):
            np.testing.assert_array_equal(array, copy)

    def test_empty_dataset_rejected(self):
        ds = make_dataset([("a", "x", 3.0)]).subset(np.array([], dtype=int))
        with pytest.raises(ValueError):
            agglomerate(ds)

    def test_users_without_ratings_excluded(self):
        ds = make_dataset([("a", "x", 3.0), ("b", "x", 2.0), ("c", "y", 4.0)])
        train = ds.subset(np.array([0, 1]))   # user c has no train ratings
        dend = agglomerate(train)
        assert dend.n_leaves == 2
        assert dend.leaf_users.tolist() == [0, 1]


def check_dendrogram_invariants(dend: Dendrogram):
    n = dend.n_leaves
    root = dend.n_nodes - 1
    assert dend.merges.shape == (n - 1, 2)
    assert sorted(leaves_under(dend, root).tolist()) == list(range(n))
    # each node is merged away at most once; root has no parent
    children = dend.merges.ravel().tolist()
    assert len(children) == len(set(children))
    parents = parents_reference(dend)
    assert parents[root] == -1
    assert np.all(parents[:-1] >= 0) if n > 1 else True
    # heights never decrease
    assert np.all(np.diff(dend.heights) >= 0.0)
    # the layout: parents, and each node's range of depth-first leaf positions
    lows, highs, layout_parents = dend.nodes
    assert layout_parents.tolist() == parents.tolist()
    assert lows[leaves_under(dend, root)].tolist() == list(range(n))
    for node in range(dend.n_nodes):
        assert sorted(np.flatnonzero((lows[:n] >= lows[node]) & (lows[:n] < highs[node]))) == \
            sorted(leaves_under(dend, node).tolist())
        assert highs[node] - lows[node] == len(leaves_under(dend, node))
    # sibling memberships are disjoint and union to the parent
    for m, (left, right) in enumerate(dend.merges):
        node = n + m
        left_set = set(leaves_under(dend, int(left)).tolist())
        right_set = set(leaves_under(dend, int(right)).tolist())
        assert not left_set & right_set
        assert left_set | right_set == set(leaves_under(dend, node).tolist())
        assert highs[node] - lows[node] == len(left_set) + len(right_set)


class TestDendrogramChecksInputs:
    """A `Dendrogram` checks its tree once, when it is built, for every
    reader of it, and keeps read-only copies of its arrays."""

    @pytest.mark.parametrize("name, value, error, match", [
        ("merges", lambda m: m.astype(np.int32), TypeError, "must hold int64"),
        ("merges", lambda m: m[:-1], ValueError, "shape"),
        ("merges", lambda m: np.where(m == m.max(), 0, m), ValueError, "binary tree"),
        ("merges", lambda m: m[::-1].copy(), ValueError, "binary tree"),
        ("heights", lambda h: h[:-1], ValueError, "shape"),
        ("leaf_users", lambda u: u.astype(np.int32), TypeError, "must hold int64"),
        ("leaf_users", lambda u: np.r_[u[:-1], u[0]], ValueError, "repeated user"),
        ("leaf_users", lambda u: u[:0], ValueError, "shape"),
    ], ids=["int32-merges", "merges-length", "node-twice", "child-after-parent", "heights-length", "int32-leaves",
            "repeated-leaf", "no-leaves"])
    def test_bad_argument_rejected(self, demo_dataset, name, value, error, match):
        dend = agglomerate(demo_dataset)
        fields = {"merges": dend.merges, "heights": dend.heights, "leaf_users": dend.leaf_users}
        fields[name] = value(fields[name])
        with pytest.raises(error, match=match):
            Dendrogram(**fields)

    def test_keeps_read_only_copies(self, demo_dataset):
        dend = agglomerate(demo_dataset)
        given = {name: getattr(dend, name).copy() for name in ("merges", "heights", "leaf_users")}
        kept = {name: array.copy() for name, array in given.items()}
        built = Dendrogram(**given)
        for name in ("merges", "heights", "leaf_users", "nodes"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(built, name)[0] = 0
        for name, array in given.items():
            assert array.flags.writeable and array.tobytes() == kept[name].tobytes()
            array[...] = 0   # the caller's arrays stay the caller's
            assert getattr(built, name).tobytes() == kept[name].tobytes()
        # the stats index reads the dendrogram's layout, not a copy of it
        assert kernels.ClusterStatsIndex(built, demo_dataset)._arrays[4] is built.nodes


class TestDendrogramStructure:
    def test_invariants_on_random_datasets(self):
        rng = np.random.default_rng(77)
        for _ in range(30):
            ds = random_grid_dataset(rng, max_users=14, max_items=10)
            check_dendrogram_invariants(agglomerate(ds))

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(53)
        ds = random_grid_dataset(rng, max_users=15)
        a = agglomerate(ds)
        b = agglomerate(ds)
        np.testing.assert_array_equal(a.merges, b.merges)
        np.testing.assert_array_equal(a.heights, b.heights)

    def test_ancestor_chain_two_users(self):
        ds = make_dataset([("a", "x", 4.0), ("b", "y", 3.0)])
        dend = agglomerate(ds)
        assert dend.ancestor_chain(0).tolist() == [0, 2]

    def test_all_chains_end_at_root(self):
        rng = np.random.default_rng(60)
        ds = random_grid_dataset(rng, max_users=12)
        dend = agglomerate(ds)
        parents = parents_reference(dend)
        for leaf in range(dend.n_leaves):
            chain = dend.ancestor_chain(leaf)
            assert chain[0] == leaf
            assert chain[-1] == dend.n_nodes - 1
            # consecutive entries are child -> parent
            for child, parent in zip(chain[:-1], chain[1:]):
                assert parents[child] == parent

    def test_chain_table_matches_parent_walk(self):
        rng = np.random.default_rng(62)
        for _ in range(20):
            dend = agglomerate(random_grid_dataset(rng, max_users=16))
            for leaf in range(dend.n_leaves):
                walked = ancestor_chain_reference(dend, leaf)
                got = dend.ancestor_chain(leaf)
                assert got.dtype == np.int64 and got.tolist() == walked.tolist()

    def test_demo_fixture_chain_topology(self, demo_dataset):
        # the shipped 5-user fixture: the active user pairs up first, gains a
        # third member, and only meets the remaining pair at the root
        dend = agglomerate(demo_dataset)
        chain = dend.ancestor_chain(0)
        assert chain.tolist() == [0, 5, 6, 8]
        assert (dend.nodes[1] - dend.nodes[0])[chain].tolist() == [1, 2, 3, 5]

    def test_unknown_leaf_rejected(self):
        ds = make_dataset([("a", "x", 4.0), ("b", "y", 3.0)])
        with pytest.raises(ValueError):
            agglomerate(ds).ancestor_chain(5)

    def test_export_format(self, tmp_path):
        ds = make_dataset([("a", "x", 4.0), ("a", "y", 1.0), ("b", "x", 1.0), ("b", "y", 4.0)])
        dend = agglomerate(ds)
        path = tmp_path / "tree.txt"
        dend.save(path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        left, right, height, new_id = lines[0].split()
        assert (int(left), int(right), int(new_id)) == (0, 1, 2)
        assert float(height) == dend.heights[0]
