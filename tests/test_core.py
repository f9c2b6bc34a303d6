"""Confidence intervals, per-cluster stats aggregation, cluster selection,
and the blended prediction, checked against from-scratch recomputation."""

import functools
import gc
import math
from collections import Counter
from dataclasses import astuple, replace

import numpy as np
import pytest
from scipy import stats as scipy_stats

from cobar import (
    CobarConfig,
    CobarModel,
    Fallback,
    ItemKnn,
    MatrixFactorization,
    MostPopular,
    RatingDataset,
    UserKnn,
    agglomerate,
)
from cobar.clustering import Dendrogram
from cobar.core import build_item_stats
from cobar.kernels import _t_critical_table
from conftest import RATING_SCALES, make_dataset, random_grid_dataset
from oracles import (
    T_TABLE_95,
    BruteForceOracle,
    ClusterItemStats,
    CobarReference,
    ancestor_chain_reference,
    build_item_stats_dict,
    interval_half_width,
    leaf_of_reference,
    leaves_under,
    node_items,
    select_optimal_cluster_dict,
)


def entry_half_width(entry, level=0.95):
    """The half-width the reference chain walk gives a one-node chain whose
    only accumulator is `entry` = (n, sum, sum_sq, min, max); None when the
    entry does not qualify."""
    choice = select_optimal_cluster_dict((0,), 0, ClusterItemStats([{0: entry}]), level)
    return None if choice is None else choice[1]


def unit_variance_entry(n):
    """An accumulator of n ratings whose sample variance is exactly 1: sum 0,
    sum of squares n - 1."""
    return (n, 0.0, float(n - 1), -1.0, 1.0)


def dict_stats(model, train):
    """The reference per-node dict maps of the hierarchy of a model fit on
    `train`."""
    return build_item_stats_dict(model.dendrogram, train)


def node_half_width(model, reference, node, item):
    """The half-width the reference chain walk gives the node on its own,
    over the model's `dict_stats`."""
    return select_optimal_cluster_dict((node,), item, reference, model.config.confidence_level)[1]


class TestConfidenceHalfWidth:
    def test_zero_variance(self):
        assert entry_half_width((3, 6.0, 12.0, 2.0, 2.0)) == 0.0

    def test_known_sample(self):
        # ratings {1,2,3,4,5}: s^2 = 2.5, published t(4) = 2.7764
        hw = entry_half_width((5, 15.0, 55.0, 1.0, 5.0))
        assert hw == pytest.approx(2.7764 * math.sqrt(0.5), abs=2e-4)
        assert hw == pytest.approx(1.9632, abs=1e-3)

    def test_single_rating_rejected(self):
        assert entry_half_width((1, 4.0, 16.0, 4.0, 4.0)) is None

    def test_matches_published_table(self):
        table = _t_critical_table(0.95, 31)
        for n in range(2, 31):
            implied_t = entry_half_width(unit_variance_entry(n)) * math.sqrt(n)
            assert implied_t == pytest.approx(T_TABLE_95[n - 1], abs=1e-4)
            assert table[n - 1] == pytest.approx(T_TABLE_95[n - 1], abs=1e-4)

    def test_negative_variance_clipped(self):
        # not constant, but the sum-of-squares formula rounds below zero
        ratings = [0.3, 0.300000000000001, 0.3]
        total = total_sq = 0.0
        for r in ratings:
            total += r
            total_sq += r * r
        assert (total_sq - total * total / 3) / 2 < 0.0
        assert entry_half_width((3, total, total_sq, min(ratings), max(ratings))) == 0.0

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError, match="confidence level"):
            CobarConfig(confidence_level=1.5)

    @pytest.mark.parametrize("level", [0.9, 0.95, 0.99])
    def test_t_critical_bit_identical_to_t_ppf(self, level):
        # the table an index builds for its items' rating counts
        dofs = np.arange(1, 20001)
        want = scipy_stats.t.ppf(0.5 + level / 2.0, dofs)
        got = _t_critical_table(level, 20001)[1:]
        assert got.tobytes() == want.tobytes()


class TestBuildItemStats:
    def test_leaf_is_single_rating(self):
        ds = make_dataset([("a", "x", 4.0), ("b", "x", 2.0)])
        dend = agglomerate(ds)
        stats = build_item_stats(dend, ds)
        assert node_items(stats, dend, ds, 0) == {0: (1, 4.0, 16.0, 4.0, 4.0)}

    def test_parent_merges_children(self):
        ds = make_dataset([("a", "x", 2.0), ("b", "x", 4.0)])
        dend = agglomerate(ds)
        stats = build_item_stats(dend, ds)
        assert node_items(stats, dend, ds, 2) == {0: (2, 6.0, 20.0, 2.0, 4.0)}
        # the leaf's single rating gives no interval, so the parent is chosen
        assert CobarModel().fit(ds).predict_detailed(ds.user_index("a"), 0).chosen_node == 2

    def test_root_equals_global(self):
        rng = np.random.default_rng(14)
        ds = random_grid_dataset(rng, max_users=10)
        dend = agglomerate(ds)
        stats = build_item_stats(dend, ds)
        for item in range(ds.n_items):
            ratings = ds.ratings[ds.items == item]
            entry = node_items(stats, dend, ds, dend.n_nodes - 1)[item]
            assert entry[0] == len(ratings)
            assert entry[1] == pytest.approx(ratings.sum(), abs=1e-12)

    def test_aggregation_exact_from_scratch(self):
        # grid ratings make every accumulator sum exact, so equality is exact
        rng = np.random.default_rng(23)
        for _ in range(15):
            ds = random_grid_dataset(rng, max_users=12, max_items=8)
            dend = agglomerate(ds)
            stats = build_item_stats(dend, ds)
            for node in range(dend.n_nodes):
                members = set(dend.leaf_users[leaves_under(dend, node)].tolist())
                expected: dict[int, tuple[int, float, float, float, float]] = {}
                for u, i, r in zip(ds.users, ds.items, ds.ratings):
                    if int(u) in members:
                        r = float(r)
                        n, s, q, lo, hi = expected.get(int(i), (0, 0.0, 0.0, r, r))
                        expected[int(i)] = (n + 1, s + r, q + r * r, min(lo, r), max(hi, r))
                got = node_items(stats, dend, ds, node)
                assert set(got) == set(expected)
                for item, (n, s, q, lo, hi) in expected.items():
                    gn, gs, gq, glo, ghi = got[item]
                    assert gn == n and gs == s and gq == q and glo == lo and ghi == hi

    def test_parent_counts_monotone(self):
        rng = np.random.default_rng(29)
        ds = random_grid_dataset(rng, max_users=12)
        dend = agglomerate(ds)
        stats = build_item_stats(dend, ds)
        for m, (left, right) in enumerate(dend.merges):
            node = dend.n_leaves + m
            for child in (int(left), int(right)):
                for item, (n, *_) in node_items(stats, dend, ds, child).items():
                    assert node_items(stats, dend, ds, node)[item][0] >= n


class TestClusterStatsIndex:
    """The index of `build_item_stats` against the per-(node, item) dict maps
    and the chain walk it replaced (`oracles.build_item_stats_dict` and
    `oracles.select_optimal_cluster_dict`)."""

    @pytest.mark.parametrize("scale", RATING_SCALES)
    def test_every_query_equals_the_dict_walk(self, scale, each_backend):
        rng = np.random.default_rng(2024)
        datasets = [random_grid_dataset(rng, draw=RATING_SCALES[scale]) for _ in range(25)]
        models = [CobarModel().fit(ds) for ds in datasets]
        # users whose ratings are all 0 have no leaf, and their ratings no entry
        unclustered = sum(ds.n_users - m.dendrogram.n_leaves for ds, m in zip(datasets, models))
        assert unclustered > 0 or scale != "int_0_10_zeros"
        for _ in each_backend:
            queries = chosen = 0
            for ds, model in zip(datasets, models):
                dend = model.dendrogram
                stats, reference = build_item_stats(dend, ds), dict_stats(model, ds)
                entries = [node_items(stats, dend, ds, node) for node in range(dend.n_nodes)]
                assert entries == reference._maps
                assert list(map(len, entries)) == list(map(len, reference._maps))
                sizes = dend.nodes[1] - dend.nodes[0]
                for level in (0.9, 0.95, 0.99):
                    _, detail = stats.bind(level, 0.5, -math.inf, math.inf)
                    for leaf in range(dend.n_leaves):
                        chain = ancestor_chain_reference(dend, leaf).tolist()
                        for item in range(ds.n_items):
                            want = select_optimal_cluster_dict(chain, item, reference, level)
                            if want is None:
                                want = (None,) * 4
                            else:
                                node, half_width = want
                                n, total = reference.items_at(node)[item][:2]
                                want = (node, int(sizes[node]), total / n, half_width)
                                chosen += 1
                            # the chosen node, its size, mean and half-width; repr
                            # tells -0.0 from 0.0 and numpy scalars from Python ones
                            got = detail(int(dend.leaf_users[leaf]), item)[2:6]
                            assert repr(got) == repr(want)
                            queries += 1
            assert chosen > queries // 4

    def test_stores_at_most_two_entries_per_rating(self, demo_dataset):
        # 2r - 1 entries for an item with r raters in the hierarchy, and no
        # Python object per (node, item): only arrays and a few containers
        rng = np.random.default_rng(5)
        datasets = [demo_dataset, random_grid_dataset(rng, max_users=60, max_items=40),
                    random_grid_dataset(rng, max_users=60, max_items=40, draw=RATING_SCALES["int_0_10_zeros"])]
        for ds in datasets:
            model = CobarModel().fit(ds)
            dend, stats = model.dendrogram, model.stats
            clustered = np.isin(ds.users, dend.leaf_users)
            raters = np.bincount(ds.items[clustered], minlength=ds.n_items)
            assert stats.n_entries == int(np.sum(2 * raters[raters > 0] - 1)) <= 2 * ds.n_ratings
            model.predict(int(dend.leaf_users[0]), 0)   # a bound query leaves nothing on the index
            objects, arrays, stack = 0, 0, [vars(stats)]
            while stack:
                obj = stack.pop()
                if isinstance(obj, np.ndarray):
                    arrays += obj.size
                    continue
                objects += 1
                stack.extend(ref for ref in gc.get_referents(obj) if isinstance(ref, (np.ndarray, tuple, dict)))
            assert objects < 10
            # the arrays: a position per clustered rating, and a node id
            # and four floats per gap, plus the node ranges and parents, the
            # item offsets, and a mean and a leaf per user and a mean per item
            gaps = stats.n_entries - int(clustered.sum())
            per_key = 2 * ds.n_users + ds.n_items
            assert arrays <= stats.n_entries + 4 * gaps + 3 * dend.n_nodes + 2 * (ds.n_items + 1) + per_key
        # 12 ratings of 4 items
        assert build_item_stats(agglomerate(demo_dataset), demo_dataset).n_entries == 20


def _count(model, train, node, item):
    """Ratings of the item inside the node's cluster of a model fit on
    `train`, 0 when it has none."""
    entry = node_items(model.stats, model.dendrogram, train, node).get(item)
    return entry[0] if entry else 0


def _chosen(model, leaf, item):
    """``(node, half_width, size, mean)`` of the cluster the model's
    prediction for the user at `leaf` and the item chose, None when a
    fallback fired."""
    detailed = model.predict_detailed(int(model.dendrogram.leaf_users[leaf]), item)
    if detailed.fallback is not Fallback.NONE:
        return None
    return detailed.chosen_node, detailed.half_width, detailed.cluster_size, detailed.cluster_mean


class TestSelectOptimalCluster:
    """The narrowest-interval choice of a fitted model's query, bound at the
    model's level."""

    def _model(self, rows):
        ds = make_dataset(rows)
        model = CobarModel().fit(ds)
        return ds, model, functools.partial(_chosen, model)

    def test_single_rating_item_yields_none(self):
        ds, model, query = self._model([("a", "x", 4.0), ("a", "z", 3.0), ("b", "y", 2.0), ("b", "z", 4.0)])
        choice = query(0, ds.item_index("x"))
        assert choice is None

    def test_smaller_cluster_wins_ties(self):
        # users a,b rate x identically; c never rates x, so the root's x-stats
        # equal the pair's and the half-widths tie exactly
        rows = [
            ("a", "x", 3.0), ("a", "y", 4.0),
            ("b", "x", 3.0), ("b", "y", 3.5),
            ("c", "z", 2.0), ("c", "y", 1.0),
        ]
        ds, model, query = self._model(rows)
        item = ds.item_index("x")
        choice = query(0, item)
        node, half_width, size, mean = choice
        assert size == 2 == _count(model, ds, node, item)   # the pair, not the 3-user root
        assert (half_width, mean) == (0.0, 3.0)

    def test_smallest_constant_cluster_wins_off_grid(self):
        # every user rates x exactly 0.7: each qualifying node has width 0,
        # so the first node with two ratings of x must win.  In binary the
        # sums of 0.7 round, and (n, sum, sum_sq) alone gives positive
        # widths of about 1e-8 that differ from node to node.
        rng = np.random.default_rng(61)
        rows = []
        for u in range(60):
            rows.append((f"u{u}", "x", 0.7))
            for i in rng.choice(12, size=3, replace=False):
                rows.append((f"u{u}", f"y{i}", round(float(rng.integers(1, 10)) / 10, 1)))
        ds, model, query = self._model(rows)
        item, reference = ds.item_index("x"), dict_stats(model, ds)
        for leaf in range(model.dendrogram.n_leaves):
            chain = model.dendrogram.ancestor_chain(leaf)
            first = next(int(node) for node in chain if _count(model, ds, int(node), item) >= 2)
            choice = query(leaf, item)
            assert choice[:2] == (first, 0.0)
            assert all(node_half_width(model, reference, int(node), item) == 0.0 for node in chain[chain >= first])

    def test_selected_width_is_minimal(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            ds = random_grid_dataset(rng, max_users=12, max_items=6)
            model = CobarModel().fit(ds)
            reference, query = dict_stats(model, ds), functools.partial(_chosen, model)
            for user in range(ds.n_users):
                leaf = leaf_of_reference(model.dendrogram, user)
                if leaf < 0:
                    continue
                chain = model.dendrogram.ancestor_chain(leaf)
                for item in range(ds.n_items):
                    choice = query(leaf, item)
                    if choice is None:
                        continue
                    widths = [
                        node_half_width(model, reference, int(node), item)
                        for node in chain
                        if _count(model, ds, int(node), item) >= 2
                    ]
                    assert choice[1] <= min(widths)


class TestPredict:
    @pytest.mark.parametrize("model", [CobarModel, MostPopular, UserKnn, ItemKnn, MatrixFactorization],
                             ids=["cobar", "mp", "uknn", "iknn", "mf"])
    def test_repeated_pair_rejected(self, model):
        # the parser keeps one rating per pair, and a dataset built by hand
        # that repeats one is refused before any model can fit it: summed,
        # user a's 4.0 on x would enter a's leaf as an off-scale 8.0 while
        # a's mean counted both ratings, and mp would weight it twice
        with pytest.raises(ValueError, match=r"users and items hold a repeated \(user, item\) pair"):
            model().fit(RatingDataset(
                user_ids=["a", "b"], item_ids=["x", "y"],
                users=np.array([0, 0, 0, 1, 1], dtype=np.int32),
                items=np.array([0, 0, 1, 0, 1], dtype=np.int32),
                ratings=np.array([4.0, 4.0, 2.0, 5.0, 3.0]),
                rating_min=2.0, rating_max=5.0,
            ))

    def test_worked_example(self, demo_dataset):
        model = CobarModel().fit(demo_dataset)
        pred = model.predict_detailed(demo_dataset.user_index("1"), demo_dataset.item_index("100"))
        assert pred.fallback is Fallback.NONE
        assert abs(pred.user_mean - 3.4) < 1e-12
        assert abs(pred.cluster_mean - 2.8) < 1e-12
        assert abs(pred.value - 3.1) < 1e-12
        assert pred.cluster_size == 3
        assert pred.half_width == pytest.approx(0.5, abs=1e-9)

    def test_gamma_one_returns_user_mean(self, demo_dataset):
        model = CobarModel(CobarConfig(gamma=1.0)).fit(demo_dataset)
        pred = model.predict_detailed(demo_dataset.user_index("1"), demo_dataset.item_index("100"))
        assert pred.value == pred.user_mean

    def test_gamma_zero_returns_cluster_mean(self, demo_dataset):
        model = CobarModel(CobarConfig(gamma=0.0)).fit(demo_dataset)
        pred = model.predict_detailed(demo_dataset.user_index("1"), demo_dataset.item_index("100"))
        assert pred.value == pred.cluster_mean

    def test_single_rating_falls_back_to_user_mean(self):
        rows = [("a", "x", 4.0), ("a", "w", 2.0), ("b", "y", 1.0), ("b", "w", 3.0)]
        ds = make_dataset(rows)
        model = CobarModel().fit(ds)
        pred = model.predict_detailed(ds.user_index("b"), ds.item_index("x"))
        assert pred.fallback is Fallback.SINGLE_RATING
        assert pred.value == 2.0   # mean of b's ratings {1, 3}

    def test_cold_user_gets_global_mean(self):
        ds = make_dataset([("a", "x", 4.0), ("b", "x", 2.0), ("c", "y", 3.0)])
        train = ds.subset(np.array([0, 1]))
        model = CobarModel().fit(train)
        pred = model.predict_detailed(ds.user_index("c"), ds.item_index("x"))
        assert pred.fallback is Fallback.COLD_USER
        assert pred.value == 3.0

    def test_cold_item_flagged(self):
        ds = make_dataset([("a", "x", 4.0), ("a", "z", 2.0), ("b", "x", 2.0), ("b", "y", 3.0)])
        train = ds.subset(np.array([0, 1, 2]))   # y unrated in train
        model = CobarModel().fit(train)
        pred = model.predict_detailed(ds.user_index("a"), ds.item_index("y"))
        assert pred.fallback is Fallback.COLD_ITEM
        assert pred.value == 3.0   # a's training mean

    def test_unclustered_raters_still_rate_an_item(self, each_backend):
        # y's only training raters, a and b, rate everything 0, so they
        # have no leaf and the index holds no rating of y: y is rated once
        # or more, not cold, for a clustered user; v has no training rating
        ds = make_dataset([("a", "y", 0.0), ("a", "w", 0.0), ("b", "y", 0.0), ("c", "x", 3.0), ("c", "w", 4.0),
                           ("d", "x", 1.0), ("d", "v", 2.0)])
        train = ds.subset(np.arange(ds.n_ratings - 1))   # v unrated in train
        for _ in each_backend:
            model = CobarModel().fit(train)
            assert model.stats.n_entries == 4   # x twice and w once, one gap
            c = ds.user_index("c")
            for item, fallback in (("y", Fallback.SINGLE_RATING), ("v", Fallback.COLD_ITEM),
                                   ("x", Fallback.NONE)):
                pred = model.predict_detailed(c, ds.item_index(item))
                assert pred.fallback is fallback
                if fallback is not Fallback.NONE:
                    assert pred.value == pred.user_mean == 3.5

    def test_unclustered_user_labelled(self):
        # a's ratings are all 0, so a has no leaf; x has three ratings
        ds = make_dataset([("a", "x", 0.0), ("a", "y", 0.0), ("b", "x", 3.0), ("c", "x", 5.0)])
        model = CobarModel().fit(ds)
        for item in ("x", "y"):
            pred = model.predict_detailed(ds.user_index("a"), ds.item_index(item))
            assert pred.fallback is Fallback.UNCLUSTERED_USER
            assert pred.value == 0.0 and pred.user_mean == 0.0

    def test_blend_stays_between_means_without_clamp(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            ds = random_grid_dataset(rng, max_users=10)
            gamma = float(rng.uniform(0, 1))
            model = CobarModel(CobarConfig(gamma=gamma), clamp=False).fit(ds)
            for user in range(ds.n_users):
                for item in range(ds.n_items):
                    pred = model.predict_detailed(user, item)
                    if pred.fallback is Fallback.NONE:
                        lo = min(pred.user_mean, pred.cluster_mean)
                        hi = max(pred.user_mean, pred.cluster_mean)
                        assert lo - 1e-12 <= pred.value <= hi + 1e-12

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(58)
        mismatches = 0
        for _ in range(40):
            ds = random_grid_dataset(rng, max_users=12, max_items=8)
            model = CobarModel().fit(ds)
            oracle = BruteForceOracle(ds, model.dendrogram)
            for user in range(ds.n_users):
                for item in range(ds.n_items):
                    got = model.predict(user, item)
                    expected, _, _ = oracle(user, item)
                    if got != expected:
                        mismatches += 1
        assert mismatches == 0

    def test_unfitted_model_rejected(self):
        with pytest.raises(RuntimeError):
            CobarModel().predict(0, 0)

    def test_out_of_range_indices_rejected(self, demo_dataset):
        model = CobarModel().fit(demo_dataset)
        with pytest.raises(ValueError):
            model.predict(99, 0)
        with pytest.raises(ValueError):
            model.predict(0, 99)

    def test_clamping_to_training_scale(self):
        # user mean far above the only cluster mean; gamma extreme
        rows = [("a", "x", 4.0), ("a", "y", 4.0), ("b", "x", 0.5), ("b", "y", 0.5)]
        ds = make_dataset(rows)
        unclamped = CobarModel(clamp=False).fit(ds)
        clamped = CobarModel().fit(ds)
        for user in range(2):
            for item in range(2):
                v = clamped.predict(user, item)
                assert ds.rating_min <= v <= ds.rating_max
                raw = unclamped.predict(user, item)
                assert v == min(max(raw, ds.rating_min), ds.rating_max)

    def test_half_width_consistent_with_raw_recomputation(self, demo_dataset):
        model = CobarModel().fit(demo_dataset)
        item, reference = demo_dataset.item_index("100"), dict_stats(model, demo_dataset)
        chain = model.dendrogram.ancestor_chain(0)
        for node in chain:
            entry = node_items(model.stats, model.dendrogram, demo_dataset, int(node)).get(item)
            if entry is None or entry[0] < 2:
                continue
            members = set(model.dendrogram.leaf_users[leaves_under(model.dendrogram, int(node))].tolist())
            raw = sorted(
                float(r)
                for u, i, r in zip(demo_dataset.users, demo_dataset.items, demo_dataset.ratings)
                if int(i) == item and int(u) in members
            )
            assert node_half_width(model, reference, int(node), item) == pytest.approx(
                interval_half_width(raw), abs=1e-9
            )


def _non_grid_split(seed):
    """A dataset and a training subset of it with cold users and items.

    Ratings lie on a 0.1 grid from 0.1 to 9.9, whose sums round in binary.
    Five items get one constant rating each from a block of twelve users
    and from about a third of the others, so zero widths and exact width
    ties between a node and its ancestors occur.  Two items have a single
    rating.  One user rates only with 0, so it has no leaf.  Training drops
    every rating of two users and two items, and every fifth other rating
    except the single ones.
    """
    rng = np.random.default_rng(seed)
    constant = [0.3, 0.7, 1.1, 2.9, 9.9]
    rows = []
    for u in range(48):
        for i in rng.choice(30, size=int(rng.integers(2, 12)), replace=False):
            rows.append((f"u{u}", f"i{i}", int(rng.integers(1, 100)) / 10))
        if rng.random() < 0.35:
            k = int(rng.integers(0, 5))
            rows.append((f"u{u}", f"k{k}", constant[k]))
    for u in range(12):
        for k in range(5):
            rows.append((f"c{u}", f"k{k}", constant[k]))
        rows.append((f"c{u}", f"i{int(rng.integers(0, 30))}", int(rng.integers(1, 100)) / 10))
    rows += [("u2", "s0", 4.4), ("c0", "s1", 0.1)]
    rows += [("zero", f"i{i}", 0.0) for i in (3, 4, 5)]
    ds = make_dataset(rows)
    cold_users = [ds.user_index("u0"), ds.user_index("u1")]
    cold_items = [ds.item_index("i0"), ds.item_index("i1")]
    keep = ~(np.isin(ds.users, cold_users) | np.isin(ds.items, cold_items))
    keep &= (np.arange(ds.n_ratings) % 5 != 0) | np.isin(ds.items, [ds.item_index("s0"), ds.item_index("s1")])
    return ds, ds.subset(np.flatnonzero(keep))


class TestPredictionAgainstReference:
    """Every `Prediction` field, bit for bit, against the earlier
    method-per-node chain walk kept in `oracles.CobarReference`, and
    `predict`, a run of its own, against the reference's value."""

    @pytest.mark.parametrize("clamp", [True, False])
    @pytest.mark.parametrize("level, gamma", [
        # the default gamma keeps the ids the cases had before gamma varied
        pytest.param(level, gamma, id=str(level) if gamma == 0.5 else f"{level}-gamma{gamma}")
        for level in (0.9, 0.95, 0.99) for gamma in (0.5, 0.0, 1.0)
    ])
    def test_every_pair_bit_identical(self, level, gamma, clamp, each_backend):
        ds, train = _non_grid_split(71)
        # a scale narrower than the ratings, so that clamping changes values
        train = replace(train, rating_min=2.0, rating_max=8.0)
        for _ in each_backend:
            model = CobarModel(CobarConfig(gamma=gamma, confidence_level=level), clamp=clamp).fit(train)
            reference = CobarReference(model, train)
            fallbacks = Counter()
            off_scale = zero_widths = ties = 0
            for user in range(ds.n_users):
                for item in range(ds.n_items):
                    got = model.predict_detailed(user, item)
                    want = reference.predict_detailed(user, item)
                    # repr tells -0.0 from 0.0 and a numpy scalar from a Python one
                    assert repr(astuple(got)) == repr(astuple(want)), (user, item)
                    assert repr(model.predict(user, item)) == repr(want.value), (user, item)
                    fallbacks[got.fallback] += 1
                    off_scale += not 2.0 <= got.value <= 8.0
                    if got.fallback is not Fallback.NONE:
                        continue
                    zero_widths += got.half_width == 0.0
                    leaf = leaf_of_reference(model.dendrogram, user)
                    chain = ancestor_chain_reference(model.dendrogram, leaf).tolist()
                    later = chain[chain.index(got.chosen_node) + 1:]
                    ties += any(
                        _count(model, train, node, item) >= 2
                        and reference.stats.half_width(node, item) == got.half_width
                        for node in later
                    )
            assert set(fallbacks) == set(Fallback)
            assert zero_widths > 0 and ties > 0
            assert (off_scale == 0) if clamp else (off_scale > 0)


class TestPredictIsTheDetailedValue:
    @pytest.mark.parametrize("scale", RATING_SCALES)
    def test_every_pair(self, scale, each_backend):
        # `predict` returns `predict_detailed(...).value` and the reference's
        # value, and a chosen cluster's size is the dendrogram's, as a
        # Python int; gamma and the clamp vary with the dataset
        rng = np.random.default_rng(95)
        trains = []
        for _ in range(8):
            ds = random_grid_dataset(rng, draw=RATING_SCALES[scale])
            # training drops about a quarter of the ratings: cold users and items
            train = ds.subset(np.flatnonzero(rng.random(ds.n_ratings) < 0.75))
            if train.n_ratings and np.any(np.bincount(train.users, weights=train.ratings**2) > 0):
                trains.append((ds, train))
        for _ in each_backend:
            fallbacks = Counter()
            for k, (ds, train) in enumerate(trains):
                model = CobarModel(CobarConfig(gamma=(0.5, 0.0, 1.0)[k % 3]), clamp=k % 2 == 0).fit(train)
                reference = CobarReference(model, train)
                for user in range(ds.n_users):
                    for item in range(ds.n_items):
                        detailed = model.predict_detailed(user, item)
                        value = repr(model.predict(user, item))
                        assert value == repr(detailed.value) == repr(reference.predict_detailed(user, item).value)
                        fallbacks[detailed.fallback] += 1
                        if detailed.fallback is Fallback.NONE:
                            size = detailed.cluster_size
                            nodes = model.dendrogram.nodes[:, detailed.chosen_node]
                            assert type(size) is int and size == nodes[1] - nodes[0]
            assert fallbacks[Fallback.NONE] > 0 and fallbacks[Fallback.COLD_USER] + fallbacks[Fallback.COLD_ITEM] > 0


class TestPredictionIsPureRead:
    def test_catalogue_order_and_model_state(self):
        ds, train = _non_grid_split(83)
        model = CobarModel().fit(train)
        state = dict(vars(model))
        lengths = {key: len(value) for key, value in state.items() if hasattr(value, "__len__")}
        tree = [getattr(model.dendrogram, name).tobytes() for name in Dendrogram._READ_ONLY]
        nodes = range(model.dendrogram.n_nodes)
        entries = [len(node_items(model.stats, model.dendrogram, train, node)) for node in nodes]

        pairs = [(user, item) for user in range(ds.n_users) for item in range(ds.n_items)]
        forwards = np.array([model.predict(user, item) for user, item in pairs])
        backwards = np.array([model.predict(user, item) for user, item in reversed(pairs)])[::-1]
        assert forwards.tobytes() == backwards.tobytes()

        assert vars(model).keys() == state.keys()
        assert all(vars(model)[key] is value for key, value in state.items())
        assert {key: len(vars(model)[key]) for key in lengths} == lengths
        assert [getattr(model.dendrogram, name).tobytes() for name in Dendrogram._READ_ONLY] == tree
        assert [len(node_items(model.stats, model.dendrogram, train, node)) for node in nodes] == entries
