"""Acceptance suite: one test per release criterion.

Each test carries an `acceptance` marker; the conftest hook prints a
PASS/FAIL line per criterion at the end of the run.  The real-dataset
reproductions (C3, C4) need the public rating files on disk and skip with
instructions when they are absent; see the README's data section for how
to fetch and prepare them.
"""

import math
import os
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from cobar import (
    CobarModel,
    Fallback,
    build_algorithms,
    parse_ratings,
    rmse,
    run_cross_validation,
    subsample_users,
    wilcoxon_signed_rank,
)
from cobar.baselines import MfConfig
from cobar.clustering import agglomerate
from cobar.core import build_item_stats
from cobar.kernels import _t_critical_table
from conftest import DATA_DIR, RATING_SCALES, random_grid_dataset, worst_status
from oracles import T_TABLE_95, WILCOXON_CRITICAL, BruteForceOracle, leaves_under, node_items
from test_clustering import check_dendrogram_invariants
from test_core import entry_half_width, unit_variance_entry

EXTERNAL_DATA_DIR = Path(os.environ.get("COBAR_DATA_DIR", DATA_DIR))


def _external(name: str) -> Path:
    path = EXTERNAL_DATA_DIR / name
    if not path.exists():
        pytest.skip(
            f"{name} not found under {EXTERNAL_DATA_DIR} "
            f"(set COBAR_DATA_DIR; see README for download and preparation)"
        )
    return path


@pytest.mark.acceptance("C1 worked-example blend equals 3.1 exactly")
def test_c1_worked_example(demo_dataset):
    model = CobarModel().fit(demo_dataset)
    pred = model.predict_detailed(demo_dataset.user_index("1"), demo_dataset.item_index("100"))
    assert abs(pred.user_mean - 3.4) <= 1e-12
    assert abs(pred.cluster_mean - 2.8) <= 1e-12
    assert abs(pred.value - 3.1) <= 1e-12
    assert pred.half_width == pytest.approx(0.5, abs=1e-9)


@pytest.mark.acceptance("C2 exhaustive-oracle equivalence on 200 random datasets per rating scale")
@pytest.mark.parametrize("scale", list(RATING_SCALES))
def test_c2_brute_force_equivalence(scale):
    # on the grid and integer scales every sum is exact in binary, so the
    # predictions are equal; on the 0.01 step the model's float sums and the
    # oracle's `fsum` may differ in the last bits
    tolerance = 1e-9 if scale == "step_0_01" else 0.0
    start = time.time()
    rng = np.random.default_rng(90210)
    labels = Counter()
    for _ in range(200):
        ds = random_grid_dataset(rng, max_users=20, max_items=15, draw=RATING_SCALES[scale])
        model = CobarModel().fit(ds)
        oracle = BruteForceOracle(ds, model.dendrogram)
        for user in range(ds.n_users):
            for item in range(ds.n_items):
                got = model.predict_detailed(user, item)
                expected, label, node = oracle(user, item)
                assert abs(got.value - expected) <= tolerance, (user, item, got.value, expected)
                assert got.chosen_node == node, (user, item, got.chosen_node, node)
                assert (got.fallback is Fallback.UNCLUSTERED_USER) == (label == "unclustered_user")
                labels[label] += 1
    assert labels["blend"] > 0
    if scale == "int_0_10_zeros":
        assert labels["unclustered_user"] > 0
    assert time.time() - start < 60.0


@pytest.mark.acceptance("C3 FilmTrust 10-fold reproduction")
def test_c3_filmtrust_reproduction():
    path = _external("filmtrust.txt")
    first = path.read_text(encoding="utf-8").splitlines()[0]
    delimiter = "\t" if "\t" in first else " "
    dataset = parse_ratings(path, delimiter=delimiter, name="filmtrust")
    report = run_cross_validation(
        dataset,
        build_algorithms(["cobar", "mp", "uknn"], mf_config=MfConfig(seed=42)),
        folds=10,
        seed=42,
    )
    means = report.mean_rmse
    # orderings are the hard criterion
    assert means["cobar"] < means["mp"]
    assert means["cobar"] < means["uknn"]
    # absolute band is soft: baseline hyperparameters behind the published
    # comparison are not public, so only the proposed method is banded
    assert means["cobar"] == pytest.approx(0.823, abs=0.06)


@pytest.mark.acceptance("C4 large-dataset subsample ordering (cobar <= mp)")
@pytest.mark.parametrize("filename", ["bookcrossing.tsv", "amazon_digital_music.tsv"])
def test_c4_subsample_ordering(filename):
    path = _external(filename)
    dataset = parse_ratings(path, delimiter="\t", name=filename.split(".")[0])
    dataset = subsample_users(dataset, 2000, seed=7)
    report = run_cross_validation(
        dataset, build_algorithms(["cobar", "mp"]), folds=10, seed=42
    )
    assert report.mean_rmse["cobar"] <= report.mean_rmse["mp"]


@pytest.mark.acceptance("C5 statistics match published tables and direct arithmetic")
def test_c5_statistical_components():
    # t-based interval half-widths against the published 95% table, and the
    # t table the cluster statistics index scores its intervals with
    table = _t_critical_table(0.95, 31)
    for n in range(2, 31):
        implied_t = entry_half_width(unit_variance_entry(n), 0.95) * math.sqrt(n)
        assert abs(implied_t - T_TABLE_95[n - 1]) < 1e-4
        assert abs(table[n - 1] - T_TABLE_95[n - 1]) < 1e-4

    # exact signed-rank p-values against published critical regions
    sets_for = {0: set(), 1: {1}, 2: {2}, 3: {3}, 4: {4}, 5: {2, 3}, 6: {2, 4}, 8: {3, 5}, 9: {4, 5}}

    def p_at(n, w_minus_ranks):
        magnitudes = np.arange(1.0, n + 1)
        signs = np.where(np.isin(np.arange(1, n + 1), list(w_minus_ranks)), -1.0, 1.0)
        return wilcoxon_signed_rank(magnitudes * signs, np.zeros(n)).p_value

    for alpha, table in WILCOXON_CRITICAL.items():
        for n, crit in table.items():
            if crit is None:
                assert p_at(n, set()) > alpha
            else:
                assert p_at(n, sets_for[crit]) <= alpha
                assert p_at(n, sets_for[crit + 1]) > alpha

    # rmse against fsum-based direct arithmetic
    rng = np.random.default_rng(5150)
    for _ in range(20):
        k = int(rng.integers(1, 40))
        predicted = rng.uniform(0, 5, k)
        actual = rng.uniform(0, 5, k)
        direct = math.sqrt(math.fsum((p - a) ** 2 for p, a in zip(predicted, actual)) / k)
        assert abs(rmse(predicted, actual) - direct) < 1e-12


@pytest.mark.acceptance("C6 dendrogram invariants on fixtures and 100 random datasets")
def test_c6_dendrogram_invariants(demo_dataset, two_clusters_dataset):
    for ds in (demo_dataset, two_clusters_dataset):
        dend = agglomerate(ds)
        check_dendrogram_invariants(dend)
        again = agglomerate(ds)
        np.testing.assert_array_equal(dend.merges, again.merges)
        np.testing.assert_array_equal(dend.heights, again.heights)

    rng = np.random.default_rng(616)
    for _ in range(100):
        ds = random_grid_dataset(rng, max_users=16, max_items=10)
        dend = agglomerate(ds)
        check_dendrogram_invariants(dend)
        np.testing.assert_array_equal(dend.merges, agglomerate(ds).merges)


@pytest.mark.acceptance("C7 cluster-item accumulators equal from-scratch recomputation")
def test_c7_aggregation_exactness():
    rng = np.random.default_rng(717)
    for _ in range(25):
        ds = random_grid_dataset(rng, max_users=14, max_items=10)
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
            assert node_items(stats, dend, ds, node) == expected
        for m, (left, right) in enumerate(dend.merges):
            parent = dend.n_leaves + m
            for child in (int(left), int(right)):
                for item, (n, *_) in node_items(stats, dend, ds, child).items():
                    assert node_items(stats, dend, ds, parent)[item][0] >= n


@pytest.mark.acceptance("C8 sparse items fall back to the user mean exactly")
def test_c8_fallback_exactness():
    rng = np.random.default_rng(818)
    checked_single = checked_cold_user = 0
    for _ in range(40):
        ds = random_grid_dataset(rng, max_users=15, max_items=12)
        # hold out a slice so some users/items go cold in training
        n = ds.n_ratings
        train = ds.subset(np.arange(n)[: max(2, (n * 3) // 4)])
        model = CobarModel().fit(train)
        item_counts = np.bincount(train.items, minlength=train.n_items)
        user_counts = np.bincount(train.users, minlength=train.n_users)
        user_sums = np.bincount(train.users, weights=train.ratings, minlength=train.n_users)
        global_mean = float(train.ratings.mean())
        for user in range(ds.n_users):
            for item in range(ds.n_items):
                if item_counts[item] > 1:
                    continue
                value = model.predict(user, item)
                if user_counts[user] == 0:
                    expected = global_mean
                    checked_cold_user += 1
                else:
                    expected = user_sums[user] / user_counts[user]
                    checked_single += 1
                lo, hi = train.rating_min, train.rating_max
                assert value == min(max(expected, lo), hi)
    assert checked_single > 100
    assert checked_cold_user > 0


def test_summary_keeps_each_criterions_worst_case():
    # C2 runs one case per rating scale and C4 one per file: a later case
    # must not hide an earlier failure or skip
    fail = "FAIL (test_c2_brute_force_equivalence[half_grid])"
    skip = "SKIP (test_c4_subsample_ordering[bookcrossing.tsv]: bookcrossing.tsv not found)"
    assert worst_status(None, "PASS") == "PASS"
    assert worst_status(fail, "PASS") == fail
    assert worst_status(skip, "PASS") == skip
    assert worst_status("PASS", fail) == fail
    assert worst_status(skip, fail) == fail
    assert worst_status(fail, skip) == fail
    assert worst_status(skip, "SKIP (test_c4_subsample_ordering[amazon_digital_music.tsv]: not found)") == skip
