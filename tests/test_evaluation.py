"""RMSE, the signed-rank test, and the cross-validation runner."""

import json
import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from cobar import MfConfig, build_algorithms, rmse, run_cross_validation, wilcoxon_signed_rank
from cobar.evaluation import ALGORITHM_NAMES, EXACT_WILCOXON_LIMIT, _average_ranks
from conftest import RATING_SCALES, make_dataset, random_grid_dataset
from oracles import WILCOXON_CRITICAL, wilcoxon_enumerated_p, wilcoxon_normal_p


class TestRmse:
    def test_exact_predictions(self):
        assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_single_pair(self):
        assert rmse([3.0], [5.0]) == 2.0

    def test_direct_arithmetic(self):
        predicted = [2.0, 3.0, 4.0, 8.0]
        actual = [1.0, 2.0, 3.0, 5.0]
        assert rmse(predicted, actual) == pytest.approx(math.sqrt(12.0 / 4.0), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rmse([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rmse([1.0], [1.0, 2.0])

    def test_permutation_invariant(self):
        rng = np.random.default_rng(2)
        p = rng.uniform(1, 5, 50)
        a = rng.uniform(1, 5, 50)
        perm = rng.permutation(50)
        assert rmse(p, a) == pytest.approx(rmse(p[perm], a[perm]), abs=1e-12)


class TestWilcoxon:
    def test_five_all_positive_exact(self):
        res = wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 1.0, 2.0, 3.0, 4.0])
        assert res.statistic == 0.0
        assert res.p_value == pytest.approx(2.0 / 32.0, abs=1e-15)
        assert res.method == "exact"
        assert not res.significant   # 0.0625 > 0.01

    def test_identical_samples_rejected(self):
        with pytest.raises(ValueError, match="identical"):
            wilcoxon_signed_rank([1.0, 2.0], [1.0, 2.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_rejected(self, bad):
        # a NaN difference is nonzero, so it would be ranked like a number
        for a, b in (([1.0, bad, 3.0], [0.5, 1.0, 2.0]), ([1.0, 2.0, 3.0], [bad, 1.0, 2.0])):
            with pytest.raises(ValueError, match="finite"):
                wilcoxon_signed_rank(a, b)

    def test_two_sided_symmetry(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(0, 1, 10)
        b = rng.uniform(0, 1, 10)
        assert wilcoxon_signed_rank(a, b).p_value == wilcoxon_signed_rank(b, a).p_value

    def test_matches_scipy_exact_no_ties(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            n = int(rng.integers(5, 15))
            a = rng.normal(size=n)
            b = a + rng.normal(size=n)         # continuous: no zeros, no ties
            res = wilcoxon_signed_rank(a, b)
            ref = scipy_stats.wilcoxon(a, b, alternative="two-sided", mode="exact")
            assert res.p_value == pytest.approx(float(ref.pvalue), abs=1e-12)

    def test_matches_brute_enumeration_with_ties(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            n = int(rng.integers(4, 11))
            # half-integer grid forces tied absolute differences and zeros
            a = rng.integers(0, 5, n) / 2.0
            b = rng.integers(0, 5, n) / 2.0
            if np.all(a == b):
                continue
            res = wilcoxon_signed_rank(a, b)
            assert res.p_value == pytest.approx(wilcoxon_enumerated_p(a - b), abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.05, 0.01])
    def test_published_critical_values(self, alpha):
        """The exact distribution reproduces the published rejection regions:
        p at W=crit is <= alpha, p at W=crit+1 is > alpha, and no statistic
        rejects where the table has no entry."""
        # rank subsets realizing a given statistic value via negative signs
        sets_for = {0: set(), 1: {1}, 2: {2}, 3: {3}, 4: {4}, 5: {2, 3}, 6: {2, 4}, 8: {3, 5}, 9: {4, 5}}

        def p_of(n, w_minus_ranks):
            magnitudes = np.arange(1.0, n + 1)
            signs = np.where(np.isin(np.arange(1, n + 1), list(w_minus_ranks)), -1.0, 1.0)
            res = wilcoxon_signed_rank(magnitudes * signs, np.zeros(n))
            assert res.statistic == sum(w_minus_ranks)
            return res.p_value

        for n, crit in WILCOXON_CRITICAL[alpha].items():
            if crit is None:
                assert p_of(n, set()) > alpha   # even W = 0 cannot reject
            else:
                assert p_of(n, sets_for[crit]) <= alpha
                assert p_of(n, sets_for[crit + 1]) > alpha

    def test_normal_approximation_beyond_limit(self):
        rng = np.random.default_rng(33)
        n = EXACT_WILCOXON_LIMIT + 10
        a = rng.normal(size=n)
        b = a + rng.normal(loc=0.3, size=n)
        res = wilcoxon_signed_rank(a, b)
        assert res.method == "normal"
        ref = scipy_stats.wilcoxon(a, b, alternative="two-sided", mode="approx", correction=True)
        assert res.p_value == pytest.approx(float(ref.pvalue), rel=1e-6)

    def test_normal_p_value_bit_identical_to_norm_cdf(self):
        rng = np.random.default_rng(34)
        for _ in range(300):
            n = int(rng.integers(EXACT_WILCOXON_LIMIT + 1, 200))
            # continuous differences, or a coarse grid with many ties and some zeros
            diffs = rng.normal(loc=0.2, size=n) if rng.random() < 0.5 else rng.integers(-4, 5, n) / 2.0
            if np.count_nonzero(diffs) <= EXACT_WILCOXON_LIMIT:
                continue
            res = wilcoxon_signed_rank(diffs, np.zeros(n))
            assert res.method == "normal"
            assert res.p_value == wilcoxon_normal_p(diffs)

    @pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.5, math.nan])
    def test_level_outside_unit_interval_rejected(self, level):
        with pytest.raises(ValueError, match=r"Wilcoxon level must be in \(0, 1\)"):
            wilcoxon_signed_rank([1.0, 2.0, 3.0], [0.0, 0.0, 0.0], level=level)

    def test_significance_threshold(self):
        # 8 folds, all positive: exact p = 2/256 = 0.0078 < 0.01
        a = np.arange(1.0, 9.0)
        res = wilcoxon_signed_rank(a, np.zeros(8), level=0.99)
        assert res.p_value == pytest.approx(2.0 / 256.0)
        assert res.significant


class TestAverageRanks:
    def test_bit_identical_to_rankdata(self):
        rng = np.random.default_rng(35)
        for _ in range(2000):
            n = int(rng.integers(1, 60))
            tie_heavy = rng.integers(0, int(rng.integers(1, 8)), n) / 2.0
            tie_free = np.abs(rng.normal(size=n))
            for values in (tie_heavy, tie_free):
                want = scipy_stats.rankdata(values, method="average")
                assert _average_ranks(values).tobytes() == want.tobytes()


class _PerfectOracle:
    """Test-only predictor that looks the answer up in the full dataset."""

    def __init__(self, full):
        self.full = full
        self.lookup = {
            (int(u), int(i)): float(r)
            for u, i, r in zip(full.users, full.items, full.ratings)
        }

    def fit(self, train):
        return self

    def predict(self, user, item):
        return self.lookup[(user, item)]


class _SpyAlgo:
    """Records the training partition it was fitted on."""

    def __init__(self, log):
        self.log = log

    def fit(self, train):
        self.log.append((train.users.tobytes(), train.items.tobytes(), train.ratings.tobytes()))
        return self

    def predict(self, user, item):
        return 3.0


class TestRunCrossValidation:
    def test_perfect_oracle_scores_zero(self):
        rng = np.random.default_rng(44)
        ds = random_grid_dataset(rng, max_users=10)
        report = run_cross_validation(ds, {"oracle": lambda: _PerfectOracle(ds)}, folds=4, seed=0)
        assert report.mean_rmse["oracle"] == 0.0
        assert len(report.fold_rmse["oracle"]) == 4

    def test_identical_algorithms_hit_undefined_test(self):
        rng = np.random.default_rng(45)
        ds = random_grid_dataset(rng, max_users=10)
        report = run_cross_validation(
            ds,
            {"a": lambda: _PerfectOracle(ds), "b": lambda: _PerfectOracle(ds)},
            folds=3,
            seed=0,
        )
        rec = report.wilcoxon[0]
        assert rec["p_value"] is None
        assert "identical" in rec["note"]
        assert rec["significant"] is False

    def test_all_algorithms_see_identical_splits(self):
        rng = np.random.default_rng(46)
        ds = random_grid_dataset(rng, max_users=10)
        log_a, log_b = [], []
        run_cross_validation(
            ds,
            {"a": lambda: _SpyAlgo(log_a), "b": lambda: _SpyAlgo(log_b)},
            folds=4,
            seed=9,
        )
        assert log_a == log_b
        assert len(log_a) == 4

    def test_report_reproducible(self, two_clusters_dataset):
        algos = lambda: build_algorithms(["cobar", "mp"])  # noqa: E731
        r1 = run_cross_validation(two_clusters_dataset, algos(), folds=4, seed=11)
        r2 = run_cross_validation(two_clusters_dataset, algos(), folds=4, seed=11)
        assert r1.to_json() == r2.to_json()

    @pytest.mark.parametrize("data", ["two_clusters", "step_0_01"])
    def test_report_byte_identical_across_backends(self, two_clusters_dataset, each_backend, data):
        # every kernel gives the same bits on both backends, so the report
        # of all five algorithms does not depend on the backend; on both
        # datasets, 30 MF epochs that sum a dot product in another order
        # change the report's last digits
        if data == "two_clusters":
            ds = two_clusters_dataset
        else:
            ds = random_grid_dataset(np.random.default_rng(41), max_users=40, max_items=30, draw=RATING_SCALES[data])
        reports = []
        for _ in each_backend:
            algos = build_algorithms(ALGORITHM_NAMES, mf_config=MfConfig(epochs=30, seed=3))
            reports.append(run_cross_validation(ds, algos, folds=3, seed=8).to_json())
        assert len(reports) == 2 and reports[0] == reports[1]
        assert set(json.loads(reports[0])["results"]) == set(ALGORITHM_NAMES)

    def test_report_of_numpy_scalars_saves_as_one_of_python_scalars(self, two_clusters_dataset, tmp_path):
        # numpy ints and a numpy level once reached the report unconverted,
        # and `save` raised TypeError after every fold had run
        saved = []
        for folds, seed, level in ((3, 5, 0.9), (np.int64(3), np.int64(5), np.float64(0.9))):
            report = run_cross_validation(two_clusters_dataset, build_algorithms(["cobar", "mp"]), folds=folds,
                                          seed=seed, wilcoxon_level=level)
            path = tmp_path / f"report-{len(saved)}.json"
            report.save(path)
            saved.append(path.read_bytes())
        assert saved[0] == saved[1]
        assert type(json.loads(saved[1])["wilcoxon"][0]["significant"]) is bool
        assert type(wilcoxon_signed_rank([1.0, 2.0, 3.0], [2.0, 4.0, 7.0], np.float64(0.9)).significant) is bool

    def test_report_schema(self, two_clusters_dataset):
        report = run_cross_validation(
            two_clusters_dataset, build_algorithms(["cobar", "mp"]), folds=3, seed=5
        )
        payload = json.loads(report.to_json())
        assert payload["schema"] == "cobar-eval-report/1"
        assert payload["algorithms"] == ["cobar", "mp"]
        assert set(payload["results"]) == {"cobar", "mp"}
        assert len(payload["results"]["cobar"]["fold_rmse"]) == 3
        assert payload["metadata"]["wilcoxon_pairing"] == "per-fold-rmse"
        assert 0.0 <= payload["wilcoxon"][0]["p_value"] <= 1.0

    def test_table_contains_report_numbers(self, two_clusters_dataset):
        report = run_cross_validation(
            two_clusters_dataset, build_algorithms(["cobar", "mp"]), folds=3, seed=5
        )
        table = report.format_table()
        for name in ("cobar", "mp"):
            assert f"{report.mean_rmse[name]:.4f}" in table
        best = report.best_algorithm()
        assert f"{report.mean_rmse[best]:.4f}*" in table

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            build_algorithms(["cobar", "svd++"])

    @pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.5, math.nan])
    def test_wilcoxon_level_outside_unit_interval_rejected_before_any_fit(self, level):
        ds = random_grid_dataset(np.random.default_rng(46), max_users=10)
        log = []
        with pytest.raises(ValueError, match="Wilcoxon level"):
            run_cross_validation(ds, {"a": lambda: _SpyAlgo(log), "b": lambda: _SpyAlgo(log)},
                                 folds=3, seed=0, wilcoxon_level=level)
        assert log == []

    def test_planted_groups_favor_cluster_blend(self):
        """On data with clear taste groups (users mostly rate their group's
        items, and agree inside the group), the confidence-based blend beats
        the global item means under the full cross-validation protocol."""
        rng = np.random.default_rng(321)
        n_groups, users_per_group, n_items = 4, 20, 40
        pools = np.arange(n_items).reshape(n_groups, -1)   # 10 items per group
        centers = rng.uniform(1.0, 4.0, (n_groups, n_items))
        rows = []
        for g in range(n_groups):
            for u in range(users_per_group):
                own = rng.choice(pools[g], size=8, replace=False)
                other = rng.choice(np.delete(np.arange(n_items), pools[g]), size=3, replace=False)
                for i in np.concatenate([own, other]):
                    r = float(np.clip(np.round((centers[g, i] + rng.normal(0, 0.25)) * 2) / 2, 0.5, 4.0))
                    rows.append((f"g{g}u{u}", f"i{i}", r))
        ds = make_dataset(rows)
        report = run_cross_validation(ds, build_algorithms(["cobar", "mp"]), folds=10, seed=6)
        assert report.mean_rmse["cobar"] < report.mean_rmse["mp"]
        pair = report.wilcoxon[0]
        assert pair["method"] == "exact"
        assert pair["p_value"] <= 0.05


class TestBuildAlgorithms:
    @pytest.mark.parametrize("names", [[], ()])
    def test_empty_name_list_rejected(self, names):
        with pytest.raises(ValueError, match="no algorithm selected"):
            build_algorithms(names)

    def test_repeated_name_rejected(self):
        with pytest.raises(ValueError, match=r"\['mp'\] named more than once"):
            build_algorithms(["mp", "cobar", "mp"])

    def test_clamp_false_reaches_all_five_predictors(self):
        rng = np.random.default_rng(31)
        ds = random_grid_dataset(rng, max_users=12)
        train = ds.subset(np.arange(ds.n_ratings)[: ds.n_ratings * 3 // 4])
        lo, hi = ds.rating_min, ds.rating_max
        mf = MfConfig(epochs=5, seed=1)
        clamped = build_algorithms(ALGORITHM_NAMES, mf_config=mf)
        raw = build_algorithms(ALGORITHM_NAMES, mf_config=mf, clamp=False)
        outside = 0
        for name in ALGORITHM_NAMES:
            on, off = clamped[name]().fit(train), raw[name]().fit(train)
            assert on.clamp is True and off.clamp is False, name
            assert off._limits[2:] == (-np.inf, np.inf) and on._limits[2:] == (lo, hi), name
            for u in range(ds.n_users):
                for i in range(ds.n_items):
                    value = off.predict(u, i)
                    assert on.predict(u, i) == min(max(value, lo), hi), name
                    outside += not lo <= value <= hi
        assert outside > 0
