"""Popularity, kNN and matrix-factorization predictors."""

import functools
import gc
import math
import pickle
import weakref
from dataclasses import replace

import numpy as np
import pytest

from cobar import CobarModel, ItemKnn, KnnConfig, MatrixFactorization, MfConfig, MostPopular, UserKnn
from cobar import RatingDataset, data, kernels, kfold_split
from cobar.data import _ReadOnlyState, fold_train_test
from cobar.evaluation import build_algorithms
from cobar.kernels import _python
from conftest import RATING_SCALES, benchmark_dataset, make_dataset, random_grid_dataset
from oracles import (ancestor_chain_reference, build_item_stats_dict, composed_prediction, dense_ratings,
                     knn_prediction, mf_training_mse, select_optimal_cluster_dict)


class TestConfigChecks:
    """Counts must be integers and the MF rates finite, checked when the
    config is made rather than at the first fit."""

    @pytest.mark.parametrize("make", [
        lambda: KnnConfig(k=2.5),
        lambda: KnnConfig(k=np.float64(3.0)),
        lambda: MfConfig(factors=2.5),
        lambda: MfConfig(epochs=2.5),
        lambda: MfConfig(seed=2.5),
    ], ids=["k", "k-float64", "factors", "epochs", "seed"])
    def test_non_integer_count_rejected(self, make):
        with pytest.raises(TypeError):
            make()

    def test_numpy_integer_counts_accepted(self):
        assert KnnConfig(k=np.int64(3)).k == 3
        config = MfConfig(factors=np.int32(4), epochs=np.int64(0), seed=np.uint8(5))
        assert (config.factors, config.epochs, config.seed) == (4, 0, 5)

    def test_negative_seed_rejected(self):
        # numpy's generators take no negative seed: refused with the config,
        # before a cross-validation fits anything
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            MfConfig(seed=-1)

    @pytest.mark.parametrize("field", ["learning_rate", "regularization"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rate_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            MfConfig(**{field: value})


class TestMostPopular:
    def test_item_mean(self):
        ds = make_dataset([("a", "x", 4.0), ("b", "x", 5.0), ("a", "y", 1.0)])
        model = MostPopular().fit(ds)
        assert model.predict(0, ds.item_index("x")) == 4.5

    def test_unseen_item_gets_global_mean(self):
        ds = make_dataset([("a", "x", 4.0), ("b", "x", 2.0), ("a", "y", 3.0)])
        train = ds.subset(np.array([0, 1]))
        model = MostPopular().fit(train)
        assert model.predict(0, ds.item_index("y")) == 3.0

    def test_single_item_dataset_coincides_with_global_mean(self):
        ds = make_dataset([("a", "x", 2.0), ("b", "x", 4.0)])
        model = MostPopular().fit(ds)
        assert model.predict(0, 0) == 3.0

    def test_user_invariant(self):
        rng = np.random.default_rng(9)
        ds = random_grid_dataset(rng)
        model = MostPopular().fit(ds)
        for item in range(ds.n_items):
            values = {model.predict(u, item) for u in range(ds.n_users)}
            assert len(values) == 1


def _uknn_rows():
    # u0 and u1 agree on shared items; u2 is anti-correlated
    return [
        ("u0", "a", 4.0), ("u0", "b", 3.0),
        ("u1", "a", 4.0), ("u1", "b", 3.0), ("u1", "t", 3.5),
        ("u2", "a", 1.0), ("u2", "b", 4.0), ("u2", "t", 1.0),
    ]


class TestUserKnn:
    def test_single_perfect_neighbor(self):
        # u1's vector on shared items is proportional to u0's -> sim 1
        rows = [
            ("u0", "a", 2.0), ("u0", "b", 2.0),
            ("u1", "a", 4.0), ("u1", "b", 4.0), ("u1", "t", 4.5),
        ]
        ds = make_dataset(rows)
        model = UserKnn(clamp=False).fit(ds)
        # neighbor deviation r_t - mean(u1) = 4.5 - 25/6
        expected = 2.0 + (4.5 - 12.5 / 3)
        assert model.predict(ds.user_index("u0"), ds.item_index("t")) == pytest.approx(expected, abs=1e-12)

    def test_no_rater_falls_back_to_user_mean(self):
        ds = make_dataset([("u0", "a", 4.0), ("u0", "b", 2.0), ("u1", "a", 3.0), ("u1", "c", 1.0)])
        train = ds.subset(np.array([0, 1, 2]))   # item c only rated by u1 in full; drop it
        model = UserKnn().fit(train)
        assert model.predict(ds.user_index("u0"), ds.item_index("c")) == 3.0

    def test_hand_computed_aggregation(self):
        ds = make_dataset(_uknn_rows())
        model = UserKnn(clamp=False).fit(ds)
        u0, t = ds.user_index("u0"), ds.item_index("t")
        dense = dense_ratings(ds)
        means = dense.sum(axis=1) / (dense > 0).sum(axis=1)

        def sim(a, b):
            return float(dense[a] @ dense[b] / (np.linalg.norm(dense[a]) * np.linalg.norm(dense[b])))

        num = sim(u0, 1) * (3.5 - means[1]) + sim(u0, 2) * (1.0 - means[2])
        den = abs(sim(u0, 1)) + abs(sim(u0, 2))
        assert model.predict(u0, t) == pytest.approx(means[u0] + num / den, abs=1e-12)

    def test_k_ceiling_inactive_when_large(self):
        rng = np.random.default_rng(13)
        ds = random_grid_dataset(rng, max_users=10)
        big = UserKnn(KnnConfig(k=1000)).fit(ds)
        exact = UserKnn(KnnConfig(k=ds.n_users)).fit(ds)
        for u in range(ds.n_users):
            for i in range(ds.n_items):
                assert big.predict(u, i) == exact.predict(u, i)

    def test_cold_user_gets_global_mean(self):
        ds = make_dataset([("a", "x", 4.0), ("b", "x", 2.0), ("c", "y", 1.0)])
        train = ds.subset(np.array([0, 1]))
        model = UserKnn().fit(train)
        assert model.predict(ds.user_index("c"), 0) == 3.0

    def test_k_limits_neighborhood(self):
        # three raters with distinct similarities; k=1 keeps only the closest
        rows = [
            ("q", "a", 4.0), ("q", "b", 4.0),
            ("n1", "a", 4.0), ("n1", "b", 4.0), ("n1", "t", 4.0),   # sim 1
            ("n2", "a", 4.0), ("n2", "t", 2.0),                      # partial overlap
            ("n3", "b", 1.0), ("n3", "t", 1.0),
        ]
        ds = make_dataset(rows)
        model = UserKnn(KnnConfig(k=1), clamp=False).fit(ds)
        q, t = ds.user_index("q"), ds.item_index("t")
        assert model.predict(q, t) == pytest.approx(4.0 + (4.0 - 4.0), abs=1e-12)


class TestItemKnn:
    def test_single_similar_item(self):
        # items x and y rated identically by two users -> sim 1
        rows = [
            ("a", "x", 3.0), ("a", "y", 3.0),
            ("b", "x", 4.0), ("b", "y", 4.0),
            ("c", "y", 2.0),
        ]
        ds = make_dataset(rows)
        model = ItemKnn(clamp=False).fit(ds)
        c, x = ds.user_index("c"), ds.item_index("x")
        item_means = {i: np.mean(ds.ratings[ds.items == i]) for i in range(ds.n_items)}
        y = ds.item_index("y")
        expected = item_means[x] + (2.0 - item_means[y])   # sim(x,y)=1 via users a,b
        assert model.predict(c, x) == pytest.approx(expected, abs=1e-12)

    def test_user_with_nothing_else_gets_item_mean(self):
        ds = make_dataset([("a", "x", 4.0), ("b", "x", 2.0), ("b", "y", 3.0), ("c", "y", 1.0)])
        train = ds.subset(np.array([0, 1, 3]))   # drop b's y rating; a rated only x
        model = ItemKnn().fit(train)
        # a has no other rated item to compare y with -> y's train mean
        assert model.predict(ds.user_index("a"), ds.item_index("y")) == 1.0

    def test_cold_item_gets_global_mean(self):
        ds = make_dataset([("a", "x", 4.0), ("b", "x", 2.0), ("a", "y", 3.0)])
        train = ds.subset(np.array([0, 1]))
        model = ItemKnn().fit(train)
        assert model.predict(ds.user_index("b"), ds.item_index("y")) == 3.0

    def test_hand_computed_aggregation(self):
        rows = [
            ("a", "x", 4.0), ("a", "y", 3.5), ("a", "z", 1.0),
            ("b", "x", 3.0), ("b", "y", 3.0), ("b", "z", 2.0),
            ("c", "y", 4.0), ("c", "z", 1.5),
        ]
        ds = make_dataset(rows)
        model = ItemKnn(clamp=False).fit(ds)
        c, x = ds.user_index("c"), ds.item_index("x")
        R = dense_ratings(ds).T   # item-major
        means = R.sum(axis=1) / (R > 0).sum(axis=1)

        def sim(i, j):
            return float(R[i] @ R[j] / (np.linalg.norm(R[i]) * np.linalg.norm(R[j])))

        y, z = ds.item_index("y"), ds.item_index("z")
        num = sim(x, y) * (4.0 - means[y]) + sim(x, z) * (1.5 - means[z])
        den = abs(sim(x, y)) + abs(sim(x, z))
        assert model.predict(c, x) == pytest.approx(means[x] + num / den, abs=1e-12)


def _transpose(rows):
    return [(i, u, r) for u, i, r in rows]


def _knn_query(cls, rows, entity, column, config=None):
    """Fit `cls` on `rows` and predict (entity, column): the rows name users
    first for UserKnn and are transposed for ItemKnn, so one table states
    the same neighborhood for both classes.  Returns the dataset, the
    (user, item) pair, the entity index lookup and the prediction."""
    transpose = cls is ItemKnn
    ds = make_dataset(_transpose(rows) if transpose else rows)
    index = ds.item_index if transpose else ds.user_index
    other = ds.user_index if transpose else ds.item_index
    user, item = (other(column), index(entity)) if transpose else (index(entity), other(column))
    value = cls(config, clamp=False).fit(ds).predict(user, item)
    return ds, (user, item), index, value


def _random_real_dataset(seed, n_users=14, n_items=12, density=0.4):
    """Random dataset on a continuous scale, so sums are not exact in binary."""
    rng = np.random.default_rng(seed)
    rows = []
    for u in range(n_users):
        count = max(1, int(rng.binomial(n_items, density)))
        for i in rng.choice(n_items, size=count, replace=False):
            rows.append((f"u{u}", f"i{i}", float(rng.uniform(0.1, 9.9))))
    return make_dataset(rows)


class TestKnnAgainstOracle:
    @pytest.mark.parametrize("k", [2, 30])
    @pytest.mark.parametrize("cls,user_based", [(UserKnn, True), (ItemKnn, False)])
    def test_random_non_grid_data(self, cls, user_based, k):
        for seed in range(4):
            ds = _random_real_dataset(seed)
            model = cls(KnnConfig(k=k), clamp=False).fit(ds)
            for u in range(ds.n_users):
                for i in range(ds.n_items):
                    expected = knn_prediction(ds, u, i, k, user_based, clamp=False)
                    assert model.predict(u, i) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("cls", [UserKnn, ItemKnn])
class TestKnnEdgeCases:
    @pytest.mark.filterwarnings("error")
    def test_zero_norm_neighbor_has_similarity_zero(self, cls):
        # z rated a and b with 0: its rating vector has norm 0
        rows = [
            ("q", "a", 3.0), ("q", "c", 2.0),
            ("n", "a", 4.0), ("n", "b", 5.0), ("n", "c", 1.0),
            ("z", "a", 0.0), ("z", "b", 0.0),
        ]
        _, _, _, value = _knn_query(cls, rows, "q", "b")
        # only n counts: q's mean plus n's deviation on b
        assert value == pytest.approx(2.5 + (5.0 - 10.0 / 3), abs=1e-12)

    @pytest.mark.parametrize("tied_first", ["n1", "n2"])
    def test_ties_at_k_cutoff_keep_lowest_index(self, cls, tied_first):
        # n1 and n2 have exactly equal similarity to q (same dot, same norm)
        # but different deviations on t; n0 is more similar than both
        tied = {
            "n1": [("n1", "a", 3.0), ("n1", "t", 1.0), ("n1", "x", 4.0)],
            "n2": [("n2", "b", 3.0), ("n2", "t", 4.0), ("n2", "y", 1.0)],
        }
        second = "n2" if tied_first == "n1" else "n1"
        rows = (
            [("q", "a", 3.0), ("q", "b", 3.0)]
            + tied[tied_first] + tied[second]
            + [("n0", "a", 3.0), ("n0", "b", 3.0), ("n0", "t", 2.0)]
        )
        ds, (user, item), index, value = _knn_query(cls, rows, "q", "t", KnnConfig(k=2))
        assert index(tied_first) < index(second)

        s0, s1 = np.sqrt(18.0 / 22.0), 9.0 / np.sqrt(18.0 * 26.0)
        dev = {"n1": 1.0 - 8.0 / 3, "n2": 4.0 - 8.0 / 3}
        expected = 3.0 + (s0 * (2.0 - 8.0 / 3) + s1 * dev[tied_first]) / (s0 + s1)
        assert value == pytest.approx(expected, abs=1e-12)
        oracle = knn_prediction(ds, user, item, k=2, user_based=cls is UserKnn, clamp=False)
        assert value == pytest.approx(oracle, abs=1e-12)


@pytest.mark.parametrize("cls", [UserKnn, ItemKnn])
def test_k_past_a_c_integer_predicts_as_k_at_the_entity_count(cls, each_backend):
    # the compiled bind once read k as a C integer and overflowed; no query
    # has more neighbours than there are entities
    ds = random_grid_dataset(np.random.default_rng(31))
    n_entities = ds.n_users if cls is UserKnn else ds.n_items

    def every_prediction(model):
        return np.array([model.predict(u, i) for u in range(ds.n_users) for i in range(ds.n_items)]).tobytes()

    for _ in each_backend:
        huge = cls(KnnConfig(k=2**70), clamp=False).fit(ds)
        want = every_prediction(cls(KnnConfig(k=n_entities), clamp=False).fit(ds))
        assert huge._index.k == 2**70
        assert every_prediction(huge) == want
        assert every_prediction(pickle.loads(pickle.dumps(huge))) == want


def _knn_predictions(dataset, queries):
    """Every query's prediction by UserKnn and ItemKnn, at k=30 clamped and
    at k=3 unclamped."""
    values = []
    for cls in (UserKnn, ItemKnn):
        for config, clamp in ((KnnConfig(k=30), True), (KnnConfig(k=3), False)):
            model = cls(config, clamp=clamp).fit(dataset)
            values.append([model.predict(int(u), int(i)) for u, i in queries])
    return values


class TestKnnBackendsAgree:
    """The compiled kNN query gives the numpy query's predictions bit for bit."""

    @pytest.mark.parametrize("scale", list(RATING_SCALES))
    def test_rating_scales(self, each_backend, scale):
        rng = np.random.default_rng(52)
        datasets = [random_grid_dataset(rng, draw=RATING_SCALES[scale]) for _ in range(12)]
        results = []
        for _ in each_backend:
            results.append([
                _knn_predictions(ds, [(u, i) for u in range(ds.n_users) for i in range(ds.n_items)])
                for ds in datasets
            ])
        assert results[0] == results[1]

    @pytest.mark.parametrize("seed", [1, 2])
    def test_benchmark_folds(self, each_backend, seed):
        # a test fold of the FilmTrust-shaped benchmark data, whose popular
        # items have hundreds of raters
        dataset = benchmark_dataset("ft", seed)
        train, test = fold_train_test(dataset, kfold_split(dataset, 10, 42), seed)
        queries = list(zip(dataset.users[test], dataset.items[test]))
        results = [_knn_predictions(train, queries) for _ in each_backend]
        assert results[0] == results[1]


def _rank_one_dataset(n_users=12, n_items=10, seed=0):
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.9, 1.2, n_users)
    v = rng.uniform(2.0, 3.5, n_items)
    rows = []
    for a in range(n_users):
        for b in range(n_items):
            if rng.random() < 0.7:
                rows.append((f"u{a}", f"i{b}", float(u[a] * v[b])))
    return make_dataset(rows)


class TestMatrixFactorization:
    def test_learns_rank_one_structure_at_default_epochs(self):
        ds = _rank_one_dataset()
        model = MatrixFactorization(MfConfig(seed=1), clamp=False).fit(ds)
        preds = [model.predict(int(u), int(i)) for u, i in zip(ds.users, ds.items)]
        rmse = float(np.sqrt(np.mean((np.asarray(preds) - ds.ratings) ** 2)))
        assert rmse < 0.1

    def test_every_training_pair_recovered_when_trained_out(self):
        ds = _rank_one_dataset()
        model = MatrixFactorization(MfConfig(epochs=120, seed=1), clamp=False).fit(ds)
        for u, i, r in zip(ds.users, ds.items, ds.ratings):
            assert abs(model.predict(int(u), int(i)) - r) < 0.1

    def test_zero_epochs_predicts_global_mean_plus_factor_product(self):
        # untrained, the biases are zero and the factors are their N(0, 0.1^2) draws
        ds = _rank_one_dataset()
        model = MatrixFactorization(MfConfig(epochs=0), clamp=False).fit(ds)
        mu = float(ds.ratings.mean())
        assert 0.05 < model.user_factors.std() < 0.2 and 0.05 < model.item_factors.std() < 0.2
        for u, i in [(0, 0), (3, 4), (7, 2)]:
            assert model.predict(u, i) == mu + float(model.user_factors[u] @ model.item_factors[i])

    def test_same_seed_identical_models(self):
        ds = _rank_one_dataset()
        a = MatrixFactorization(MfConfig(epochs=5, seed=42)).fit(ds)
        b = MatrixFactorization(MfConfig(epochs=5, seed=42)).fit(ds)
        np.testing.assert_array_equal(a.user_factors, b.user_factors)
        np.testing.assert_array_equal(a.item_factors, b.item_factors)
        np.testing.assert_array_equal(a.user_bias, b.user_bias)

    def test_training_error_decreases(self):
        rng = np.random.default_rng(19)
        ds = random_grid_dataset(rng, max_users=15, max_items=12)
        # both start from the same seeded initialisation
        start = MatrixFactorization(MfConfig(epochs=0, seed=3)).fit(ds)
        trained = MatrixFactorization(MfConfig(epochs=20, seed=3)).fit(ds)
        assert mf_training_mse(trained, ds) < mf_training_mse(start, ds)

    def test_cold_terms_dropped(self):
        ds = make_dataset([("a", "x", 4.0), ("a", "y", 1.0), ("b", "x", 2.0), ("b", "z", 3.0)])
        train = ds.subset(np.array([0, 1, 2]))   # z unseen; b has x only
        model = MatrixFactorization(MfConfig(epochs=5, seed=2), clamp=False).fit(train)
        mu = float(train.ratings.mean())
        b, z = ds.user_index("b"), ds.item_index("z")
        assert model.predict(b, z) == pytest.approx(mu + model.user_bias[b])
        # fully cold pair -> exactly the global mean
        ds2 = make_dataset([("a", "x", 4.0), ("b", "y", 2.0), ("c", "z", 3.0)])
        train2 = ds2.subset(np.array([0, 1]))
        model2 = MatrixFactorization(MfConfig(epochs=5, seed=2), clamp=False).fit(train2)
        assert model2.predict(ds2.user_index("c"), ds2.item_index("z")) == float(train2.ratings.mean())

    def test_backends_agree(self, compiled_kernels, monkeypatch):
        # both epochs sum each dot product in factor order: bit for bit
        ds = _rank_one_dataset(seed=5)
        results = []
        for loops in (_python, compiled_kernels):
            monkeypatch.setattr(kernels, "_loops", loops)
            model = MatrixFactorization(MfConfig(epochs=10, seed=7)).fit(ds)
            predictions = [model.predict(int(u), int(i)) for u, i in zip(ds.users, ds.items)]
            results.append([predictions, model.user_factors, model.item_factors, model.user_bias, model.item_bias])
        for a, b in zip(*results):
            np.testing.assert_array_equal(a, b)


class TestClampBounds:
    def test_all_predictors_respect_scale(self):
        rng = np.random.default_rng(25)
        ds = random_grid_dataset(rng, max_users=12)
        split = np.arange(ds.n_ratings)
        train = ds.subset(split[: max(2, len(split) * 3 // 4)])
        models = [
            MostPopular().fit(train),
            UserKnn().fit(train),
            ItemKnn().fit(train),
            MatrixFactorization(MfConfig(epochs=5, seed=1)).fit(train),
        ]
        for model in models:
            for u in range(ds.n_users):
                for i in range(ds.n_items):
                    v = model.predict(u, i)
                    assert train.rating_min <= v <= train.rating_max


PREDICTORS = {
    "cobar": CobarModel,
    "mp": MostPopular,
    "uknn": UserKnn,
    "iknn": ItemKnn,
    "mf": lambda: MatrixFactorization(MfConfig(epochs=2)),
}


@pytest.mark.parametrize("name", list(PREDICTORS))
def test_fit_never_writes_training_arrays(name, each_backend):
    # the dataset checks its triples once, when it is built, which holds
    # only while no fit or query writes them
    ds = random_grid_dataset(np.random.default_rng(4))
    for array in (ds.users, ds.items, ds.ratings):
        array.flags.writeable = False
    for _ in each_backend:
        model = PREDICTORS[name]().fit(ds)
        for u in range(ds.n_users):
            for i in range(ds.n_items):
                model.predict(u, i)


@pytest.mark.parametrize("name", list(PREDICTORS))
class TestQueryRange:
    def test_out_of_range_query_rejected(self, name, demo_dataset):
        model = PREDICTORS[name]().fit(demo_dataset)
        n_users, n_items = demo_dataset.n_users, demo_dataset.n_items
        for user, item, which in [(-1, 0, "user"), (0, -1, "item"), (n_users, 0, "user"), (0, n_items, "item")]:
            with pytest.raises(ValueError, match=f"{which} index {user if which == 'user' else item} out of range"):
                model.predict(user, item)
        model.predict(n_users - 1, n_items - 1)

    def test_unfitted_predictor_rejected(self, name):
        with pytest.raises(RuntimeError, match="not fitted"):
            PREDICTORS[name]().predict(0, 0)

    @pytest.mark.parametrize("position", ["user", "item"])
    def test_index_read_as_an_integer(self, name, position, demo_dataset):
        # every predictor reads both indices with operator.index: a float is
        # no index, and a numpy integer or a bool queries the int it equals
        model = PREDICTORS[name]().fit(demo_dataset)
        n = demo_dataset.n_users if position == "user" else demo_dataset.n_items

        def predict(index):
            return model.predict(index, 0) if position == "user" else model.predict(0, index)

        for bad in (1.0, np.float64(1.0), 0.5, "1", None):
            with pytest.raises(TypeError):
                predict(bad)
        for index in range(n):
            want = repr(predict(index))
            assert [repr(predict(same)) for same in (np.int64(index), np.int32(index), np.uint16(index))] == [want] * 3
        assert (repr(predict(True)), repr(predict(False))) == (repr(predict(1)), repr(predict(0)))


@pytest.mark.parametrize("name", list(PREDICTORS))
def test_fitted_predictor_pickles(name, kernel_backend, two_clusters_dataset):
    # a compiled bound query and a memoryview cannot be pickled: the models
    # drop them and bind again on load, before and after the first query
    ds = two_clusters_dataset
    model = PREDICTORS[name]().fit(ds)
    fresh = pickle.dumps(model)

    def every_prediction(m):
        return np.array([m.predict(u, i) for u in range(ds.n_users) for i in range(ds.n_items)])

    want = every_prediction(model).tobytes()
    for dumped in (fresh, pickle.dumps(model)):
        assert every_prediction(pickle.loads(dumped)).tobytes() == want


@pytest.mark.parametrize("seed", [1, 2])
def test_every_prediction_keeps_the_bits_of_its_composed_value(seed, each_backend):
    # each predictor checks the pair once and reads sizes, bounds and means
    # stored at fit; the value must be the one its public pieces compose
    dataset = benchmark_dataset("ft", seed)
    train, test = fold_train_test(dataset, kfold_split(dataset, 10, 42), seed)
    # the fold's first 300 test pairs keep the numpy backend's kNN queries brief
    queries = [(int(u), int(i)) for u, i in zip(dataset.users[test], dataset.items[test])][:300]
    for _ in each_backend:
        for clamp in (True, False):
            for name, make in build_algorithms(list(PREDICTORS), mf_config=MfConfig(epochs=2), clamp=clamp).items():
                model = make().fit(train)
                got = [model.predict(u, i) for u, i in queries]
                want = [composed_prediction(model, train, u, i) for u, i in queries]
                assert all(type(v) is float for v in got), name
                assert np.array(got).tobytes() == np.array(want).tobytes(), (name, clamp)


class _Unreadable(RatingDataset):
    """A training set that no query may read: every attribute read raises."""

    def __getattribute__(self, name):
        raise AssertionError(f"a query read the training set's {name}")


@pytest.mark.parametrize("name", list(PREDICTORS))
def test_a_query_reads_nothing_of_the_training_set(name, kernel_backend, two_clusters_dataset):
    # the sizes and clamp bounds are stored on the model at fit: a query
    # reads no attribute of the training set, whose instance dict a pickle
    # round trip materialises and so makes slower to read
    train = two_clusters_dataset.subset(np.arange(two_clusters_dataset.n_ratings))
    model = PREDICTORS[name]().fit(train)
    pairs = [(u, i) for u in range(train.n_users) for i in range(train.n_items)]

    def every_prediction():
        return np.array([model.predict(u, i) for u, i in pairs]).tobytes()

    want = every_prediction()
    train.__class__ = _Unreadable
    assert every_prediction() == want


def test_pickled_model_keeps_its_arrays_read_only(kernel_backend, two_clusters_dataset):
    # numpy loads a pickled array writable; a write to a loaded model's
    # layout would reach the stats index and the bound query reading it
    train = two_clusters_dataset
    loaded_train, loaded = pickle.loads(pickle.dumps((train, CobarModel().fit(train))))
    arrays = {**{name: getattr(loaded_train, name) for name in ("users", "items", "ratings")},
              **{name: getattr(loaded.dendrogram, name) for name in ("merges", "heights", "leaf_users", "nodes")}}
    for name, array in arrays.items():
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 0
    assert loaded.stats._arrays[4] is loaded.dendrogram.nodes


def _fold(seed):
    ds = random_grid_dataset(np.random.default_rng(seed), max_users=30, max_items=25)
    return fold_train_test(ds, kfold_split(ds, 5, seed=seed), 0)[0]


def test_a_folds_models_share_its_derived_state(each_backend, monkeypatch):
    # uknn and iknn read the same two layouts, built once per training set,
    # and every model reads the training set's one MeanStats per axis
    for _ in each_backend:
        train = _fold(21)
        calls = []
        monkeypatch.setattr(kernels._loops, "csr_fill", lambda *args, fill=kernels._loops.csr_fill:
                            calls.append(fill(*args)))
        uknn, iknn = UserKnn().fit(train), ItemKnn().fit(train)
        assert len(calls) == 2
        layouts = (*train.user_layout, *train.item_layout)
        assert all(a is b for a, b in zip(uknn._index._arrays, layouts))
        assert all(a is b for a, b in zip(iknn._index._arrays, layouts[3:] + layouts[:3]))
        assert uknn._index._arrays[7] is train.user_stats.means
        assert uknn._index._global_mean == train.user_stats.global_mean
        assert iknn._index._arrays[7] is train.item_stats.means
        assert iknn._index._global_mean == train.item_stats.global_mean
        cobar = CobarModel().fit(train)
        assert cobar.user_stats is train.user_stats
        assert cobar.stats._lookup[0] is train.user_stats.means and cobar.stats._lookup[1] is train.item_stats.means
        # mp reads the training set's item stats, built by iknn: no new ones
        with monkeypatch.context() as patch:
            patch.setattr(data, "_mean_stats", None)
            mp = MostPopular().fit(train)
        stats = train.item_stats
        assert mp.item_means.tobytes() == np.where(np.isnan(stats.means), stats.global_mean, stats.means).tobytes()
        mf = MatrixFactorization(MfConfig(epochs=1)).fit(train)
        assert mf.global_mean == float(train.ratings.mean())
        assert np.array_equal(mf.user_seen, np.bincount(train.users, minlength=train.n_users) > 0)
        assert np.array_equal(mf.item_seen, np.bincount(train.items, minlength=train.n_items) > 0)


def test_knns_pickled_together_share_read_only_arrays(kernel_backend):
    train = _fold(22)
    models = UserKnn().fit(train), ItemKnn().fit(train)

    def every_prediction(ms):
        return [np.array([m.predict(u, i) for u in range(train.n_users) for i in range(train.n_items)]).tobytes()
                for m in ms]

    want = every_prediction(models)
    loaded_train, loaded = pickle.loads(pickle.dumps((train, models)))
    uknn, iknn = loaded
    layouts = (*loaded_train.user_layout, *loaded_train.item_layout)
    assert all(a is b for a, b in zip(uknn._index._arrays, layouts))
    assert all(a is b for a, b in zip(iknn._index._arrays, layouts[3:] + layouts[:3]))
    for array in (*uknn._index._arrays, *iknn._index._arrays):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    assert every_prediction(loaded) == want


def _reachable_arrays(obj, path, seen):
    """``(path, array)`` for every ndarray reachable from `obj` through the
    package's objects, tuples, lists, dicts, memoryviews and the numpy
    backend's bound queries; a compiled bound query is opaque, and its
    arrays are reached through its owner's."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield path, obj
    elif isinstance(obj, memoryview):
        assert obj.readonly, path
        yield from _reachable_arrays(obj.obj, f"{path}.obj", seen)
    elif isinstance(obj, (tuple, list)):
        for k, value in enumerate(obj):
            yield from _reachable_arrays(value, f"{path}[{k}]", seen)
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from _reachable_arrays(value, f"{path}[{key!r}]", seen)
    elif isinstance(obj, functools.partial):
        yield from _reachable_arrays(obj.args, f"{path}.args", seen)
    elif type(obj).__module__.startswith("cobar.") and hasattr(obj, "__dict__"):
        for name, value in vars(obj).items():
            yield from _reachable_arrays(value, f"{path}.{name}", seen)


@pytest.mark.parametrize("name", list(PREDICTORS))
def test_every_array_of_a_fitted_model_is_read_only(name, kernel_backend, two_clusters_dataset):
    # a write to a fitted array would move later predictions, and a write
    # to an array a compiled query reads unchecked could crash the process
    ds = two_clusters_dataset
    pairs = [(u, i) for u in range(ds.n_users) for i in range(ds.n_items)]
    model = PREDICTORS[name]().fit(ds)
    want = [model.predict(u, i) for u, i in pairs]
    loaded = pickle.loads(pickle.dumps(model))
    assert [loaded.predict(u, i) for u, i in pairs] == want
    for which, fitted in (("fresh", model), ("loaded", loaded)):
        arrays = list(_reachable_arrays(fitted, name, set()))
        assert arrays, which
        for path, array in arrays:
            assert not array.flags.writeable, (which, path)


@pytest.mark.parametrize("name", list(PREDICTORS))
def test_a_fitted_model_keeps_no_training_set(name, kernel_backend, two_clusters_dataset):
    # a query reads only what the fit stored, so once its caller drops the
    # training set, nothing holds it
    train = two_clusters_dataset.subset(np.arange(two_clusters_dataset.n_ratings))
    pairs = [(u, i) for u in range(train.n_users) for i in range(train.n_items)]
    model = PREDICTORS[name]().fit(train)
    want = [model.predict(u, i) for u, i in pairs]
    kept = weakref.ref(train)
    del train
    gc.collect()
    assert kept() is None
    assert [model.predict(u, i) for u, i in pairs] == want


def _protocol_classes(cls=_ReadOnlyState):
    """The package's classes below `cls` that no other class extends."""
    found = set()
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("cobar."):
            found |= _protocol_classes(sub) or {sub}
    return found


def _fitted_state(dataset):
    """A new training set of `dataset`, fitted state of each class of the
    fitted-state protocol on it, and the five predictors fit on it, all
    built anew on every call; the training set first, then cobar."""
    train = dataset.subset(np.arange(dataset.n_ratings))
    models = {name: make().fit(train) for name, make in PREDICTORS.items()}
    cobar = models["cobar"]
    return [train, train.user_stats, cobar.dendrogram, cobar.stats, models["uknn"]._index, *models.values()]


def _bound_names(obj) -> set:
    """The attributes `_bind` sets on a copy of `obj` that holds just its
    pickled state: the names it adds or whose value it replaces."""
    copy = object.__new__(type(obj))
    for name, value in obj.__getstate__().items():
        setattr(copy, name, value)
    before = dict(vars(copy))
    copy._bind()
    return {name for name, value in vars(copy).items() if name not in before or before[name] is not value}


def test_every_declared_attribute_is_set(kernel_backend, two_clusters_dataset):
    # a name in `_READ_ONLY` that no instance sets, a typo say, would leave
    # an array writable; what `_bind` sets is set again after a load
    instances = _fitted_state(two_clusters_dataset)
    assert {type(obj) for obj in instances} == _protocol_classes()
    for obj in instances:
        for name in type(obj)._READ_ONLY:
            value = getattr(obj, name)
            arrays = value if isinstance(value, tuple) else (value,)
            assert arrays and all(isinstance(a, np.ndarray) for a in arrays), (type(obj).__name__, name)
        loaded = pickle.loads(pickle.dumps(obj))
        for name in _bound_names(obj):
            assert vars(loaded).get(name) is not None, (type(obj).__name__, name)
    # the fit bound its prediction at its level: leaf 0's user picks the
    # node and half-width of the reference walk at that level
    train, cobar = instances[0], instances[5]
    chain = ancestor_chain_reference(cobar.dendrogram, 0).tolist()
    stats = build_item_stats_dict(cobar.dendrogram, train)
    node, half_width = select_optimal_cluster_dict(chain, 0, stats, cobar.config.confidence_level)
    picked = cobar.predict_detailed(cobar.dendrogram.leaf_users[0], 0)
    assert (picked.chosen_node, repr(picked.half_width)) == (node, repr(half_width))


def test_pickling_leaves_the_instance_dict_unmade(kernel_backend, two_clusters_dataset):
    # pickling reads, and loading sets, the named attributes one by one:
    # once CPython 3.11 makes an instance's `__dict__`, every later
    # attribute read of it is slower, and `gc.get_referents` lists that
    # dict in place of the attribute values
    unfitted = [make() for make in PREDICTORS.values()]
    for obj in [*_fitted_state(two_clusters_dataset), *unfitted]:
        loaded = pickle.loads(pickle.dumps(obj))
        for which in (obj, loaded):
            # an unfitted model's `_limits` is its class's None
            values = [value for value in which.__getstate__().values() if value is not None]
            referents = gc.get_referents(which)
            # the attribute values, among them the training set's cache, a dict
            assert all(any(ref is value for ref in referents) for value in values), type(obj).__name__
            dicts = [ref for ref in referents if type(ref) is dict]
            assert all(any(ref is value for value in values) for ref in dicts), type(obj).__name__


def test_a_pickle_holds_every_attribute_but_the_bound_ones(kernel_backend, two_clusters_dataset):
    # the names a pickle holds are fixed per class: compared with the
    # attributes of a separate fit, whose `vars` makes its dict, so that
    # an attribute a fit adds cannot drop out of a pickle unseen; the bound
    # ones are those `_bind` sets after a load
    pickled = [obj.__getstate__() for obj in _fitted_state(two_clusters_dataset)]
    for state, obj in zip(pickled, _fitted_state(two_clusters_dataset)):
        bound = _bound_names(obj)
        assert not bound & state.keys() and vars(obj).keys() == state.keys() | bound, type(obj).__name__


def _cached_properties(cls):
    return {name for klass in cls.__mro__ for name, attr in vars(klass).items()
            if isinstance(attr, functools.cached_property)}


def test_no_fitted_state_defines_a_cached_property():
    # a cached value lives in the instance dict, which it makes, so every
    # later attribute read of the instance is slower, and no pickle holds it
    classes = _protocol_classes()
    assert {"Dendrogram", "ClusterStatsIndex", "CobarModel"} <= {cls.__name__ for cls in classes}
    assert not {(cls.__name__, name) for cls in classes for name in _cached_properties(cls)}


def test_a_dendrogram_pickles_to_its_four_arrays(kernel_backend):
    # the tree holds its four arrays and no Python object per leaf or node:
    # its pickle is their bytes plus a constant, about 400 bytes with
    # numpy 2.4 on CPython 3.11 (a tuple per leaf added 3.6 kB here)
    train = random_grid_dataset(np.random.default_rng(26), max_users=300, max_items=40)
    tree = CobarModel().fit(train).dendrogram
    assert tree.n_leaves > 100
    assert vars(tree).keys() == set(type(tree)._READ_ONLY) == {"merges", "heights", "leaf_users", "nodes"}
    arrays = [getattr(tree, name) for name in type(tree)._READ_ONLY]
    assert all(type(array) is np.ndarray for array in arrays)
    assert len(pickle.dumps(tree)) < sum(array.nbytes for array in arrays) + 512


def test_a_cluster_stats_index_pickles_to_its_arrays(kernel_backend):
    # the index holds what its query reads, its five stats arrays, its
    # three per-user and per-item arrays, the global mean and an int, and
    # no copy of the ratings: its pickle is the arrays' bytes plus about
    # 580 bytes with numpy 2.4 on CPython 3.11 (a copy added 8 bytes per
    # clustered rating, 19.5 kB here)
    train = random_grid_dataset(np.random.default_rng(26), max_users=300, max_items=40)
    stats = CobarModel().fit(train).stats
    assert stats.n_entries > 4_000
    assert vars(stats).keys() == {"_arrays", "_lookup", "_global_mean", "_most_raters"}
    arrays = (*stats._arrays, *stats._lookup)
    assert len(pickle.dumps(stats)) < sum(array.nbytes for array in arrays) + 1024


@pytest.mark.parametrize("name", ["cobar", "mp", "mf"])
def test_a_fit_without_knn_builds_no_layout(name, kernel_backend):
    train = _fold(23)
    PREDICTORS[name]().fit(train)
    assert not {"user_layout", "item_layout"} & set(train._derived)


@pytest.mark.parametrize("name", list(PREDICTORS))
def test_empty_training_set_rejected(name):
    empty = _fold(24).subset([])
    with pytest.raises(ValueError, match="empty training set"):
        PREDICTORS[name]().fit(empty)


@pytest.mark.parametrize("source", ["two_clusters", "ft", *RATING_SCALES])
def test_power_of_two_scales_every_prediction(source, each_backend, two_clusters_dataset):
    # scaling the ratings by 2^k is exact while nothing overflows or
    # underflows, and every step of cobar, mp and both kNNs is scale-free
    # (MF's learning rate is not), so each prediction scales by exactly 2^k
    if source == "two_clusters":
        datasets = [two_clusters_dataset]
    elif source == "ft":
        datasets = [benchmark_dataset("ft", 1)]
    else:
        rng = np.random.default_rng(61)
        datasets = [random_grid_dataset(rng, draw=RATING_SCALES[source]) for _ in range(3)]
    names = ["cobar", "mp", "uknn", "iknn"]
    for ds in datasets:
        train, test = fold_train_test(ds, kfold_split(ds, 5, 42), 0)
        # the ft fold's first 300 test pairs keep the numpy backend's kNN queries brief
        queries = [(int(u), int(i)) for u, i in zip(ds.users[test], ds.items[test])][:300]
        for _ in each_backend:
            for clamp in (True, False):
                algorithms = build_algorithms(names, clamp=clamp)
                want = {name: np.array([model.predict(u, i) for u, i in queries])
                        for name, model in ((name, make().fit(train)) for name, make in algorithms.items())}
                for k in (8, -8, 100, -100, 500, -500):
                    scaled = replace(train, ratings=np.ldexp(train.ratings, k),
                                     rating_min=math.ldexp(train.rating_min, k),
                                     rating_max=math.ldexp(train.rating_max, k))
                    for name, make in algorithms.items():
                        model = make().fit(scaled)
                        got = np.array([model.predict(u, i) for u, i in queries])
                        assert got.tobytes() == np.ldexp(want[name], k).tobytes(), (name, clamp, k)
