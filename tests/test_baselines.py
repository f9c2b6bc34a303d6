"""Popularity, kNN and matrix-factorization predictors."""

import numpy as np
import pytest

from cobar import ItemKnn, KnnConfig, MatrixFactorization, MfConfig, MostPopular, UserKnn
from cobar.kernels import available_backends
from conftest import make_dataset, random_grid_dataset
from oracles import knn_prediction


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
        dense = ds.sparse_by_user().toarray()
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

    def test_min_overlap_filters_thin_neighbors(self):
        # n2 shares only one item with q; min_overlap=2 silences it
        rows = [
            ("q", "a", 4.0), ("q", "b", 4.0),
            ("n1", "a", 4.0), ("n1", "b", 4.0), ("n1", "t", 2.0),
            ("n2", "a", 4.0), ("n2", "t", 4.0),
        ]
        ds = make_dataset(rows)
        q, t = ds.user_index("q"), ds.item_index("t")
        loose = UserKnn(KnnConfig(k=5, min_overlap=1), clamp=False).fit(ds)
        strict = UserKnn(KnnConfig(k=5, min_overlap=2), clamp=False).fit(ds)
        assert loose.predict(q, t) != strict.predict(q, t)
        # with only n1 left, the aggregation is the single-neighbor formula
        n1_mean = (4.0 + 4.0 + 2.0) / 3
        assert strict.predict(q, t) == pytest.approx(4.0 + (2.0 - n1_mean), abs=1e-12)

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
        item_means = {i: np.mean(ds.by_item[i][1]) for i in range(ds.n_items)}
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
        R = ds.sparse_by_user().toarray().T   # item-major
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
    @pytest.mark.parametrize("k,min_overlap", [(2, 1), (2, 2), (30, 1), (30, 2)])
    @pytest.mark.parametrize("cls,user_based", [(UserKnn, True), (ItemKnn, False)])
    def test_random_non_grid_data(self, cls, user_based, k, min_overlap):
        for seed in range(4):
            ds = _random_real_dataset(seed)
            model = cls(KnnConfig(k=k, min_overlap=min_overlap), clamp=False).fit(ds)
            for u in range(ds.n_users):
                for i in range(ds.n_items):
                    expected = knn_prediction(ds, u, i, k, min_overlap, user_based, clamp=False)
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

    def test_zero_epochs_with_tiny_init_predicts_global_mean(self):
        ds = _rank_one_dataset()
        model = MatrixFactorization(MfConfig(epochs=0, init_scale=1e-9), clamp=False).fit(ds)
        mu = float(ds.ratings.mean())
        for u, i in [(0, 0), (3, 4), (7, 2)]:
            assert model.predict(u, i) == pytest.approx(mu, abs=1e-6)

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
        model = MatrixFactorization(MfConfig(epochs=20, seed=3)).fit(ds)
        assert model.epoch_mse[-1] < model.epoch_mse[0]

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

    def test_backends_agree(self):
        backends = available_backends()
        if len(backends) < 2:
            pytest.skip("compiled backend not built")
        ds = _rank_one_dataset(seed=5)
        results = []
        for mod in backends.values():
            model = MatrixFactorization(MfConfig(epochs=10, seed=7), kernel=mod.mf_sgd_epoch).fit(ds)
            results.append([model.predict(int(u), int(i)) for u, i in zip(ds.users, ds.items)])
        np.testing.assert_allclose(results[0], results[1], atol=1e-8)


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
