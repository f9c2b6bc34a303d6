"""The dataset's checks, parsing, statistics, fold splits and subsampling."""

import logging
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cobar import (
    CobarModel,
    MeanStats,
    ParseError,
    RatingDataset,
    compute_item_stats,
    compute_user_stats,
    fold_train_test,
    kernels,
    kfold_split,
    parse_ratings,
    subsample_users,
)
from cobar.data import DELIMITER_ALIASES
from cobar.kernels import _python, csr_rows
from conftest import REPO_ROOT, benchmark_dataset, load_datagen, make_dataset, random_grid_dataset


def _hand_fields():
    """Users a, b, c and items x, y, z with five ratings, no pair repeated."""
    return {
        "user_ids": ["a", "b", "c"], "item_ids": ["x", "y", "z"],
        "users": np.array([0, 0, 1, 1, 2], dtype=np.int32),
        "items": np.array([0, 1, 0, 2, 1], dtype=np.int32),
        "ratings": np.array([4.0, 2.0, 5.0, 3.0, 1.0]),
        "rating_min": 1.0, "rating_max": 5.0,
    }


def _set(position, value):
    def change(a):
        a = a.copy()
        a[position] = value
        return a
    return change


class TestRatingDatasetChecks:
    """A dataset checks its triples when it is built, so every model that
    reads them sees the same valid input."""

    @pytest.mark.parametrize("name, value, error, match", [
        ("users", lambda a: a.tolist(), TypeError, "users must be an array"),
        ("users", lambda a: a.astype(np.int64), TypeError, "users must hold int32, got int64"),
        ("items", lambda a: a.astype(np.int64), TypeError, "items must hold int32, got int64"),
        ("ratings", lambda a: a.astype(np.float32), TypeError, "ratings must hold float64, got float32"),
        ("items", lambda a: np.repeat(a, 2)[::2], ValueError, "items must be C-contiguous"),
        ("ratings", lambda a: np.stack([a, a]), ValueError, "ratings must be 1-dimensional"),
        ("ratings", lambda a: a[:-1], ValueError, "users, items and ratings must have the same length"),
        ("items", _set(3, 3), IndexError, r"items holds an index out of range \[0, 3\)"),
        ("items", _set(3, -1), IndexError, r"items holds an index out of range \[0, 3\)"),
        ("users", _set(4, 3), IndexError, r"users holds an index out of range \[0, 3\)"),
        ("users", _set(0, -1), IndexError, r"users holds an index out of range \[0, 3\)"),
        ("ratings", _set(2, np.nan), ValueError, "ratings must be finite"),
        ("ratings", _set(2, np.inf), ValueError, "ratings must be finite"),
        ("ratings", _set(2, -np.inf), ValueError, "ratings must be finite"),
        ("items", _set(1, 0), ValueError, r"users and items hold a repeated \(user, item\) pair"),
    ], ids=["list-users", "int64-users", "int64-items", "float32-ratings", "strided-items", "2-d-ratings",
            "unequal-lengths", "item-high", "item-negative", "user-high", "user-negative", "nan-rating",
            "inf-rating", "minus-inf-rating", "repeated-pair"])
    def test_bad_triples_rejected(self, name, value, error, match):
        fields = _hand_fields()
        fields[name] = value(fields[name])
        with pytest.raises(error, match=match):
            RatingDataset(**fields)

    def test_out_of_range_item_stops_before_the_fit(self):
        # an item index equal to n_items once reached the cosine pass, whose
        # sparse transpose wrote past its buffers: on this dataset glibc
        # aborted the interpreter, so the fit runs in a process of its own
        code = (
            "import numpy as np; from cobar import CobarModel, RatingDataset; "
            "CobarModel().fit(RatingDataset(user_ids=['a', 'b', 'c'], item_ids=['x', 'y', 'z'], "
            "users=np.repeat(np.arange(3, dtype=np.int32), 3), "
            "items=np.array([0, 1, 2, 0, 1, 2, 0, 1, 3], dtype=np.int32), "
            "ratings=np.arange(1.0, 10.0) / 2, rating_min=0.5, rating_max=4.5))"
        )
        environ = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        out = subprocess.run([sys.executable, "-c", code], env=environ, capture_output=True, text=True)
        assert out.returncode == 1
        assert out.stderr.rstrip().endswith("IndexError: items holds an index out of range [0, 3)")


    def test_arrays_read_only_after_the_check(self):
        # writing an index out of range into a checked dataset once made the
        # next cobar fit abort (exit 134) in scipy's sparse transpose
        fields = {
            "user_ids": ["a", "b", "c"], "item_ids": ["x", "y", "z"],
            "users": np.repeat(np.arange(3, dtype=np.int32), 3),
            "items": np.tile(np.arange(3, dtype=np.int32), 3),
            "ratings": np.arange(1.0, 10.0) / 2, "rating_min": 0.5, "rating_max": 4.5,
        }
        ds = RatingDataset(**fields)
        for name in ("users", "items", "ratings"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(ds, name)[8] = 3
            assert fields[name].flags.writeable
        assert ds.items[8] == 2
        CobarModel().fit(ds)
        # the dataset keeps copies, and so does a subset
        fields["ratings"][0] = 0.25
        assert ds.ratings[0] == 0.5
        assert not ds.subset(np.arange(3)).ratings.flags.writeable

    def test_write_after_the_check_never_reaches_the_fit(self):
        # an index out of range written into the caller's array after the
        # check once ended the fit in glibc's "double free or corruption"
        # (signal 6) inside the cosine pass; the fit runs in a process of
        # its own, and may end cleanly or in a Python exception, never in a
        # signal
        code = (
            "import numpy as np; from cobar import CobarModel, RatingDataset; "
            "items = np.tile(np.arange(3, dtype=np.int32), 3); "
            "ds = RatingDataset(user_ids=['a', 'b', 'c'], item_ids=['x', 'y', 'z'], "
            "users=np.repeat(np.arange(3, dtype=np.int32), 3), items=items, "
            "ratings=np.arange(1.0, 10.0) / 2, rating_min=0.5, rating_max=4.5); "
            "items[8] = 3; "
            "model = CobarModel().fit(ds); "
            "print(ds.items[8], model.dendrogram.n_leaves)"
        )
        environ = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        out = subprocess.run([sys.executable, "-c", code], env=environ, capture_output=True, text=True)
        assert out.returncode in (0, 1), out.stderr
        if out.returncode == 1:
            assert "Traceback" in out.stderr
        else:
            assert out.stdout.split() == ["2", "3"]


class TestSubset:
    def test_empty_list_selects_nothing(self):
        ds = RatingDataset(**_hand_fields())
        for empty in ([], (), np.array([], dtype=int), np.zeros(5, dtype=bool)):
            sub = ds.subset(empty)
            assert (sub.n_ratings, sub.users.dtype, sub.items.dtype, sub.ratings.dtype) == (
                0, np.int32, np.int32, np.float64)
            assert (sub.user_ids, sub.item_ids) == (ds.user_ids, ds.item_ids)

    def test_masks_and_lists_select_as_before(self):
        ds = RatingDataset(**_hand_fields())
        mask = np.array([True, False, True, False, True])
        for picked in (ds.subset(mask), ds.subset([0, 2, 4]), ds.subset(np.array([0, 2, 4]))):
            assert picked.users.tolist() == [0, 1, 2]
            assert picked.items.tolist() == [0, 0, 1]
            assert picked.ratings.tolist() == [4.0, 5.0, 1.0]
        with pytest.raises(IndexError):
            ds.subset([5])


def _latin1_file() -> bytes:
    """5,000 lines, the 3,001st of them Latin-1; the bad byte lies past the
    text reader's first chunk, whose decode error gives only a position in
    that chunk."""
    lines = [f"u{n % 50}\ti{n % 97}\t{n % 9 / 2 + 0.5}\n".encode() for n in range(5000)]
    lines[3000] = "Jos\u00e9\ti2\t4.0\n".encode("latin-1")
    return b"".join(lines)


LATIN1_ERROR = "line 3001: 'utf-8' codec can't decode byte 0xe9 in position 3: invalid continuation byte"


class TestParseRatings:
    def test_single_record(self):
        ds = parse_ratings(["1\t5\t4.0"])
        assert ds.n_users == 1 and ds.n_items == 1 and ds.n_ratings == 1
        assert ds.users[0] == 0 and ds.items[0] == 0 and ds.ratings[0] == 4.0

    def test_duplicate_keeps_last_and_counts(self, caplog):
        with caplog.at_level("WARNING", logger="cobar.data"):
            ds = parse_ratings(["1\t5\t4.0", "1\t5\t2.0"])
        assert ds.n_ratings == 1
        assert ds.ratings[0] == 2.0
        # the count lives only in the warning
        assert any(rec.message == "ratings: 1 duplicate (user, item) pairs, kept last rating" for rec in caplog.records)

    def test_malformed_rating_names_line(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_ratings(["1\t5\tabc"])

    def test_malformed_line_number_counts_from_top(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_ratings(["1\t5\t4.0", "2\t5\t3.0", "3\t5"])

    def test_non_utf8_line_named(self, tmp_path):
        path = tmp_path / "latin1.tsv"
        path.write_bytes(_latin1_file())
        with pytest.raises(ParseError) as exc:
            parse_ratings(path)
        assert str(exc.value) == LATIN1_ERROR

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError, match="no rating records"):
            parse_ratings([])

    def test_header_skipped(self):
        ds = parse_ratings(["user\titem\trating", "1\t5\t4.0"], skip_header=True)
        assert ds.n_ratings == 1

    def test_extra_trailing_fields_ignored(self):
        ds = parse_ratings(["1\t5\t4.0\t881250949\tmore"])
        assert ds.ratings[0] == 4.0

    def test_comma_delimiter_via_alias(self):
        ds = parse_ratings(["1,5,4.0", "2,5,3.0"], delimiter="comma")
        assert ds.n_users == 2

    def test_blank_lines_skipped(self):
        ds = parse_ratings(["1\t5\t4.0", "", "2\t5\t3.0"])
        assert ds.n_ratings == 2

    def test_observed_scale_bounds(self):
        ds = make_dataset([("a", "x", 1.0), ("b", "x", 4.5)])
        assert ds.rating_min == 1.0 and ds.rating_max == 4.5

    def test_nonfinite_rating_rejected(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_ratings(["1\t5\tnan"])

    @pytest.mark.parametrize("lines, delimiter", [
        (["1 6 3.0", "1  5 4.0"], "space"),
        (["1\t6\t3.0", "1\t\t4.0"], "tab"),
        (["1\t6\t3.0", " \t5\t4.0"], "tab"),
    ], ids=["doubled-space", "doubled-tab", "blank-user"])
    def test_empty_id_rejected(self, lines, delimiter):
        # a doubled delimiter would otherwise shift the rating into the item column
        with pytest.raises(ParseError, match="line 2: empty user or item id"):
            parse_ratings(lines, delimiter=delimiter)

    def test_byte_order_mark_stripped(self, tmp_path):
        path = tmp_path / "bom.tsv"
        path.write_text("\ufeff1\t5\t4.0\n1\t6\t3.0\n", encoding="utf-8")
        ds = parse_ratings(path)
        assert ds.user_ids == ["1"] and ds.n_ratings == 2

    def test_adjacency_consistent_with_triples(self):
        # ratings of 0 included: the CSR rows must keep them as explicit entries
        rng = np.random.default_rng(3)
        ds = random_grid_dataset(rng, draw=lambda rng: int(rng.integers(0, 9)) / 2.0)
        assert np.any(ds.ratings == 0.0)
        triples = set(zip(ds.users.tolist(), ds.items.tolist(), ds.ratings.tolist()))
        for keys, others, n_keys, n_others, swap in (
            (ds.users, ds.items, ds.n_users, ds.n_items, False),
            (ds.items, ds.users, ds.n_items, ds.n_users, True),
        ):
            indptr, indices, data = csr_rows(keys, others, ds.ratings, n_keys, n_others)
            assert indptr[-1] == len(indices) == len(data) == ds.n_ratings
            laid_out = set()
            for key in range(n_keys):
                row = indices[indptr[key]:indptr[key + 1]]
                assert np.all(np.diff(row) > 0)   # sorted by construction
                for other, r in zip(row.tolist(), data[indptr[key]:indptr[key + 1]].tolist()):
                    laid_out.add((other, key, r) if swap else (key, other, r))
            assert laid_out == triples

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        ds = random_grid_dataset(rng)
        path = tmp_path / "out.tsv"
        path.write_text("".join(
            f"{ds.user_ids[u]}\t{ds.item_ids[i]}\t{float(r)!r}\n" for u, i, r in zip(ds.users, ds.items, ds.ratings)
        ))
        again = parse_ratings(path)
        assert again.user_ids == ds.user_ids
        assert again.item_ids == ds.item_ids
        np.testing.assert_array_equal(again.users, ds.users)
        np.testing.assert_array_equal(again.items, ds.items)
        np.testing.assert_array_equal(again.ratings, ds.ratings)


def _csr_case(rng, n_keys, n_others, n):
    """n distinct (key, other) pairs in random order, the largest key and
    other among them, with ratings holding 0.0 and -0.0."""
    pairs = rng.choice(n_keys * n_others, size=n, replace=False)
    if n:
        pairs[0] = n_keys * n_others - 1
    pairs = rng.permutation(pairs)
    ratings = rng.integers(-4, 5, size=n) / 2.0
    ratings[rng.random(n) < 0.2] = -0.0
    return (pairs // n_others).astype(np.int32), (pairs % n_others).astype(np.int32), ratings, n_keys, n_others


def _csr_reference(keys, others, ratings, n_keys, n_others):
    """The CSR arrays of `csr_rows`, from Python's sort of the triples."""
    triples = sorted(zip(keys.tolist(), others.tolist(), ratings.tolist()))
    indptr = np.zeros(n_keys + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n_keys), out=indptr[1:])
    return (indptr, np.array([o for _, o, _ in triples], dtype=np.int32),
            np.array([r for _, _, r in triples], dtype=np.float64))


class TestCsrRows:
    """`csr_rows` gives the same arrays on both backends: the compiled
    two-pass counting sort and the numpy argsort."""

    def test_backends_agree_on_edge_cases(self, each_backend):
        rng = np.random.default_rng(21)
        cases = [
            # keys and others with no ratings, the largest of each rated
            _csr_case(rng, 40, 30, 50),
            _csr_case(rng, 3, 200, 120),
            _csr_case(rng, 200, 3, 120),
            _csr_case(rng, 1, 1, 1),
            # every pair rated
            _csr_case(rng, 7, 9, 63),
            _csr_case(rng, 50, 60, 400),
            # an empty selection
            _csr_case(rng, 5, 4, 0),
        ]
        for case in cases:
            want = [a.tobytes() for a in _csr_reference(*case)]
            for _ in each_backend:
                got = csr_rows(*case)
                assert [a.dtype for a in got] == [np.int64, np.int32, np.float64]
                assert [a.tobytes() for a in got] == want

    def test_backends_agree_on_a_benchmark_dataset(self, each_backend):
        ds = benchmark_dataset("ft", 1)
        for args in ((ds.users, ds.items, ds.ratings, ds.n_users, ds.n_items),
                     (ds.items, ds.users, ds.ratings, ds.n_items, ds.n_users)):
            laid_out = []
            for _ in each_backend:
                laid_out.append(b"".join(a.tobytes() for a in csr_rows(*args)))
            assert laid_out[0] == laid_out[1] == b"".join(a.tobytes() for a in _csr_reference(*args))

    def test_entry_refuses_other_index_widths(self, each_backend, monkeypatch):
        # the loops read int32 keys and others unchecked: the entry refuses
        # any other width before a loop runs
        index = np.arange(3, dtype=np.int32)
        for _ in each_backend:
            calls = []
            monkeypatch.setattr(kernels._loops, "csr_fill", lambda *args: calls.append(args))
            for dtype in (np.int64, np.int16):
                for name, keys, others in (("keys", index.astype(dtype), index),
                                           ("others", index, index.astype(dtype))):
                    with pytest.raises(TypeError, match=f"{name} must hold int32, got {np.dtype(dtype)}"):
                        csr_rows(keys, others, np.ones(3), 3, 3)
            assert calls == []


class TestUserStats:
    def test_single_value(self):
        stats = compute_user_stats(make_dataset([("u", "x", 4.0)]))
        assert stats.mean(0) == 4.0

    def test_symmetric_pair(self):
        stats = compute_user_stats(make_dataset([("u", "x", 2.0), ("u", "y", 4.0)]))
        assert stats.mean(0) == 3.0

    def test_global_mean_direct_arithmetic(self):
        rows = [(f"u{i}", "x" if i % 2 else f"y{i}", float(r)) for i, r in enumerate([1, 2, 3, 4, 5])]
        stats = compute_user_stats(make_dataset(rows))
        assert stats.global_mean == pytest.approx(3.0, abs=1e-12)

    def test_user_missing_from_train_is_undefined(self):
        ds = make_dataset([("a", "x", 3.0), ("b", "x", 4.0)])
        train = ds.subset(np.array([0]))
        stats = compute_user_stats(train)
        assert stats.mean(1) is None
        assert stats.mean_or_global(1) == stats.global_mean

    def test_train_test_union_matches_full(self):
        rng = np.random.default_rng(5)
        ds = random_grid_dataset(rng, max_users=12)
        split = kfold_split(ds, 4, seed=9)
        full = compute_user_stats(ds)
        for fold in range(4):
            union = ds.subset(np.concatenate([split.train_indices(fold), split.test_indices(fold)]))
            merged = compute_user_stats(union)
            assert merged.global_mean == pytest.approx(full.global_mean, abs=1e-12)
            np.testing.assert_allclose(merged.means, full.means, atol=1e-12)


DERIVED = ("user_layout", "item_layout", "user_stats", "item_stats")


def _derived_arrays(ds):
    return (*ds.user_layout, *ds.item_layout, ds.user_stats.means, ds.item_stats.means)


class TestDerivedState:
    """The layouts and means a dataset derives from its triples once, on
    first read, for every model fit on it."""

    def test_layouts_are_csr_rows_of_the_triples(self, each_backend):
        rng = np.random.default_rng(12)
        for _ in each_backend:
            # a dataset per backend, so that each backend builds the layouts
            ds = random_grid_dataset(rng, draw=lambda r: r.choice([0.0, -0.0, 1.5, 3.25]))
            assert np.count_nonzero(ds.ratings == 0.0) > 0
            for layout, args in ((ds.user_layout, (ds.users, ds.items, ds.ratings, ds.n_users, ds.n_items)),
                                 (ds.item_layout, (ds.items, ds.users, ds.ratings, ds.n_items, ds.n_users))):
                assert [a.tobytes() for a in layout] == [a.tobytes() for a in csr_rows(*args)]
                assert [a.tobytes() for a in layout] == [a.tobytes() for a in _csr_reference(*args)]
                # explicit zeros, and their signs, are kept
                assert np.array_equal(np.sort(layout[2].view(np.int64)), np.sort(ds.ratings.view(np.int64)))

    def test_built_once_and_read_only(self, each_backend):
        rng = np.random.default_rng(13)
        for _ in each_backend:
            ds = random_grid_dataset(rng)
            assert not set(DERIVED) & set(ds._derived)
            first = [getattr(ds, name) for name in DERIVED]
            assert all(getattr(ds, name) is built for name, built in zip(DERIVED, first))
            assert compute_user_stats(ds) is ds.user_stats and compute_item_stats(ds) is ds.item_stats
            for array in _derived_arrays(ds):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0
            with pytest.raises(AttributeError, match="cannot be set"):
                ds.user_layout = first[0]

    def test_subset_and_subsample_start_with_nothing_cached(self):
        ds = random_grid_dataset(np.random.default_rng(14))
        built = _derived_arrays(ds)
        for derived in (ds.subset(np.arange(ds.n_ratings)), subsample_users(ds, ds.n_users - 1, seed=0)):
            assert not set(DERIVED) & set(derived._derived)
            assert not any(a is b for a, b in zip(_derived_arrays(derived), built))

    def test_empty_training_set_still_raises(self):
        empty = random_grid_dataset(np.random.default_rng(15)).subset([])
        for stats in (compute_user_stats, compute_item_stats, compute_user_stats):
            with pytest.raises(ValueError, match="empty training set"):
                stats(empty)
        assert not {"user_stats", "item_stats"} & set(empty._derived)

    def test_pickle_keeps_the_cache_read_only(self):
        ds = random_grid_dataset(np.random.default_rng(16))
        want = [a.tobytes() for a in _derived_arrays(ds)]
        loaded = pickle.loads(pickle.dumps(ds))
        assert set(DERIVED) <= set(loaded._derived)
        assert [a.tobytes() for a in _derived_arrays(loaded)] == want
        for array in _derived_arrays(loaded):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0


class TestMeanStatsReadOnly:
    def test_a_write_cannot_reach_a_fitted_model(self, demo_dataset):
        # the stats are the training set's, shared by every model fit on
        # it; before they were frozen, this write moved the README's
        # worked example from 3.1 to 1.4
        model = CobarModel().fit(demo_dataset)
        user, item = demo_dataset.user_index("1"), demo_dataset.item_index("100")
        want = model.predict(user, item)
        for fitted in (model, pickle.loads(pickle.dumps(model))):
            with pytest.raises(ValueError, match="read-only"):
                fitted.user_stats.means[user] = 0.0
            assert fitted.predict(user, item) == want == pytest.approx(3.1)

    def test_stays_read_only_after_a_pickle(self):
        loaded = pickle.loads(pickle.dumps(MeanStats(means=np.array([1.0, np.nan]), global_mean=1.0)))
        with pytest.raises(ValueError, match="read-only"):
            loaded.means[0] = 0.0


class TestKfoldSplit:
    def test_exact_fold_of_one_each(self):
        ds = make_dataset([(f"u{i}", "x", 3.0) for i in range(10)])
        split = kfold_split(ds, 10, seed=0)
        assert np.bincount(split.assignment).tolist() == [1] * 10

    def test_same_seed_same_assignment(self):
        rng = np.random.default_rng(8)
        ds = random_grid_dataset(rng)
        a = kfold_split(ds, 5, seed=123)
        b = kfold_split(ds, 5, seed=123)
        np.testing.assert_array_equal(a.assignment, b.assignment)

    def test_pigeonhole_sizes(self):
        ds = make_dataset([(f"u{i}", "x", 3.0) for i in range(11)])
        sizes = sorted(np.bincount(kfold_split(ds, 10, seed=4).assignment).tolist())
        assert sizes == [1] * 9 + [2]

    def test_k_larger_than_triples_rejected(self):
        ds = make_dataset([("a", "x", 3.0), ("b", "x", 2.0)])
        with pytest.raises(ValueError):
            kfold_split(ds, 3, seed=0)

    def test_partition_property(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            ds = random_grid_dataset(rng)
            k = int(rng.integers(2, min(6, ds.n_ratings) + 1))
            split = kfold_split(ds, k, seed=int(rng.integers(1000)))
            sizes = np.bincount(split.assignment, minlength=k)
            assert sizes.sum() == ds.n_ratings
            assert int(sizes.max()) - int(sizes.min()) <= 1
            seen = np.concatenate([split.test_indices(f) for f in range(k)])
            assert len(seen) == ds.n_ratings and len(np.unique(seen)) == ds.n_ratings

    def test_fold_train_test_disjoint(self):
        rng = np.random.default_rng(31)
        ds = random_grid_dataset(rng)
        split = kfold_split(ds, 3, seed=2)
        train, test_idx = fold_train_test(ds, split, 1)
        assert train.n_ratings + len(test_idx) == ds.n_ratings
        assert set(np.flatnonzero(split.assignment != 1)) == set(range(ds.n_ratings)) - set(test_idx)


class TestSubsampleUsers:
    def test_noop_when_under_cap(self):
        ds = make_dataset([("a", "x", 3.0), ("b", "y", 2.0)])
        assert subsample_users(ds, 5, seed=1) is ds

    def test_deterministic_and_reindexed(self):
        rng = np.random.default_rng(17)
        ds = random_grid_dataset(rng, max_users=20, max_items=10)
        a = subsample_users(ds, 5, seed=3)
        b = subsample_users(ds, 5, seed=3)
        assert a.user_ids == b.user_ids and a.n_users == 5
        np.testing.assert_array_equal(a.ratings, b.ratings)
        # internal indices are contiguous and consistent
        assert a.users.max() < a.n_users and a.items.max() < a.n_items
        assert set(a.user_ids) <= set(ds.user_ids)
        # every kept item still has at least one rating
        assert np.bincount(a.items, minlength=a.n_items).min() >= 1


def test_repeated_pairs_keep_first_position_and_last_rating():
    # what a dict keyed by the pair keeps: its first position, its last value
    rng = np.random.default_rng(7)
    rows = [(f"u{u}", f"i{i}", float(r)) for u, i, r in zip(rng.integers(0, 6, 300), rng.integers(0, 8, 300),
                                                            rng.integers(0, 11, 300))]
    cells = {}
    for u, i, r in rows:
        cells[(u, i)] = r
    ds = make_dataset(rows)
    got = [(ds.user_ids[u], ds.item_ids[i], r) for u, i, r in zip(ds.users, ds.items, ds.ratings.tolist())]
    assert got == [(u, i, r) for (u, i), r in cells.items()]
    assert ds.user_ids == list(dict.fromkeys(u for u, _, _ in rows))
    assert ds.item_ids == list(dict.fromkeys(i for _, i, _ in rows))


class TestDelimiter:
    def test_empty_delimiter_rejected_before_the_source_opens(self, tmp_path):
        for source in ([], ["1\t5\t4.0"], tmp_path / "missing.tsv"):
            with pytest.raises(ValueError, match="empty delimiter ''"):
                parse_ratings(source, delimiter="")

    def test_tokenizer_entry_checks_its_arguments(self, kernel_backend):
        # the compiled loop reads the delimiter's first byte unchecked
        for data, delimiter, error in ((b"u\ti\t4\n", "", ValueError), ("u\ti\t4\n", "\t", TypeError),
                                       (bytearray(b"u\ti\t4\n"), "\t", TypeError), (b"u\ti\t4\n", b"\t", TypeError)):
            with pytest.raises(error):
                kernel_backend.tokenize(data, delimiter, False)

    def test_non_ascii_delimiter_takes_the_line_loop(self, tmp_path):
        path = tmp_path / "box.txt"
        path.write_text("u1│i1│4.0\nu2│i1│3.5│x\n", encoding="utf-8")
        assert kernels.tokenize(path.read_bytes(), "│", False) is None
        ds = parse_ratings(path, delimiter="│")
        assert (ds.user_ids, ds.item_ids, ds.ratings.tolist()) == (["u1", "u2"], ["i1"], [4.0, 3.5])


def _parse_outcome(path: Path, **kwargs):
    """What `parse_ratings` makes of the file: the ids, the arrays' bytes,
    the scale and the warnings logged, or the error's type and text."""
    messages = []
    handler = logging.Handler()
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger("cobar.data")
    logger.addHandler(handler)
    try:
        ds = parse_ratings(path, **kwargs)
    except (ParseError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    finally:
        logger.removeHandler(handler)
    return (ds.user_ids, ds.item_ids, ds.users.tobytes(), ds.items.tobytes(), ds.ratings.tobytes(),
            ds.rating_min, ds.rating_max, messages)


def _both_paths(path: Path, compiled, **kwargs):
    """The outcome of the line loop and of the compiled tokenizer on the
    file, and whether the tokenizer read the file itself."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "_loops", _python)
        loop = _parse_outcome(path, **kwargs)
        patch.setattr(kernels, "_loops", compiled)
        tokenized = _parse_outcome(path, **kwargs)
        delimiter = kwargs.get("delimiter", "\t")
        taken = kernels.tokenize(path.read_bytes(), DELIMITER_ALIASES.get(delimiter, delimiter),
                                 kwargs.get("skip_header", False)) is not None
    return loop, tokenized, taken


# (file bytes, parse_ratings keywords, whether the tokenizer reads the file)
PATH_CASES = {
    "bom": (b"\xef\xbb\xbfu1\ti1\t4.0\nu1\ti2\t3\n", {}, True),
    "bom-only-line": (b"\xef\xbb\xbf\nu1\ti1\t4.0\n", {}, True),
    "crlf": (b"u1\ti1\t4.0\r\nu2\ti1\t3\r\n\r\n", {}, True),
    "lone-cr": (b"u1\ti1\t4.0\ru2\ti1\t3\n", {}, False),
    "cr-at-end": (b"u1\ti1\t4.0\nu2\ti1\t3\r", {}, False),
    "cr-cr-lf": (b"u1\ti1\t4.0\r\r\nu2\ti1\t3\n", {}, False),
    "blank-lines": (b"\nu1\ti1\t4\n \t\x0b\x0c\x1c\x1d\x1e\x1f\n\n   \nu2\ti1\t3", {}, True),
    "header": (b"user\titem\trating\nu1\ti1\t4\n", {"skip_header": True}, True),
    "short-header": (b"header\nu1\ti1\t4\n", {"skip_header": True}, True),
    "blank-header": (b"\nu1\ti1\t4\n", {"skip_header": True}, True),
    "header-is-a-record": (b"u1\ti1\t4\nu2\ti1\t3\n", {"skip_header": True}, True),
    "non-ascii-header": ("usér\titem\trating\nu1\ti1\t4\n".encode(), {"skip_header": True}, False),
    "double-colon": (b"u1::i1::4.0::99\nu1:::i2::3\nu2::::i1::2\n", {"delimiter": "::"}, False),
    "double-colon-ok": (b"u1::i1::4.0::99\nu1:::i2::3\nu2:: :i1::2\n", {"delimiter": "::"}, True),
    "space": (b"u1 i1 4.0\nu2 i1 3.5 extra\n", {"delimiter": "space"}, True),
    "doubled-space": (b"u1 i1 4.0\nu1  i2 3.5\n", {"delimiter": "space"}, False),
    "comma": (b"u1,i1,4.0\nu2,i1,\t3.5 ,x\n", {"delimiter": "comma"}, True),
    "extra-fields": (b"u1\ti1\t4.0\t881250949\tmore\nu1\ti2\t3\t\t\n", {}, True),
    "repeated-pairs": (b"u1\ti1\t4\nu2\ti1\t3\nu1\ti1\t2\nu1\ti2\t5\nu1\ti1\t1\nu2\ti1\t0.5\n", {}, True),
    "signs-and-points": (b"u1\ti1\t+4\nu1\ti2\t.5\nu1\ti3\t5.\nu1\ti4\t1e0\nu1\ti5\t-2.5E+1\nu1\ti6\t-0\n", {}, True),
    "spaced-rating": (b"u1\ti1\t 4.5 \nu1\ti2\t\x0b3\x0c\n", {}, True),
    "underscore": (b"u1\ti1\t4\nu1\ti2\t1_0\n", {}, False),
    "nan": (b"u1\ti1\t4\nu1\ti2\tnan\n", {}, False),
    "inf": (b"u1\ti1\t4\nu1\ti2\t-inf\n", {}, False),
    "overflow": (b"u1\ti1\t4\nu1\ti2\t1e999\n", {}, False),
    "underflow": (b"u1\ti1\t4\nu1\ti2\t1e-999\n", {}, True),
    "long-rating": (b"u1\ti1\t4.0" + b"0" * 80 + b"1\nu1\ti2\t3\n", {}, True),
    "longest-short-rating": (b"u1\ti1\t4." + b"0" * 60 + b"1\n", {}, True),
    "300-digit-rating": (b"u1\ti1\t4." + b"0" * 300 + b"1\nu1\ti2\t3\n", {}, True),
    # the parser reads on through a delimiter that extends the number, and
    # stops at a NUL inside the token as at the NUL that ends the bytes
    "exponent-delimiter": (b"u1ei1e4.5e7\n", {"delimiter": "e"}, False),
    "digit-delimiter": (b"u5i54.55\n", {"delimiter": "5"}, False),
    "nul-after-rating": (b"u1\ti1\t4\x00\n", {}, False),
    "unterminated-last-line": (b"u1\ti1\t4\nu2\ti1\t-3.25e-1", {}, True),
    "many-digits": (b"u1\ti1\t0.1000000000000000055511151231257827\n", {}, True),
    "lone-point": (b"u1\ti1\t.\n", {}, False),
    "bare-exponent": (b"u1\ti1\t5e\n", {}, False),
    "hex": (b"u1\ti1\t0x10\n", {}, False),
    "empty-rating": (b"u1\ti1\t\n", {}, False),
    "fs-padded-rating": (b"u1\ti1\t\x1c4\n", {}, False),
    "fs-padded-ids": (b"\x1cu1\x1f\t\x1d i1\x1e\t4\nu1\ti1\t2\n", {}, True),
    "tab-padded-ids": (b"\tu1\t::\t i1\t::4\n", {"delimiter": "::"}, True),
    "empty-user": (b"u1\ti1\t4\n\ti1\t4\n", {}, False),
    "blank-item": (b"u1\ti1\t4\nu1\t\x1c \t4\n", {}, False),
    "short-line": (b"u1\ti1\t4\nu1\ti1\n", {}, False),
    "one-field": (b"u1\ti1\t4\nu1\n", {}, False),
    "non-ascii-id": ("u1\ti1\t4\nJosé\ti1\t3\n".encode(), {}, False),
    "non-utf8": (b"u1\ti1\t4\nJos\xe9\ti1\t3\n", {}, False),
    "bad-last-line": (b"u1\ti1\t4\nu2\ti1\tx", {}, False),
    "nul-in-id": (b"u\x001\ti1\t4\n", {}, True),
    "control-in-id": (b"u\x0b1\ti\x071\t4\n", {}, True),
    "empty": (b"", {}, True),
    "blank-only": (b"\n \n\t\r\n", {}, True),
    "header-only": (b"user\titem\trating\n", {"skip_header": True}, True),
}


class TestParsePathsAgree:
    """The compiled tokenizer and the line loop read every file to the same
    dataset, warnings included, or fail with the same error."""

    @pytest.mark.parametrize("case", list(PATH_CASES))
    def test_case(self, case, tmp_path, compiled_kernels):
        data, kwargs, taken = PATH_CASES[case]
        path = tmp_path / "ratings.txt"
        path.write_bytes(data)
        loop, tokenized, tokenizer_read = _both_paths(path, compiled_kernels, **kwargs)
        assert tokenized == loop
        assert tokenizer_read == taken

    @pytest.mark.parametrize("name", ["demo.tsv", "two_clusters.tsv"])
    def test_fixture_files(self, name, data_dir, compiled_kernels):
        loop, tokenized, tokenizer_read = _both_paths(data_dir / name, compiled_kernels)
        assert tokenized == loop and tokenizer_read

    @pytest.mark.parametrize("shape", ["ft", "cap"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_benchmark_files(self, shape, seed, tmp_path, compiled_kernels):
        datagen = load_datagen()
        path = tmp_path / f"{shape}-{seed}.tsv"
        datagen.write_rating_file(path, datagen.SHAPES[shape], seed)
        loop, tokenized, tokenizer_read = _both_paths(path, compiled_kernels)
        assert tokenized == loop and tokenizer_read

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        lines=st.lists(st.tuples(
            st.lists(st.sampled_from(["u1", "u2", " i1", "i2\t", "\x1cu1", "", " ", "José", "x::y"]),
                     min_size=1, max_size=5),
            st.sampled_from(["4", "+4", ".5", "5.", "1e0", "-2.5E+1", " 3 ", "1_0", "nan", "1e999", "x", "",
                             "\x1c4", "4." + "0" * 70, "4." + "0" * 300]),
            st.sampled_from(["\n", "\r\n", "\r", ""]),
        ), max_size=8),
        delimiter=st.sampled_from(["\t", "::", " ", ","]),
        skip_header=st.booleans(),
        bom=st.booleans(),
    )
    def test_fuzz(self, lines, delimiter, skip_header, bom, tmp_path, compiled_kernels):
        text = "".join(delimiter.join(ids[:2] + [rating] + ids[2:]) + end for ids, rating, end in lines)
        path = tmp_path / "fuzz.txt"
        path.write_bytes((b"\xef\xbb\xbf" if bom else b"") + text.encode())
        loop, tokenized, _ = _both_paths(path, compiled_kernels, delimiter=delimiter, skip_header=skip_header)
        assert tokenized == loop


# a child process of `TestReadOnce`: parses each path on the compiled
# extension named, or on the numpy loops when none is, and prints the
# outcomes pickled, as `_parse_outcome` gives them without the warnings
_READER = """
import importlib.util, pickle, sys
from cobar import ParseError, kernels, parse_ratings
from cobar.kernels import _python

extension, *paths = sys.argv[1:]
kernels._loops = _python
if extension:
    spec = importlib.util.spec_from_file_location("cobar.kernels._compiled", extension)
    kernels._loops = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(kernels._loops)
outcomes = []
for path in paths:
    try:
        ds = parse_ratings(path)
    except ParseError as exc:
        outcomes.append(("ParseError", str(exc)))
    else:
        outcomes.append((ds.user_ids, ds.item_ids, ds.users.tobytes(), ds.items.tobytes(), ds.ratings.tobytes(),
                         ds.rating_min, ds.rating_max))
sys.stdout.buffer.write(pickle.dumps(outcomes))
"""

# writes the file named first into the FIFO named second, or to stdout
_WRITER = """
import sys
data = open(sys.argv[1], "rb").read()
(open(sys.argv[2], "wb") if len(sys.argv) > 2 else sys.stdout.buffer).write(data)
"""

# long enough for a child to start and parse a few hundred kilobytes
READ_TIMEOUT_S = 30


class TestReadOnce:
    """`parse_ratings` opens a path once, so a source that can be read once
    parses as the regular file does: a named FIFO, which a second open
    would wait on for a writer that never comes, and a pipe passed as
    ``/dev/fd/N``, as ``--data <(cat f)`` passes it, which a second open
    would find drained."""

    @pytest.mark.parametrize("kind", ["fifo", "pipe"])
    def test_read_once_sources_parse_as_the_file(self, kind, kernel_backend, tmp_path):
        if kind == "fifo" and not hasattr(os, "mkfifo"):
            pytest.skip("os.mkfifo is missing")
        if kind == "pipe" and not Path("/dev/fd").is_dir():
            pytest.skip("no /dev/fd to name a pipe by")
        datagen = load_datagen()
        files = {"tokenized": tmp_path / "ft-1.tsv"}
        datagen.write_rating_file(files["tokenized"], datagen.SHAPES["ft"], 1)
        for name, data in (("non-ascii-id", PATH_CASES["non-ascii-id"][0]), ("lone-cr", PATH_CASES["lone-cr"][0]),
                           ("non-utf8", _latin1_file())):
            files[name] = tmp_path / f"{name}.tsv"
            files[name].write_bytes(data)
        compiled = kernels._loops is not _python
        if compiled:
            assert kernels.tokenize(files["tokenized"].read_bytes(), "\t", False) is not None
        assert kernels.tokenize(files["non-ascii-id"].read_bytes(), "\t", False) is None

        writers, sources, fds = [], [], []
        try:
            for name, path in files.items():
                if kind == "fifo":
                    source = tmp_path / f"{name}.fifo"
                    os.mkfifo(source)
                    writers.append(subprocess.Popen([sys.executable, "-c", _WRITER, str(path), str(source)]))
                else:
                    writer = subprocess.Popen([sys.executable, "-c", _WRITER, str(path)], stdout=subprocess.PIPE)
                    writers.append(writer)
                    fds.append(writer.stdout.fileno())
                    source = f"/dev/fd/{fds[-1]}"
                sources.append(str(source))
            extension = kernels._loops.__file__ if compiled else ""
            environ = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
            try:
                out = subprocess.run([sys.executable, "-c", _READER, extension, *sources], env=environ,
                                     capture_output=True, pass_fds=fds, timeout=READ_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                out = None
        finally:
            for writer in writers:
                writer.kill()
                writer.wait()
                if writer.stdout:
                    writer.stdout.close()
        assert out is not None, f"parse_ratings did not return within {READ_TIMEOUT_S} s: it opened a {kind} twice"
        assert out.returncode == 0, out.stderr.decode()
        outcomes = dict(zip(files, pickle.loads(out.stdout)))
        for name, path in files.items():
            # the file's outcome without the warnings, which the child drops
            assert outcomes[name] == _parse_outcome(path)[:7], name
        assert outcomes["non-utf8"] == ("ParseError", LATIN1_ERROR)
