"""The dataset's checks, parsing, statistics, fold splits and subsampling."""

import os
import subprocess
import sys

import numpy as np
import pytest

from cobar import (
    CobarModel,
    ParseError,
    RatingDataset,
    compute_user_stats,
    fold_train_test,
    kfold_split,
    parse_ratings,
    subsample_users,
)
from cobar.data import csr_rows
from conftest import REPO_ROOT, make_dataset, random_grid_dataset


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
        # the bad byte lies past the text reader's first chunk, whose decode
        # error gives only a position in that chunk
        lines = [f"u{n % 50}\ti{n % 97}\t{n % 9 / 2 + 0.5}\n".encode() for n in range(5000)]
        lines[3000] = "Jos\u00e9\ti2\t4.0\n".encode("latin-1")
        path = tmp_path / "latin1.tsv"
        path.write_bytes(b"".join(lines))
        with pytest.raises(ParseError) as exc:
            parse_ratings(path)
        assert str(exc.value) == "line 3001: 'utf-8' codec can't decode byte 0xe9 in position 3: invalid continuation byte"

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
