"""Backend dispatch of the hot kernels, and agreement and input checking
of the two backends of the Ward loop and of the MF epoch."""

import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from cobar import kernels
from cobar.kernels import _python
from conftest import REPO_ROOT
from oracles import condensed, ward_reference


def _random_sq_dist(rng, n):
    d = rng.uniform(0.0, 2.0, size=(n, n))
    d = np.triu(d, 1)
    d = d + d.T
    return d**2


def _tie_heavy_sq_dist(rng, n):
    """Symmetric squared distances on a quarter grid with few levels, so
    many pairs, and many Ward updates, tie exactly."""
    levels = int(rng.integers(1, 9))
    d = np.triu(rng.integers(0, levels, size=(n, n)) / 4.0, 1)
    return d + d.T


def _kernels_in_fresh_process(pythonpath):
    """BACKEND and the modules of the two kernels, as a new interpreter that
    imports cobar from `pythonpath` sees them."""
    environ = dict(os.environ, PYTHONPATH=str(pythonpath))
    code = (
        "import cobar.kernels as k; "
        "print(k.BACKEND, k.mf_sgd_epoch.__module__, k.ward_linkage.__module__)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=environ, capture_output=True, text=True, check=True)
    return out.stdout.split()


class TestDispatch:
    def test_backend_reported(self):
        assert kernels.BACKEND in ("python", "c")
        expected = kernels._compiled if kernels.BACKEND == "c" else _python
        assert kernels.mf_sgd_epoch is expected.mf_sgd_epoch
        assert kernels.ward_linkage is expected.ward_linkage

    def test_built_extension_selected(self, compiled_build, tmp_path):
        # the package as installed: sources plus the extension beside them
        pkg = tmp_path / "cobar"
        shutil.copytree(REPO_ROOT / "src" / "cobar", pkg, ignore=shutil.ignore_patterns("*.so", "*.pyd"))
        for ext in (compiled_build / "cobar" / "kernels").glob("_compiled*"):
            shutil.copy(ext, pkg / "kernels")
        assert _kernels_in_fresh_process(tmp_path) == ["c", "cobar.kernels._compiled", "cobar.kernels._compiled"]

    def test_stale_extension_rejected(self):
        # an extension built from older source: it imports, but holds only
        # the MF epoch
        code = (
            "import sys, types; "
            "stub = types.ModuleType('cobar.kernels._compiled'); "
            "stub.__file__ = '/old/build/_compiled.so'; "
            "stub.mf_sgd_epoch = print; "
            "sys.modules['cobar.kernels._compiled'] = stub; "
            "import cobar"
        )
        environ = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        out = subprocess.run([sys.executable, "-c", code], env=environ, capture_output=True, text=True)
        assert out.returncode != 0
        last = out.stderr.strip().splitlines()[-1]
        assert last == (
            "ImportError: stale extension /old/build/_compiled.so lacks ward_linkage; "
            "rebuild it with: python setup.py build_ext --inplace --force"
        )


class TestWardKernel:
    def test_n_equals_one(self, ward_linkage):
        merges, heights = ward_linkage(np.zeros(0))
        assert merges.shape == (0, 2) and heights.shape == (0,)

    def test_monotone_heights(self, ward_linkage):
        rng = np.random.default_rng(71)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            _, heights = ward_linkage(condensed(_random_sq_dist(rng, n)))
            assert np.all(np.diff(heights) >= 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entry(self, ward_linkage, bad):
        d2 = np.array([1.0, 4.0, 2.0])   # pairs (0, 1), (0, 2), (1, 2)
        d2[1] = bad
        with pytest.raises(ValueError, match="finite and nonnegative"):
            ward_linkage(d2)

    def test_rejects_negative_entry(self, ward_linkage):
        # without the check this gives heights [-1.0, 2.33]
        d2 = np.array([1.0, -1.0, 2.0])
        with pytest.raises(ValueError, match="finite and nonnegative"):
            ward_linkage(d2)

    def test_bit_identical_to_reference_on_ties(self, ward_linkage):
        rng = np.random.default_rng(74)
        cases = [_tie_heavy_sq_dist(rng, int(rng.integers(2, 41))) for _ in range(200)]
        for n in (2, 3, 7, 40):
            cases.append(np.ones((n, n)) - np.eye(n))   # every pair equal
            cases.append(np.zeros((n, n)))
        for _ in range(30):
            # duplicate rows: points repeated, so zero distances and
            # identical Ward updates
            n = int(rng.integers(2, 41))
            base = _tie_heavy_sq_dist(rng, int(rng.integers(1, n + 1)))
            pick = rng.integers(0, len(base), size=n)
            d2 = base[np.ix_(pick, pick)]
            np.fill_diagonal(d2, 0.0)
            cases.append(d2)
        for d2 in cases:
            merges, heights = ward_linkage(condensed(d2))
            ref_merges, ref_heights = ward_reference(d2)
            assert np.array_equal(merges, ref_merges)
            assert np.array_equal(heights, ref_heights)

    def test_merge_ids_form_a_tree(self, ward_linkage):
        rng = np.random.default_rng(72)
        n = 15
        merges, _ = ward_linkage(condensed(_random_sq_dist(rng, n)))
        children = merges.ravel().tolist()
        assert len(children) == len(set(children))        # merged away once
        assert set(children) <= set(range(2 * n - 2))     # root never merged
        assert merges.shape == (n - 1, 2)


def _read_only(d2):
    d2.setflags(write=False)
    return d2


class TestWardChecksInputs:
    """Both Ward loops reject bad input before they read or write it, with
    the same exception type and message."""

    @pytest.mark.parametrize("make, error", [
        (lambda: [1.0, 4.0, 2.0], TypeError),
        (lambda: np.array([1.0, 4.0, 2.0], dtype=np.float32), TypeError),
        (lambda: np.array([1, 4, 2]), TypeError),
        (lambda: np.zeros((3, 3)), ValueError),
        (lambda: np.arange(6.0)[::2], ValueError),
        (lambda: _read_only(np.array([1.0, 4.0, 2.0])), ValueError),
        (lambda: np.ones(4), ValueError),
        (lambda: np.array([1.0, np.nan, 2.0]), ValueError),
        (lambda: np.array([1.0, np.inf, 2.0]), ValueError),
        (lambda: np.array([1.0, -1.0, 2.0]), ValueError),
    ], ids=["list", "float32", "int64", "2-d", "strided", "read-only", "length-4", "nan", "inf", "negative"])
    def test_bad_input_rejected_alike(self, compiled_kernels, make, error):
        messages = []
        for backend in (_python, compiled_kernels):
            with pytest.raises(error) as exc:
                backend.ward_linkage(make())
            messages.append(str(exc.value))
        assert messages[0] == messages[1]


def _mf_problem(seed=15, n_u=20, n_i=15, n_r=120, f=6):
    rng = np.random.default_rng(seed)
    return {
        "users": rng.integers(0, n_u, n_r).astype(np.int32),
        "items": rng.integers(0, n_i, n_r).astype(np.int32),
        "ratings": rng.uniform(1, 5, n_r),
        "order": rng.permutation(n_r),
        "user_factors": rng.normal(0, 0.1, (n_u, f)),
        "item_factors": rng.normal(0, 0.1, (n_i, f)),
        "user_bias": np.zeros(n_u),
        "item_bias": np.zeros(n_i),
        "global_mean": 3.0,
        "learning_rate": 0.01,
        "regularization": 0.015,
    }


class TestMfKernel:
    def test_updates_match_manual_step(self, kernel_backend):
        # one rating, one factor: the update is easy to write out by hand
        users = np.array([0], dtype=np.int32)
        items = np.array([0], dtype=np.int32)
        ratings = np.array([4.0])
        order = np.array([0], dtype=np.int64)
        p = np.array([[0.5]])
        q = np.array([[0.25]])
        bu = np.zeros(1)
        bi = np.zeros(1)
        mu, lr, reg = 3.0, 0.1, 0.05
        err = 4.0 - (mu + 0.0 + 0.0 + 0.5 * 0.25)
        kernel_backend.mf_sgd_epoch(users, items, ratings, order, p, q, bu, bi, mu, lr, reg)
        assert bu[0] == pytest.approx(lr * err, abs=1e-15)
        assert bi[0] == pytest.approx(lr * err, abs=1e-15)
        assert p[0, 0] == pytest.approx(0.5 + lr * (err * 0.25 - reg * 0.5), abs=1e-15)
        assert q[0, 0] == pytest.approx(0.25 + lr * (err * 0.5 - reg * 0.25), abs=1e-15)

    def test_backends_track_each_other(self, compiled_kernels):
        states = []
        for kernel in (_python.mf_sgd_epoch, compiled_kernels.mf_sgd_epoch):
            args = _mf_problem()
            for _ in range(5):
                kernel(**args)
            states.append([args[name] for name in ("user_factors", "item_factors", "user_bias", "item_bias")])
        for a, b in zip(states[0], states[1]):
            np.testing.assert_allclose(a, b, atol=1e-10)

    @pytest.mark.parametrize("name, position", [("order", 7), ("users", 3), ("items", 3)])
    def test_out_of_range_index_raises(self, kernel_backend, name, position):
        args = _mf_problem()
        bound = {"order": len(args["ratings"]), "users": 20, "items": 15}[name]
        if name == "order":
            args["order"][position] = bound
        else:
            args[name][args["order"][position]] = bound
        with pytest.raises(IndexError):
            kernel_backend.mf_sgd_epoch(**args)

    def test_negative_index_raises(self, kernel_backend):
        # numpy indexing would wrap -1 around to the last entry
        for name in ("order", "users", "items"):
            args = _mf_problem()
            if name == "order":
                args["order"][0] = -1
            else:
                args[name][args["order"][0]] = -1
            before = {key: args[key].copy() for key in ("user_factors", "item_factors", "user_bias", "item_bias")}
            with pytest.raises(IndexError):
                kernel_backend.mf_sgd_epoch(**args)
            for key, value in before.items():   # failed on the first step
                np.testing.assert_array_equal(args[key], value)


class TestCompiledMfChecksInputs:
    """The compiled epoch rejects bad arrays before it reads or writes them."""

    @pytest.mark.parametrize("name, value, error", [
        ("users", lambda a: a.astype(np.int64), TypeError),
        ("order", lambda a: a.astype(np.int32), TypeError),
        ("ratings", lambda a: a.astype(np.float32), TypeError),
        ("ratings", lambda a: a.tolist(), TypeError),
        ("user_factors", lambda a: np.asfortranarray(a), ValueError),
        ("item_factors", lambda a: a[:, ::2], ValueError),
        ("user_bias", lambda a: a.reshape(-1, 1), ValueError),
        ("item_factors", lambda a: a.ravel(), ValueError),
        ("item_bias", lambda a: a[:-1], ValueError),
        ("items", lambda a: a[:-1], ValueError),
        ("ratings", lambda a: a[:-1], ValueError),
    ])
    def test_bad_array_rejected(self, compiled_kernels, name, value, error):
        args = _mf_problem()
        args[name] = value(args[name])
        with pytest.raises(error):
            compiled_kernels.mf_sgd_epoch(**args)

    @pytest.mark.parametrize("name", ["user_factors", "item_factors", "user_bias", "item_bias"])
    def test_read_only_output_rejected(self, compiled_kernels, name):
        args = _mf_problem()
        args[name].setflags(write=False)
        with pytest.raises(ValueError, match="writable"):
            compiled_kernels.mf_sgd_epoch(**args)
