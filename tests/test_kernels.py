"""Backend dispatch of the hot kernels, the input checks of their one
checked entry over both backends, and agreement of the two backends of the
Ward loop and of the MF epoch."""

import ast
import os
import shutil
import subprocess
import sys
import tracemalloc

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
    """BACKEND and the module of the loops behind the checked entries, as a
    new interpreter that imports cobar from `pythonpath` sees them."""
    environ = dict(os.environ, PYTHONPATH=str(pythonpath))
    code = (
        "import cobar.kernels as k; "
        "print(k.BACKEND, k._loops.__name__)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=environ, capture_output=True, text=True, check=True)
    return out.stdout.split()


class TestDispatch:
    def test_backend_reported(self):
        assert kernels.BACKEND in ("python", "c")
        assert kernels._loops is (kernels._compiled if kernels.BACKEND == "c" else _python)
        # one checked entry per kernel, whichever loops run behind it
        assert kernels.ward_linkage.__module__ == kernels.mf_sgd_epoch.__module__ == "cobar.kernels"

    def test_built_extension_selected(self, compiled_build, tmp_path):
        # the package as installed: sources plus the extension beside them
        pkg = tmp_path / "cobar"
        shutil.copytree(REPO_ROOT / "src" / "cobar", pkg, ignore=shutil.ignore_patterns("*.so", "*.pyd"))
        for ext in (compiled_build / "cobar" / "kernels").glob("_compiled*"):
            shutil.copy(ext, pkg / "kernels")
        assert _kernels_in_fresh_process(tmp_path) == ["c", "cobar.kernels._compiled"]

    def test_stale_extension_rejected(self):
        # an extension built from older source: it imports, but holds the
        # checked kernels of before, not the bare loops
        code = (
            "import sys, types; "
            "stub = types.ModuleType('cobar.kernels._compiled'); "
            "stub.__file__ = '/old/build/_compiled.so'; "
            "stub.ward_linkage = stub.mf_sgd_epoch = print; "
            "sys.modules['cobar.kernels._compiled'] = stub; "
            "import cobar"
        )
        environ = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        out = subprocess.run([sys.executable, "-c", code], env=environ, capture_output=True, text=True)
        assert out.returncode != 0
        last = out.stderr.strip().splitlines()[-1]
        assert last == (
            "ImportError: stale extension /old/build/_compiled.so lacks ward_loop, sgd_epoch; "
            "rebuild it with: python setup.py build_ext --inplace --force"
        )

    def test_only_the_entry_imports_the_loops(self):
        # every caller goes through the checked entries of cobar.kernels
        package = REPO_ROOT / "src" / "cobar"
        importers = set()
        for path in package.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [f"{node.module or ''}.{alias.name}" for alias in node.names]
                else:
                    continue
                if any(part in ("_compiled", "_python") for name in names for part in name.split(".")):
                    importers.add(path.relative_to(package).as_posix())
        assert importers == {"kernels/__init__.py"}


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


class TestNumpyWardMemory:
    def test_view_input_costs_one_work_matrix(self, monkeypatch):
        # the numpy loop fills its n x n work matrix row by row from d2, so a
        # d2 that is a view into a larger buffer is not copied first
        monkeypatch.setattr(kernels, "_loops", _python)
        n = 400
        buffer = np.empty(n * (n - 1) // 2 + 1)
        d2 = buffer[1:]
        d2[:] = condensed(_random_sq_dist(np.random.default_rng(75), n))
        assert d2.base is buffer
        tracemalloc.start()
        try:
            kernels.ward_linkage(d2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 8 * n * n


def _read_only(d2):
    d2.setflags(write=False)
    return d2


class TestWardChecksInputs:
    """The checked Ward entry rejects bad input before either backend's loop
    reads or writes it, with the same exception type and message."""

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
    def test_bad_input_rejected_alike(self, each_backend, make, error):
        messages = []
        for _ in each_backend:
            with pytest.raises(error) as exc:
                kernels.ward_linkage(make())
            messages.append(str(exc.value))
        assert len(messages) == 2 and messages[0] == messages[1]


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


_OUTPUTS = ("user_factors", "item_factors", "user_bias", "item_bias")


def _written(args):
    return {key: args[key].copy() for key in _OUTPUTS}


def _assert_unchanged(args, before):
    for key, value in before.items():
        np.testing.assert_array_equal(args[key], value)


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

    def test_backends_track_each_other(self, each_backend):
        states = []
        for _ in each_backend:
            args = _mf_problem()
            for _ in range(5):
                kernels.mf_sgd_epoch(**args)
            states.append([args[name] for name in _OUTPUTS])
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
            before = _written(args)
            with pytest.raises(IndexError):
                kernel_backend.mf_sgd_epoch(**args)
            _assert_unchanged(args, before)   # failed before the first step


class TestCompiledMfChecksInputs:
    """The checked MF entry rejects bad arrays before either backend's epoch
    reads or writes them."""

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
    def test_bad_array_rejected(self, each_backend, name, value, error):
        for _ in each_backend:
            args = _mf_problem()
            args[name] = value(args[name])
            before = _written(args)
            with pytest.raises(error):
                kernels.mf_sgd_epoch(**args)
            _assert_unchanged(args, before)

    @pytest.mark.parametrize("name", ["user_factors", "item_factors", "user_bias", "item_bias"])
    def test_read_only_output_rejected(self, each_backend, name):
        for _ in each_backend:
            args = _mf_problem()
            args[name].setflags(write=False)
            with pytest.raises(ValueError, match="writable"):
                kernels.mf_sgd_epoch(**args)


class TestCompiledLoopsTakeBuffers:
    """The compiled loops check no shape, type or index, but their buffer
    codes still refuse a read-only or non-contiguous array on a direct
    call."""

    def test_ward_loop_refuses_read_only(self, compiled_kernels):
        d2 = _read_only(np.array([1.0, 4.0, 2.0]))
        with pytest.raises(TypeError, match="read-write"):
            compiled_kernels.ward_loop(d2, np.empty((2, 2), dtype=np.int64), np.empty(2))

    @pytest.mark.parametrize("name, value, error", [
        ("ratings", lambda a: np.repeat(a, 2)[::2], ValueError),
        ("user_factors", np.asfortranarray, TypeError),
        ("item_bias", _read_only, TypeError),
    ], ids=["strided-input", "fortran-output", "read-only-output"])
    def test_sgd_epoch_refuses(self, compiled_kernels, name, value, error):
        args = _mf_problem()
        args[name] = value(args[name])
        before = _written(args)
        with pytest.raises(error):
            compiled_kernels.sgd_epoch(*args.values())
        _assert_unchanged(args, before)
