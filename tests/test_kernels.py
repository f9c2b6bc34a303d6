"""Backend dispatch of the hot kernels, the input checks of their one
checked entry over both backends, and agreement of the two backends of the
Ward loop, the MF epoch and the kNN query."""

import array
import ast
import contextlib
import gc
import os
import re
import shutil
import subprocess
import sys
import sysconfig
import time
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest

from cobar import ItemKnn, KnnConfig, RatingDataset, UserKnn, agglomerate, kernels, kfold_split
from cobar.clustering import Dendrogram, clusterable_users
from cobar.data import fold_train_test
from cobar.kernels import _python
from conftest import (RATING_SCALES, REPO_ROOT, SPLIT_FLOOR, benchmark_dataset, c_compiler_found, make_dataset,
                      random_grid_dataset)
from oracles import ancestor_chain_reference, condensed, ward_reference


def _random_dist(rng, n):
    d = rng.uniform(0.0, 2.0, size=(n, n))
    d = np.triu(d, 1)
    return d + d.T


def _tie_heavy_dist(rng, n):
    """Symmetric distances on a quarter grid with few levels, whose squares
    are exact, so many pairs, and many Ward updates, tie exactly."""
    levels = int(rng.integers(1, 9))
    d = np.triu(rng.integers(0, levels, size=(n, n)) / 4.0, 1)
    return d + d.T


def _reference(d):
    """The merges and heights of `ward_reference` on the squares of the
    square distance matrix `d`, the heights as distances."""
    merges, heights = ward_reference(d * d)
    return merges, np.sqrt(heights)


def _compiled_slots(merges):
    """The slots (lo, i, j) of each merge as the compiled Ward loop takes
    them: its active clusters sit in slots lo..n-1, and merge lo joins the
    clusters of slots i < j into slot j and moves slot lo into slot i,
    unless i is lo."""
    n = len(merges) + 1
    slot, at = {r: r for r in range(n)}, list(range(n))
    for lo, (x, y) in enumerate(merges.tolist()):
        i, j = sorted((slot[x], slot[y]))
        yield lo, i, j
        slot[n + lo], at[j] = j, n + lo
        if i != lo:
            slot[at[lo]], at[i] = i, at[lo]


def _compaction_cases(rng):
    """Distance matrices, with their expected first slots (lo, i, j), whose
    first merge takes each path of the compiled loop's compaction: i is lo,
    so nothing moves (0, 1 and 0, n-1), or slot lo moves into i (2, 5),
    also with j the last slot (2, n-1 and n-2, n-1).  n = 33, 65 and 130
    put lo across block boundaries, and n = 200 starts its two-thread
    merges with the split a block or more above lo's block."""
    cases = []
    for n in (33, 65, 130, 200):
        for p, q in ((0, 1), (0, n - 1), (2, 5), (2, n - 1), (n - 2, n - 1)):
            # the pair (p, q) strictly nearest; the tie-heavy quarter grid
            # is lifted by 0.25 so that its zeros do not tie with it
            for d in (_random_dist(rng, n) + 0.25, _tie_heavy_dist(rng, n) + 0.25):
                np.fill_diagonal(d, 0.0)
                d[p, q] = d[q, p] = 0.0
                cases.append((d, (0, p, q)))
    return cases


def _assert_compaction_covered(slots):
    """Across the merges of `_compaction_cases`, the compiled loop both
    keeps and moves slot lo, with and without j the last slot, and moves
    slot lo at the first slot of every block of 32 past the first."""
    kinds = {(i == lo, j == n - 1) for n, merges in slots for lo, i, j in merges}
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}
    moved_at = {lo for _, merges in slots for lo, i, _ in merges if i != lo}
    assert {32, 64, 96, 128, 160} <= moved_at


LOOPS = ("ward_loop", "sgd_epoch", "bind_knn_query", "stats_build", "bind_stats_query", "cosine_rows", "tokenize",
         "csr_fill")
EXTENSION = f"_compiled{sysconfig.get_config_var('EXT_SUFFIX')}"
REBUILD = "rebuild it with: python setup.py build_ext --inplace --force"


def _package_copy(parent):
    """The package's sources copied to `parent/cobar`, without any built
    extension; returns the copy."""
    pkg = parent / "cobar"
    shutil.copytree(REPO_ROOT / "src" / "cobar", pkg, ignore=shutil.ignore_patterns("*.so", "*.pyd"))
    return pkg


def _kernels_in_fresh_process(pythonpath):
    """BACKEND, the module of the loops behind the checked entries and the
    loops it holds, as a new interpreter that imports cobar from
    `pythonpath` sees them."""
    environ = dict(os.environ, PYTHONPATH=str(pythonpath))
    code = (
        "import cobar.kernels as k; "
        f"print(k.BACKEND, k._loops.__name__, *(n for n in {LOOPS!r} if hasattr(k._loops, n)))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=environ, capture_output=True, text=True, check=True)
    return out.stdout.split()


class TestDispatch:
    def test_backend_reported(self):
        assert kernels.BACKEND in ("python", "c")
        assert kernels._loops is (kernels._compiled if kernels.BACKEND == "c" else _python)
        # one checked entry per kernel, whichever loops run behind it
        entries = (kernels.cosine_distance_matrix, kernels.ward_linkage, kernels.mf_sgd_epoch, kernels.KnnIndex,
                   kernels.ClusterStatsIndex, kernels.tokenize, kernels.csr_rows)
        assert {entry.__module__ for entry in entries} == {"cobar.kernels"}

    def test_built_extension_selected(self, compiled_build, tmp_path):
        # the package as installed: sources plus the extension beside them
        pkg = _package_copy(tmp_path)
        for ext in (compiled_build / "cobar" / "kernels").glob("_compiled*"):
            shutil.copy(ext, pkg / "kernels")
        assert _kernels_in_fresh_process(tmp_path) == ["c", "cobar.kernels._compiled", *LOOPS]

    def test_stale_extension_rejected(self):
        # extensions built from older source import, but hold the checked
        # kernels of before, or not every loop
        stale = {"ward_linkage, mf_sgd_epoch": ", ".join(LOOPS),
                 "ward_loop, sgd_epoch":
                     "bind_knn_query, stats_build, bind_stats_query, cosine_rows, tokenize, csr_fill",
                 "ward_loop, sgd_epoch, bind_knn_query":
                     "stats_build, bind_stats_query, cosine_rows, tokenize, csr_fill",
                 "ward_loop, sgd_epoch, bind_knn_query, stats_build, bind_stats_query":
                     "cosine_rows, tokenize, csr_fill",
                 # an extension from before the queries were bound
                 "ward_loop, sgd_epoch, knn_query, stats_build, stats_query, cosine_rows":
                     "bind_knn_query, bind_stats_query, tokenize, csr_fill",
                 # an extension from before the tokenizer
                 "ward_loop, sgd_epoch, bind_knn_query, stats_build, bind_stats_query, cosine_rows":
                     "tokenize, csr_fill",
                 # an extension from before the counting sort
                 "ward_loop, sgd_epoch, bind_knn_query, stats_build, bind_stats_query, cosine_rows, tokenize":
                     "csr_fill"}
        for present, missing in stale.items():
            code = (
                "import sys, types; "
                "stub = types.ModuleType('cobar.kernels._compiled'); "
                "stub.__file__ = '/old/build/_compiled.so'; "
                f"stub.{present.replace(', ', ' = stub.')} = print; "
                "sys.modules['cobar.kernels._compiled'] = stub; "
                "import cobar"
            )
            environ = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
            out = subprocess.run([sys.executable, "-c", code], env=environ, capture_output=True, text=True)
            assert out.returncode != 0
            last = out.stderr.strip().splitlines()[-1]
            assert last == f"ImportError: stale extension /old/build/_compiled.so lacks {missing}; {REBUILD}"

    @pytest.mark.parametrize("layout", [None, 1, 2, 3, 4, 5, 6, 8])
    def test_extension_of_another_layout_rejected(self, layout):
        # an extension that has every loop but reads their arguments in
        # another layout, e.g. one built before the cosine pass took int32
        # indices, which it would read as int64 past the arrays' ends, one
        # of layout 2, whose queries took their arrays on every call, one
        # of layout 3, whose n^2 loops took no thread count, one of layout
        # 4, whose Ward loop took squared distances and whose stats build
        # took the gap nodes, one of layout 5, whose queries and stats
        # build read int64 indices and positions, one of layout 6, whose
        # n^2 loops took a thread count and whose kNN query took its two
        # work buffers, or one built from newer source
        code = (
            "import sys, types; "
            "stub = types.ModuleType('cobar.kernels._compiled'); "
            "stub.__file__ = '/old/build/_compiled.so'; "
            + "".join(f"stub.{name} = print; " for name in LOOPS)
            + ("" if layout is None else f"stub.LAYOUT = {layout}; ")
            + "sys.modules['cobar.kernels._compiled'] = stub; "
            "import cobar"
        )
        environ = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        out = subprocess.run([sys.executable, "-c", code], env=environ, capture_output=True, text=True)
        assert out.returncode != 0
        last = out.stderr.strip().splitlines()[-1]
        found = 1 if layout is None else layout
        assert last == (f"ImportError: stale extension /old/build/_compiled.so has argument layout {found}, "
                        f"not {kernels._LAYOUT}; {REBUILD}")

    def test_broken_extension_stops_the_import(self, tmp_path):
        # only a missing extension selects the numpy loops; one that exists
        # but cannot load, here a truncated file, names itself
        pkg = _package_copy(tmp_path)
        assert _kernels_in_fresh_process(tmp_path) == ["python", "cobar.kernels._python", *LOOPS]
        broken = pkg / "kernels" / EXTENSION
        broken.write_bytes(b"\x7fELF")
        environ = dict(os.environ, PYTHONPATH=str(tmp_path))
        out = subprocess.run([sys.executable, "-c", "import cobar"], env=environ, capture_output=True, text=True)
        assert out.returncode != 0
        last = out.stderr.strip().splitlines()[-1]
        assert last == f"ImportError: extension {broken} cannot be loaded; {REBUILD}"

    def test_each_backend_selects_both_on_every_iteration(self, each_backend, compiled_kernels):
        # a test may iterate the fixture once per case
        seen = [(name, kernels._loops) for _ in range(2) for name in each_backend]
        assert seen == [("python", _python), ("c", compiled_kernels)] * 2

    def test_only_the_entry_imports_the_loops(self):
        # every caller goes through the checked entries of cobar.kernels,
        # which call each loop of both backends
        package = REPO_ROOT / "src" / "cobar"
        importers = set()
        called = set()
        for path in package.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "_loops":
                    called.add((path.relative_to(package).as_posix(), node.attr))
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [f"{node.module or ''}.{alias.name}" for alias in node.names]
                else:
                    continue
                if any(part in ("_compiled", "_python") for name in names for part in name.split(".")):
                    importers.add(path.relative_to(package).as_posix())
        assert importers == {"kernels/__init__.py"}
        assert called == {("kernels/__init__.py", name) for name in LOOPS}
        assert all(callable(getattr(_python, name)) for name in LOOPS)


class TestBuild:
    """`setup.py build_ext`: every build compiles the checkout's source, and
    a build without a C compiler still succeeds, on the numpy loops."""

    def test_stale_build_is_recompiled(self, tmp_path):
        if not c_compiler_found():
            pytest.skip("no C compiler found")
        for name in ("setup.py", "pyproject.toml"):
            shutil.copy(REPO_ROOT / name, tmp_path)
        _package_copy(tmp_path / "src")
        # a build directory whose extension is newer than every source, but
        # was built from other source (here, 8 bytes that cannot load)
        build = tmp_path / "build"
        stale = build / "cobar" / "kernels" / EXTENSION
        stale.parent.mkdir(parents=True)
        stale.write_bytes(b"12345678")
        later = time.time() + 3600
        os.utime(stale, (later, later))
        out = subprocess.run(
            [sys.executable, "setup.py", "build_ext", "--inplace", "--build-lib", str(build),
             "--build-temp", str(tmp_path / "tmp")],
            cwd=tmp_path, capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stderr
        assert _kernels_in_fresh_process(tmp_path / "src") == ["c", "cobar.kernels._compiled", *LOOPS]

    @pytest.mark.skipif(os.name != "posix", reason="CC names the compiler of the unix compiler type only")
    def test_failed_inplace_build_warns_once(self, tmp_path):
        # the fallback warning names the compiler failure, and no second
        # warning follows about the extension an in-place build cannot copy
        for name in ("setup.py", "pyproject.toml"):
            shutil.copy(REPO_ROOT / name, tmp_path)
        _package_copy(tmp_path / "src")
        out = subprocess.run(
            [sys.executable, "setup.py", "build_ext", "--inplace", "--build-temp", str(tmp_path / "tmp")],
            cwd=tmp_path, env=dict(os.environ, CC=str(tmp_path / "no-such-cc")), capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stderr
        warned = [line for line in out.stderr.splitlines() if "UserWarning" in line and "fallback" in line]
        assert len(warned) == 1, out.stderr
        assert str(tmp_path / "no-such-cc") in warned[0]
        assert _kernels_in_fresh_process(tmp_path / "src")[:2] == ["python", "cobar.kernels._python"]

    @pytest.mark.skipif(os.name != "posix", reason="CC names the compiler of the unix compiler type only")
    def test_build_without_compiler_falls_back(self, tmp_path):
        out = subprocess.run(
            [sys.executable, "setup.py", "build_ext", "--build-lib", str(tmp_path / "lib"),
             "--build-temp", str(tmp_path / "tmp")],
            cwd=REPO_ROOT, env=dict(os.environ, CC="false"), capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stderr
        assert "using pure-Python fallback" in out.stderr
        assert not list((tmp_path / "lib").rglob("_compiled*"))


class TestWardKernel:
    def test_n_equals_one(self, ward_linkage):
        merges, heights = ward_linkage(np.zeros(0))
        assert merges.shape == (0, 2) and heights.shape == (0,)

    def test_monotone_heights(self, ward_linkage):
        rng = np.random.default_rng(71)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            _, heights = ward_linkage(condensed(_random_dist(rng, n)))
            assert np.all(np.diff(heights) >= 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entry(self, ward_linkage, bad):
        d = np.array([1.0, 4.0, 2.0])   # pairs (0, 1), (0, 2), (1, 2)
        d[1] = bad
        with pytest.raises(ValueError, match="finite and nonnegative"):
            ward_linkage(d)

    @pytest.mark.parametrize("bad", [1e155, 1.7e308])
    def test_rejects_a_square_that_overflows(self, ward_linkage, bad):
        # its square is inf, which would merge at an infinite height
        d = np.array([1.0, 4.0, 2.0])
        d[1] = bad
        with pytest.raises(ValueError, match="with finite squares"):
            ward_linkage(d)

    def test_rejects_negative_entry(self, ward_linkage):
        # squaring alone would hide the sign: -1.0 would merge as 1.0
        for bad in (-1.0, -1e-300):
            d = np.array([1.0, 4.0, 2.0])
            d[1] = bad
            with pytest.raises(ValueError, match="finite and nonnegative"):
                ward_linkage(d)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0, 1e155])
    def test_bad_distance_rejected_before_any_merge(self, kernel_backend, bad):
        # the loop itself checks as it squares: a bad entry in the last
        # pair, which the first bounds read last, leaves merges and heights
        # as they were
        loops = kernels._loops
        n = 40
        d = condensed(_random_dist(np.random.default_rng(77), n))
        d[-1] = bad
        merges, heights = np.full((n - 1, 2), -7, dtype=np.int64), np.full(n - 1, -7.0)
        with pytest.raises(ValueError, match="finite and nonnegative, with finite squares"):
            loops.ward_loop(d, merges, heights)
        assert (merges == -7).all() and (heights == -7.0).all()

    def test_overflow_raises_alike(self, each_backend):
        # the squares are finite, and the first Ward update overflows to
        # inf; the numpy loop used to warn and merge a node with itself,
        # the compiled one returned the inf height
        messages = []
        for _ in each_backend:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(OverflowError) as exc:
                    kernels.ward_linkage(np.full(3, 1e154))
            messages.append(str(exc.value))
        assert messages == ["Ward linkage overflowed: a merge height is not finite"] * 2

    def test_zero_heights_are_positive_alike(self, each_backend):
        # -0.0 passes the nonnegativity check, and both loops square it to
        # +0.0 before their scans meet it
        rng = np.random.default_rng(76)
        cases = []
        for _ in range(300):
            n = int(rng.integers(2, 12))
            d = rng.integers(0, 5, size=n * (n - 1) // 2) / 2.0
            d[rng.random(len(d)) < 0.4] = -0.0
            cases.append(d)
        cases += [np.full(n * (n - 1) // 2, -0.0) for n in (2, 3, 40)]
        results = {name: [kernels.ward_linkage(d.copy()) for d in cases] for name in each_backend}
        for (merges, heights), (c_merges, c_heights) in zip(results["python"], results["c"]):
            assert np.array_equal(merges, c_merges)
            assert heights.tobytes() == c_heights.tobytes()
            assert not np.signbit(heights).any()
        assert all(not heights.any() for _, heights in results["c"][-3:])

    def test_heights_are_the_roots_of_the_squared_linkage(self, ward_linkage):
        # two points: the height is the distance itself, bit for bit
        rng = np.random.default_rng(78)
        for d in rng.uniform(0.0, 2.0, 50):
            merges, heights = ward_linkage(np.array([d]))
            assert merges.tolist() == [[0, 1]] and heights[0] == np.sqrt(d * d)

    def test_bit_identical_to_reference_on_ties(self, ward_linkage):
        rng = np.random.default_rng(74)
        cases = [_tie_heavy_dist(rng, int(rng.integers(2, 41))) for _ in range(200)]
        for n in (2, 3, 7, 40):
            cases.append(np.ones((n, n)) - np.eye(n))   # every pair equal
            cases.append(np.zeros((n, n)))
        for _ in range(30):
            # duplicate rows: points repeated, so zero distances and
            # identical Ward updates
            n = int(rng.integers(2, 41))
            base = _tie_heavy_dist(rng, int(rng.integers(1, n + 1)))
            pick = rng.integers(0, len(base), size=n)
            d = base[np.ix_(pick, pick)]
            np.fill_diagonal(d, 0.0)
            cases.append(d)
        # the compiled loop keeps one minimum per block of 32 rows: n just
        # past one block, at two, just past two, and at several
        for n in (33, 64, 65, 130, 300):
            base = _tie_heavy_dist(rng, n // 2)
            pick = rng.integers(0, len(base), size=n)
            repeated = base[np.ix_(pick, pick)]   # each point about twice
            np.fill_diagonal(repeated, 0.0)
            cases += [_tie_heavy_dist(rng, n), repeated, _random_dist(rng, n)]
            if n < 300:
                # every pair tied; at n=300 the oracle takes about 1.9 s on
                # each such input, so the backends check those against each
                # other alone, in test_backends_agree_on_a_benchmark_fold
                cases += [np.ones((n, n)) - np.eye(n), np.zeros((n, n))]
        for d in cases:
            merges, heights = ward_linkage(condensed(d))
            ref_merges, ref_heights = _reference(d)
            assert np.array_equal(merges, ref_merges)
            assert heights.tobytes() == ref_heights.tobytes()

    def test_compaction_paths_bit_identical_to_reference(self, ward_linkage):
        slots = []
        for d, first in _compaction_cases(np.random.default_rng(79)):
            merges, heights = ward_linkage(condensed(d))
            ref_merges, ref_heights = _reference(d)
            assert np.array_equal(merges, ref_merges)
            assert heights.tobytes() == ref_heights.tobytes()
            merge_slots = list(_compiled_slots(merges))
            assert merge_slots[0] == first
            slots.append((len(d), merge_slots))
        _assert_compaction_covered(slots)

    def test_backends_agree_on_a_benchmark_fold(self, each_backend):
        # the training set of one fold of the FilmTrust-shaped benchmark
        # data: 1,500 users, whose hierarchy the loops build with about
        # 3,000 lazy rescans; then the plateaus of sparse data, where the
        # tie scan does most of the work: every pair tied at n=300, and
        # 1,500 clusterable users on 50 items, 93% of whose distances are
        # exactly 1.0
        dataset = benchmark_dataset("ft", 1)
        train, _ = fold_train_test(dataset, kfold_split(dataset, 10, 42), 0)
        cases = [kernels.cosine_distance_matrix(train, clusterable_users(train))]
        cases += [np.ones(300 * 299 // 2), np.zeros(300 * 299 // 2)]
        sparse = _plateau_dataset(np.random.default_rng(80), n_users=1539, n_items=50)
        plateau = [kernels.cosine_distance_matrix(sparse, clusterable_users(sparse)) for _ in each_backend]
        assert plateau[0].tobytes() == plateau[1].tobytes()
        assert len(plateau[0]) == 1500 * 1499 // 2 and round(np.mean(plateau[0] == 1.0), 2) == 0.93
        for d in cases + plateau[:1]:
            (merges, heights), (c_merges, c_heights) = [kernels.ward_linkage(d.copy()) for _ in each_backend]
            assert merges.tobytes() == c_merges.tobytes()
            assert heights.tobytes() == c_heights.tobytes()

    def test_merge_ids_form_a_tree(self, ward_linkage):
        rng = np.random.default_rng(72)
        n = 15
        merges, _ = ward_linkage(condensed(_random_dist(rng, n)))
        children = merges.ravel().tolist()
        assert len(children) == len(set(children))        # merged away once
        assert set(children) <= set(range(2 * n - 2))     # root never merged
        assert merges.shape == (n - 1, 2)


class TestNumpyWardMemory:
    def test_loop_works_inside_the_view(self, monkeypatch):
        # the numpy loop squares d and merges inside it, as the compiled one
        # does, so a d that is a view into a larger buffer costs no copy and
        # no n x n work matrix
        monkeypatch.setattr(kernels, "_loops", _python)
        n = 400
        buffer = np.empty(n * (n - 1) // 2 + 1)
        d = buffer[1:]
        d[:] = condensed(_random_dist(np.random.default_rng(75), n))
        assert d.base is buffer
        tracemalloc.start()
        try:
            kernels.ward_linkage(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * 8 * n * n


@pytest.fixture(scope="module")
def cap_fold():
    """The training set of fold 0 of the cap-shaped benchmark data, seed 1,
    and its about 3,000 clusterable users, above both loops' floors."""
    dataset = benchmark_dataset("cap", 1)
    train, _ = fold_train_test(dataset, kfold_split(dataset, 10, 42), 0)
    return train, clusterable_users(train)


class _Recorder:
    """The loops of `module`, recording the arguments each n^2 loop is
    handed and the thread count it returns."""

    def __init__(self, module):
        self.module, self.args, self.threads = module, {}, {}

    def __getattr__(self, name):
        return getattr(self.module, name)

    def _run(self, name, args):
        self.args[name] = args
        self.threads[name] = getattr(self.module, name)(*args)
        return self.threads[name]

    def cosine_rows(self, *args):
        return self._run("cosine_rows", args)

    def ward_loop(self, *args):
        return self._run("ward_loop", args)


def _cosine_arguments(module, train, users):
    """The six CSR arrays and the norms `cosine_distance_matrix` hands
    `module.cosine_rows` for `users` of `train`."""
    recorder = _Recorder(module)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "_loops", recorder)
        kernels.cosine_distance_matrix(train, users)
    return recorder.args["cosine_rows"][:-1]


@contextlib.contextmanager
def _cpus(count=None):
    """This thread pinned to the lowest `count` CPUs it may run on, for the
    block; a thread it starts inherits them.  None pins nothing."""
    if count is None:
        yield
        return
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, sorted(saved)[:count])
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)


def _want_threads(n: int, floor: int) -> int:
    """The threads a compiled n^2 loop over n rows runs on when called from
    this thread: 2 above its floor when the thread may run on two CPUs or
    more, 1 otherwise."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return 2 if n > floor and cpus > 1 else 1


def _raw_ward(loops, d, cpus=None):
    """The bytes of the merges and heights `loops.ward_loop` writes for a
    copy of the condensed distances `d`, before the entry's overflow check,
    pinned to `cpus` CPUs (`_cpus`).  A compiled loop must return the thread
    count `_want_threads` gives."""
    n = (1 + int(np.sqrt(1 + 8 * len(d)))) // 2
    merges, heights = np.empty((n - 1, 2), dtype=np.int64), np.empty(n - 1)
    with _cpus(cpus):
        threads = loops.ward_loop(d.copy(), merges, heights)
        if loops is not _python:
            assert threads == _want_threads(n, loops.WARD_FLOOR)
    return merges.tobytes(), heights.tobytes()


def _os_threads() -> int:
    """The threads of this process, as the kernel lists them."""
    return len(os.listdir("/proc/self/task"))


def _threads_after(before: int) -> int:
    """The process's threads once any thread beyond `before` has gone, or
    after 5 s: a joined thread may be listed for a moment after its join."""
    deadline = time.monotonic() + 5.0
    while _os_threads() > before and time.monotonic() < deadline:
        time.sleep(0.001)
    return _os_threads()


needs_task_list = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                     reason="counts threads in /proc/self/task")
# a test that compares a serial run with a split one pins this process to
# one CPU for the serial run
needs_two_cpus = pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                                    reason="runs on one CPU and on two")


class TestTwoThreads:
    """Above their floors, on two CPUs, the compiled cosine pass and Ward
    loop split over two threads and return 2, else they return 1; the bits
    never depend on the thread count.  `split_kernels` lowers both floors
    to SPLIT_FLOOR, so small inputs on both sides of it take both paths."""

    @needs_two_cpus
    @pytest.mark.parametrize("scale", RATING_SCALES)
    def test_cosine_bits_do_not_depend_on_threads(self, split_kernels, monkeypatch, scale):
        rng = np.random.default_rng(131)
        datasets = [random_grid_dataset(rng, max_users=100, max_items=30, draw=RATING_SCALES[scale])
                    for _ in range(20)]
        n = SPLIT_FLOOR + 5
        # every user alike (all distances 0) and no two users sharing an item (all 1)
        datasets.append(make_dataset([(f"u{u}", f"i{i}", 2.5) for u in range(n) for i in range(4)]))
        datasets.append(make_dataset([(f"u{u}", f"i{u}", 1.5) for u in range(n)]))
        runs = set()
        recorder = _Recorder(split_kernels)
        for ds in datasets:
            users = clusterable_users(ds)
            monkeypatch.setattr(kernels, "_loops", _python)
            want = kernels.cosine_distance_matrix(ds, users).tobytes()
            monkeypatch.setattr(kernels, "_loops", recorder)
            for cpus in (1, 2):
                with _cpus(cpus):
                    assert kernels.cosine_distance_matrix(ds, users).tobytes() == want
                runs.add((len(users) > SPLIT_FLOOR, cpus, recorder.threads["cosine_rows"]))
        assert runs == {(False, 1, 1), (False, 2, 1), (True, 1, 1), (True, 2, 2)}

    @needs_two_cpus
    def test_ward_bits_do_not_depend_on_threads(self, split_kernels):
        rng = np.random.default_rng(132)
        cases = [_tie_heavy_dist(rng, int(rng.integers(2, 130))) for _ in range(120)]
        cases += [_random_dist(rng, int(rng.integers(2, 130))) for _ in range(20)]
        for n in (2, SPLIT_FLOOR - 1, SPLIT_FLOOR, SPLIT_FLOOR + 1, SPLIT_FLOOR + 2, 64, 65, 100):
            cases += [np.ones((n, n)) - np.eye(n), np.zeros((n, n))]   # every pair tied
        for _ in range(20):
            # points repeated: zero distances and identical Ward updates
            n = int(rng.integers(SPLIT_FLOOR, 130))
            base = _tie_heavy_dist(rng, int(rng.integers(1, n // 2)))
            pick = rng.integers(0, len(base), size=n)
            repeated = base[np.ix_(pick, pick)]
            np.fill_diagonal(repeated, 0.0)
            cases.append(repeated)
        for d in cases:
            d = condensed(d)
            assert _raw_ward(split_kernels, d, 1) == _raw_ward(split_kernels, d, 2) == _raw_ward(_python, d)
        for _ in range(40):
            # -0.0 among the zeros, which either thread's part of the first
            # bounds squares to +0.0
            n = int(rng.integers(SPLIT_FLOOR, 130))
            d = rng.integers(0, 3, size=n * (n - 1) // 2) / 2.0
            d[rng.random(len(d)) < 0.5] = -0.0
            assert _raw_ward(split_kernels, d, 1) == _raw_ward(split_kernels, d, 2) == _raw_ward(_python, d)

    @needs_two_cpus
    def test_compaction_paths_do_not_depend_on_threads(self, split_kernels):
        # above SPLIT_FLOOR active slots each merge's pass splits WARD_SHARE
        # (40) percent of the way up the active slots, rounded down to a
        # block, and at lo when that falls below it: at n = 65 the first
        # merges run all of the pass in part 1, at n = 130 and 200 part 1
        # starts in a block above lo's, and at n = 200 and lo = 129 (71
        # active) it starts at lo again
        slots = []
        for d, first in _compaction_cases(np.random.default_rng(134)):
            ref_merges, ref_heights = _reference(d)
            d = condensed(d)
            raw = _raw_ward(split_kernels, d, 2)
            assert raw == _raw_ward(split_kernels, d, 1) == _raw_ward(_python, d)
            assert raw == (ref_merges.tobytes(), ref_heights.tobytes())
            merge_slots = list(_compiled_slots(ref_merges))
            assert merge_slots[0] == first
            slots.append((len(ref_merges) + 1, merge_slots))
        _assert_compaction_covered(slots)

    @needs_task_list
    @needs_two_cpus
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0, 1e155])
    def test_bad_distance_rejected_in_either_part(self, split_kernels, bad):
        # the first bounds split at row n - n/sqrt(2); a bad entry in a row
        # of either part, or of both, is rejected before any merge, and the
        # worker is joined
        n = 2 * SPLIT_FLOOR
        first_of_part_1 = n - int(n / np.sqrt(2.0))
        off = lambda r: r * n - r * (r + 1) // 2   # the first pair of row r
        before = _os_threads()
        for rows in ([0], [first_of_part_1 - 1], [first_of_part_1], [n - 2], [1, n - 3]):
            for cpus in (1, 2):
                d = condensed(_random_dist(np.random.default_rng(79), n))
                for r in rows:
                    d[off(r)] = bad
                merges, heights = np.full((n - 1, 2), -7, dtype=np.int64), np.full(n - 1, -7.0)
                with _cpus(cpus), pytest.raises(ValueError, match="finite and nonnegative, with finite squares"):
                    split_kernels.ward_loop(d, merges, heights)
                assert (merges == -7).all() and (heights == -7.0).all()
        assert _threads_after(before) == before

    @needs_two_cpus
    def test_overflow_stop_does_not_depend_on_threads(self, split_kernels, monkeypatch):
        # the first merge's updates overflow to inf, and the loop stops once
        # only infinite pairs are left, with the worker still running
        rng = np.random.default_rng(133)
        n = 3 * SPLIT_FLOOR
        cases = [np.full(n * (n - 1) // 2, 1e154), np.sqrt((1.0 + condensed(_random_dist(rng, n)) / 4.0) * 0.5e308)]
        monkeypatch.setattr(kernels, "_loops", split_kernels)
        for d in cases:
            raw = [_raw_ward(split_kernels, d, cpus) for cpus in (1, 2)]
            assert raw[0] == raw[1]
            assert not np.isfinite(np.frombuffer(raw[0][1])).all()
            for cpus in (1, 2):
                with _cpus(cpus), pytest.raises(OverflowError, match="not finite"):
                    kernels.ward_linkage(d.copy())

    @needs_two_cpus
    def test_cap_fold_bits_do_not_depend_on_threads(self, compiled_kernels, cap_fold):
        # the real floors, on a fit above both; repeated to catch races
        train, users = cap_fold
        assert len(users) > max(compiled_kernels.COSINE_FLOOR, compiled_kernels.WARD_FLOOR)
        args = _cosine_arguments(compiled_kernels, train, users)
        results = set()
        for cpus in (1, 2, 2, 2, 2):
            dist = np.empty(len(users) * (len(users) - 1) // 2)
            with _cpus(cpus):
                assert compiled_kernels.cosine_rows(*args, dist) == cpus
            results.add((dist.tobytes(), _raw_ward(compiled_kernels, dist, cpus)))
        assert len(results) == 1

    @needs_two_cpus
    def test_threads_follow_affinity_and_size(self, compiled_kernels, cap_fold, monkeypatch):
        # 2 above the floor when the process may run on two CPUs or more; 1
        # at or below it, and when the process is pinned to one CPU
        train, users = cap_fold
        floor = compiled_kernels.COSINE_FLOOR
        assert compiled_kernels.WARD_FLOOR == floor
        recorder = _Recorder(compiled_kernels)
        monkeypatch.setattr(kernels, "_loops", recorder)
        for cpus, subset, want in [(1, users[:floor + 1], 1), (2, users[:floor + 1], 2),
                                   (None, users[:floor + 1], 2), (None, users[:floor], 1),
                                   (None, users[:SPLIT_FLOOR + 1], 1)]:
            with _cpus(cpus):
                kernels.ward_linkage(kernels.cosine_distance_matrix(train, subset))
            assert recorder.threads == {"cosine_rows": want, "ward_loop": want}

    @needs_two_cpus
    def test_bits_hold_with_the_cpus_taken(self, compiled_kernels, cap_fold):
        # two busy processes on the two CPUs this process runs on: the
        # worker loses its CPU in the middle of parts, and the loop waits
        # for it or stops splitting
        train, users = cap_fold
        args = _cosine_arguments(compiled_kernels, train, users[:compiled_kernels.WARD_FLOOR + 100])
        n = len(args[-1])
        runs = {}
        saved = os.sched_getaffinity(0)
        two = set(sorted(saved)[:2])
        busy = f"import os\nos.sched_setaffinity(0, {two!r})\nwhile True: pass"
        hogs = []
        try:
            os.sched_setaffinity(0, two)
            for cpus in (1, 2, 1, 2):
                if cpus == 2 and not hogs:
                    hogs = [subprocess.Popen([sys.executable, "-c", busy]) for _ in two]
                dist = np.empty(n * (n - 1) // 2)
                with _cpus(cpus):
                    assert compiled_kernels.cosine_rows(*args, dist) == cpus
                runs.setdefault(cpus, set()).add((dist.tobytes(), _raw_ward(compiled_kernels, dist, cpus)))
        finally:
            for hog in hogs:
                hog.kill()
                hog.wait(timeout=10)
            os.sched_setaffinity(0, saved)
        assert len(runs[1]) == 1 and runs[1] == runs[2]

    @needs_task_list
    def test_no_worker_outlives_a_call(self, compiled_kernels, split_kernels, cap_fold, monkeypatch):
        train, users = cap_fold
        recorder = _Recorder(compiled_kernels)
        monkeypatch.setattr(kernels, "_loops", recorder)
        before = _os_threads()
        n = compiled_kernels.WARD_FLOOR + 1
        kernels.ward_linkage(kernels.cosine_distance_matrix(train, users[:n]))
        assert recorder.threads == {"cosine_rows": _want_threads(n, compiled_kernels.COSINE_FLOOR),
                                    "ward_loop": _want_threads(n, compiled_kernels.WARD_FLOOR)}
        assert _threads_after(before) == before
        # the overflow stop leaves the merge loop with the worker running
        n = 3 * SPLIT_FLOOR
        raw = _raw_ward(split_kernels, np.full(n * (n - 1) // 2, 1e154))
        assert not np.isfinite(np.frombuffer(raw[1])).all()
        assert _threads_after(before) == before

    @needs_task_list
    @pytest.mark.parametrize("loop", ["cosine_rows", "ward_loop"])
    def test_no_worker_outlives_a_failed_allocation(self, compiled_kernels, cap_fold, loop):
        # each allocation of the call fails in turn, up to the first call
        # that allocates all it needs
        testcapi = pytest.importorskip("_testcapi")
        train, users = cap_fold
        args = _cosine_arguments(compiled_kernels, train, users[:compiled_kernels.WARD_FLOOR + 1])
        n = len(args[-1])
        dist = np.empty(n * (n - 1) // 2)
        compiled_kernels.cosine_rows(*args, dist)
        d, merges, heights = dist.copy(), np.empty((n - 1, 2), dtype=np.int64), np.empty(n - 1)
        call = {"cosine_rows": lambda: compiled_kernels.cosine_rows(*args, dist),
                "ward_loop": lambda: compiled_kernels.ward_loop(d.copy(), merges, heights)}[loop]
        before = _os_threads()
        failures = 0
        for start in range(200):
            testcapi.set_nomemory(start, 0)
            try:
                call()
            except MemoryError:
                failures += 1
            else:
                break
            finally:
                testcapi.remove_mem_hooks()
            assert _threads_after(before) == before
        assert 0 < failures == start
        assert _threads_after(before) == before

def _read_only(a):
    a.setflags(write=False)
    return a


class TestWardChecksInputs:
    """The checked Ward entry rejects bad input before either backend's loop
    reads or writes it, with the same exception type and message."""

    @pytest.mark.parametrize("make, error", [
        (lambda: [1.0, 4.0, 2.0], TypeError),
        (lambda: array.array("d", [1.0, 4.0, 2.0]), TypeError),
        (lambda: np.array([1.0, 4.0, 2.0], dtype=np.float32), TypeError),
        (lambda: np.array([1, 4, 2]), TypeError),
        (lambda: np.zeros((3, 3)), ValueError),
        (lambda: np.arange(6.0)[::2], ValueError),
        (lambda: _read_only(np.array([1.0, 4.0, 2.0])), ValueError),
        (lambda: np.ones(4), ValueError),
        (lambda: np.array([1.0, np.nan, 2.0]), ValueError),
        (lambda: np.array([1.0, np.inf, 2.0]), ValueError),
        (lambda: np.array([1.0, -1.0, 2.0]), ValueError),
        (lambda: np.array([1.0, 1e200, 2.0]), ValueError),
    ], ids=["list", "buffer", "float32", "int64", "2-d", "strided", "read-only", "length-4", "nan", "inf", "negative",
            "square-overflows"])
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
        # both sum each dot product in factor order from 0.0: bit for bit
        states = {factors: [] for factors in (1, 6, 33)}
        for _ in each_backend:
            for factors, runs in states.items():
                args = _mf_problem(f=factors)
                for _ in range(5):
                    kernels.mf_sgd_epoch(**args)
                runs.append([args[name] for name in _OUTPUTS])
        for python_run, c_run in states.values():
            for a, b in zip(python_run, c_run):
                np.testing.assert_array_equal(a, b)

    def test_zero_factor_columns(self, each_backend):
        # with no factor columns the dot product is 0.0 and only the biases
        # move, alike on both backends
        states = []
        for _ in each_backend:
            args = _mf_problem(f=0)
            kernels.mf_sgd_epoch(**args)
            states.append([args[name] for name in _OUTPUTS])
        for a, b in zip(states[0], states[1]):
            np.testing.assert_array_equal(a, b)
        assert states[0][0].shape == (20, 0) and states[0][2].any()

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
        d = _read_only(np.array([1.0, 4.0, 2.0]))
        with pytest.raises(TypeError, match="read-write"):
            compiled_kernels.ward_loop(d, np.empty((2, 2), dtype=np.int64), np.empty(2))

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


def _knn_problem(triples, n_entities, n_columns, rng, user_major=True):
    """`KnnIndex` arguments but k for (entity, column, rating) triples, in
    the order given: the training dataset, with the entities as its users
    when `user_major` is true and as its items otherwise, and random means."""
    entities, columns, ratings = (np.array(a) for a in zip(*triples))
    users, items, n_users, n_items = ((entities, columns, n_entities, n_columns) if user_major
                                      else (columns, entities, n_columns, n_entities))
    train = RatingDataset(
        user_ids=[f"u{u}" for u in range(n_users)], item_ids=[f"i{i}" for i in range(n_items)],
        users=users.astype(np.int32), items=items.astype(np.int32), ratings=ratings.astype(np.float64),
        rating_min=float(ratings.min()), rating_max=float(ratings.max()),
    )
    return {"train": train, "user_major": user_major, "means": rng.uniform(0.0, 5.0, n_entities)}


def _hand_problem(user_major=True):
    """Entity 0 is (1, 0, 0); in column 2 its neighbours 1..5 have
    similarities 0.6, 0.8, 0, -0.8 and 0.6 and deviations 1, 2, 4, 3 and -1
    from their means."""
    triples = [(0, 0, 1.0), (1, 0, 3.0), (1, 2, 4.0), (2, 0, 4.0), (2, 2, 3.0), (3, 1, 3.0), (3, 2, 4.0),
               (4, 0, -4.0), (4, 2, 3.0), (5, 0, 3.0), (5, 2, 4.0)]
    problem = _knn_problem(triples, 6, 3, np.random.default_rng(0), user_major)
    problem["means"] = np.array([0.0, 3.0, 1.0, 0.0, 0.0, 5.0])
    return problem


MAX_NEIGHBOURS = 300
PROFILE = 3   # columns 0..2 give entity 0 its similarities; column 3 + c has c + 1 raters


def _counting_problem(variant, seed=33):
    """Entity 0 rates the profile columns; neighbour j (1..300) rates some of
    them and every query column 3 + c with c >= j - 1, so query column
    3 + c has c + 1 neighbours, and entity 0 itself rates every other
    query column.  "continuous" ratings make every similarity positive and
    no sum exact; "signed" makes about half of them negative.  In "ties"
    every neighbour rates every query column 2.5 and draws its profile
    from three patterns, so each query column has 300 neighbours in three
    groups of equal similarity, told apart by their random means."""
    rng = np.random.default_rng(seed)
    low = -5.0 if variant == "signed" else 0.5

    def draw():
        return float(rng.uniform(low, 5.0))

    patterns = rng.uniform(0.5, 5.0, (3, PROFILE))
    triples = [(0, c, float(v)) for c, v in enumerate(rng.uniform(0.5, 5.0, PROFILE))]
    for j in range(1, MAX_NEIGHBOURS + 1):
        if variant == "ties":
            profile = patterns[rng.integers(0, 3)]
        else:
            profile = [draw() if rng.random() < 0.7 else 0.0 for _ in range(PROFILE)]
            profile[rng.integers(0, PROFILE)] = draw()
        triples += [(j, c, float(v)) for c, v in enumerate(profile) if v != 0.0]
        if variant == "ties":
            triples += [(j, PROFILE + c, 2.5) for c in range(MAX_NEIGHBOURS)]
        else:
            triples += [(j, PROFILE + c, draw()) for c in range(j - 1, MAX_NEIGHBOURS)]
    triples += [(0, PROFILE + c, 1.0) for c in range(1, MAX_NEIGHBOURS, 2)]
    return _knn_problem(triples, MAX_NEIGHBOURS + 1, PROFILE + MAX_NEIGHBOURS, rng)


# a spread of (entity, column) queries over the counting problems
SPREAD = [(e, c) for e in range(0, MAX_NEIGHBOURS + 1, 15) for c in range(0, PROFILE + MAX_NEIGHBOURS, 17)]

# how many gathered elements a scattered one costs in the compiled query
SCATTER_COST = int(re.search(r"#define SCATTER_COST (\d+)",
                             (REPO_ROOT / "src" / "cobar" / "kernels" / "_compiled.c").read_text()).group(1))


def _side(index, entity, column):
    """The side the compiled query sums the dot products of (entity,
    column) from: "scatter" when SCATTER_COST times the elements the
    scatter visits, every rating of every column the entity rated, is at
    most the gather's, the entity's ratings and every neighbour's."""
    rp, ri, _, cp, ci, _ = index._arrays[:6]
    row, col = ri[rp[entity]:rp[entity + 1]], ci[cp[column]:cp[column + 1]]
    scatter = int(np.sum(cp[row + 1] - cp[row]))
    gather = len(row) + int(np.sum(rp[col + 1] - rp[col]))
    return "scatter" if SCATTER_COST * scatter <= gather else "gather"


def _sides_problem(side, user_major=True, seed=61):
    """A problem whose query (entity 0, SIDES_QUERY[side][1]) the compiled
    loop answers from `side`, by a wide margin.  "gather": entity 0 rates
    the 40 columns 0..39, as do the heavy raters 1..30, while the query
    column 40 holds the light raters 31..36, each rating three of those
    columns and one of the columns 41..45 that entity 0 did not rate.
    "scatter": entity 0 rates columns 0, 1, 43 and 44, which the light
    raters 31..36 rate too, while the query column 2 holds the heavy raters
    1..30, each rating columns 3..42 and one of columns 0 and 1.  Ratings
    are signed and continuous, with explicit 0.0 and -0.0 among them, and
    entity 0 rates both zeros."""
    rng = np.random.default_rng(seed)

    def draw():
        u = rng.random()
        return 0.0 if u < 0.15 else -0.0 if u < 0.3 else float(rng.uniform(-5.0, 5.0))

    if side == "gather":
        own = list(range(40))
        heavy = [list(range(40))] * 30
        light = [[*rng.choice(40, 3, replace=False).tolist(), 40, 41 + j % 5] for j in range(6)]
    else:
        own = [0, 1, 43, 44]
        heavy = [[*range(2, 43), int(rng.integers(0, 2))] for _ in range(30)]
        light = [[0, 1, 43, 44, int(rng.integers(3, 43))] for _ in range(6)]
    triples = [(0, c, v) for c, v in zip(own, [2.5, -0.0, 0.0, *(draw() for _ in own[3:])])]
    for e, columns in enumerate(heavy + light, start=1):
        triples += [(e, c, draw()) for c in sorted(set(columns))]
    return _knn_problem(triples, 37, 46, rng, user_major)


SIDES_QUERY = {"gather": (0, 40), "scatter": (0, 2)}
# every query of a sides problem
SIDES_QUERIES = [(e, c) for e in range(37) for c in range(46)]


def _bits(value):
    return None if value is None else np.float64(value).tobytes()


class TestKnnQuery:
    @pytest.mark.parametrize("variant", ["continuous", "ties", "signed"])
    def test_backends_agree_for_every_neighbour_count(self, compiled_kernels, variant):
        # the compiled loop re-implements np.sum's pairwise order; a numpy
        # release that changes it fails here.  The loops are bound per k
        # over one index's layout, which serves every k.
        arrays = kernels.KnnIndex(**_counting_problem(variant), k=1)._arrays
        results = []
        for loops in (_python, compiled_kernels):
            values = []
            for count in range(1, MAX_NEIGHBOURS + 1):
                for k in sorted({count + 3, count, max(1, count - 1), max(1, count // 3), 1}):
                    values.append(loops.bind_knn_query(*arrays, k)(0, PROFILE + count - 1))
            results.append(values)
        if variant != "signed":
            assert None not in results[0]
        assert results[0] == results[1]

    def test_equal_to_weighted_mean_of_top_k(self, kernel_backend):
        problem, transposed = _hand_problem(), _hand_problem(user_major=False)

        def query(column, k):
            value = kernel_backend.KnnIndex(**problem, k=k).query(0, column)
            # the entities as the items of the transposed dataset
            assert kernel_backend.KnnIndex(**transposed, k=k).query(0, column) == value
            return value

        assert query(2, 1) == 2.0
        # neighbour 1 beats 5 at the equal similarity 0.6
        assert query(2, 2) == pytest.approx((0.8 * 2.0 + 0.6 * 1.0) / 1.4, abs=1e-15)
        assert query(2, 3) == pytest.approx((0.8 * 2.0 + 0.6 * 1.0 - 0.6) / 2.0, abs=1e-15)
        # the zero and the negative similarity never count
        assert query(2, 30) == query(2, 3)
        assert query(1, 30) is None

    def test_queries_leave_no_trace(self, kernel_backend):
        # the compiled loop's scratch is zeroed after every query, from
        # either side, so the order of queries does not matter
        cases = [(_counting_problem("signed"), SPREAD)]
        cases += [(_sides_problem(side), SIDES_QUERIES) for side in SIDES_QUERY]
        sides = set()
        for problem, queries in cases:
            index = kernel_backend.KnnIndex(**problem, k=5)
            sides |= {_side(index, e, c) for e, c in queries}
            first = [index.query(e, c) for e, c in queries]
            order = np.random.default_rng(1).permutation(len(queries))
            again = [index.query(*queries[q]) for q in order]
            assert again == [first[q] for q in order]
        assert sides == {"scatter", "gather"}

    @pytest.mark.parametrize("user_major", [True, False])
    @pytest.mark.parametrize("side", list(SIDES_QUERY))
    def test_both_sides_match_the_numpy_query(self, compiled_kernels, side, user_major):
        # each side adds the products in ascending column order from +0.0;
        # the gather's extra +-0.0 products change no bit
        index = kernels.KnnIndex(**_sides_problem(side, user_major), k=1)
        assert _side(index, *SIDES_QUERY[side]) == side
        assert {_side(index, e, c) for e, c in SIDES_QUERIES} == {"scatter", "gather"}
        results = []
        for loops in (_python, compiled_kernels):
            queries = [loops.bind_knn_query(*index._arrays, k) for k in (1, 3, 30)]
            results.append([_bits(query(e, c)) for e, c in SIDES_QUERIES for query in queries])
        assert results[0] == results[1]
        assert sum(v is not None for v in results[0]) > len(SIDES_QUERIES)

    def test_reads_the_datasets_frozen_layouts(self):
        # the index reads the dataset's read-only layouts and adds read-only
        # norms; the dataset keeps copies of the arrays it was built from,
        # so overwriting those reaches neither the dataset nor the index.
        # The means are read as given, read-only in a `MeanStats`, not copied
        problem = _counting_problem("continuous")
        triples = [a.copy() for a in (problem["train"].users, problem["train"].items, problem["train"].ratings)]
        train = problem["train"] = replace(problem["train"], users=triples[0], items=triples[1], ratings=triples[2])
        index = kernels.KnnIndex(**problem, k=7)
        assert all(kept is laid for kept, laid in zip(index._arrays, (*train.user_layout, *train.item_layout)))
        assert index._arrays[7] is problem["means"]
        assert not any(np.shares_memory(kept, given) for kept in index._arrays
                       for given in (train.users, train.items, train.ratings, *triples))
        for array in index._arrays[:7]:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        before = [index.query(e, c) for e, c in SPREAD]
        checked = train.ratings.copy()
        for array in triples:
            array[:] = 0
        assert np.array_equal(train.ratings, checked)
        assert [index.query(e, c) for e, c in SPREAD] == before

    @pytest.mark.parametrize("user_major", [True, False])
    def test_index_holds_int32_indices(self, each_backend, user_major):
        # both axes' indptrs stay int64 and their indices are int32, as the
        # loops read them
        problem = _hand_problem(user_major=user_major)
        for _ in each_backend:
            arrays = kernels.KnnIndex(**problem, k=3)._arrays
            assert [a.dtype for a in arrays[:6]] == [np.int64, np.int32, np.float64] * 2

    def test_shuffled_triples_give_the_same_predictions(self, kernel_backend):
        # both axes are sorted at construction, so each dot product and norm
        # sums in ascending index order whatever order the triples come in
        problem = _counting_problem("signed")
        order = np.random.default_rng(2).permutation(problem["train"].n_ratings)
        shuffled = {**problem, "train": problem["train"].subset(order)}
        index, again = (kernel_backend.KnnIndex(**p, k=5) for p in (problem, shuffled))
        assert [again.query(e, c) for e, c in SPREAD] == [index.query(e, c) for e, c in SPREAD]


class TestKnnIndexChecksInputs:
    """The checked kNN entry rejects a training set that is not a
    `RatingDataset`, whose construction checked the triples, and malformed
    means and k once, at construction, and bad query arguments on every
    query, for either backend."""

    @pytest.mark.parametrize("name, value, error, match", [
        ("train", lambda t: [t.users, t.items, t.ratings], TypeError, "must be a RatingDataset"),
        ("means", lambda a: a.astype(np.float32), TypeError, "must hold float64"),
        ("means", lambda a: np.stack([a, a]), ValueError, "1-dimensional"),
        ("means", lambda a: a[:-1], ValueError, "not one per entity"),
        ("k", lambda k: 0, ValueError, "k must be >= 1"),
        ("k", lambda k: -2, ValueError, "k must be >= 1"),
        ("k", lambda k: 2.5, TypeError, "integer"),
    ], ids=["list", "float32-means", "2-d", "means-length", "k-zero", "k-negative", "k-float"])
    def test_bad_array_rejected(self, each_backend, name, value, error, match):
        problem = {**_hand_problem(), "k": 30}
        problem[name] = value(problem[name])
        for _ in each_backend:
            with pytest.raises(error, match=match):
                kernels.KnnIndex(**problem)

    @pytest.mark.parametrize("args, error", [
        ((-1, 2), IndexError), ((6, 2), IndexError), ((0, -1), IndexError), ((0, 3), IndexError),
        ((np.int64(6), 2), IndexError), ((0, np.int32(-4)), IndexError), ((0.0, 2), TypeError), ((0, 2.5), TypeError),
    ])
    def test_bad_query_rejected(self, each_backend, args, error):
        index = kernels.KnnIndex(**_hand_problem(), k=30)
        for _ in each_backend:
            with pytest.raises(error):
                index.query(*args)


def _stats_problem(ds):
    """`ClusterStatsIndex` arguments for the hierarchy of `ds`."""
    return {"dendrogram": agglomerate(ds), "train": ds}


def _plateau_dataset(rng, n_users=120, n_items=300):
    """A sparse, Book-Crossing-like dataset: one to three ratings per user
    from 0 to 10, most of them on items no other user rated.  Most cosine
    distances are exactly 1, so Ward merges on tie plateaus and the tree
    is deep."""
    rows = []
    for u in range(n_users):
        for i in rng.choice(n_items, size=int(rng.integers(1, 4)), replace=False):
            rows.append((f"u{u}", f"i{i}", int(rng.integers(0, 11))))
    return make_dataset(rows)


class TestClusterStatsIndex:
    def test_backends_build_the_same_arrays(self, compiled_kernels, monkeypatch):
        rng = np.random.default_rng(404)
        problems = [_stats_problem(random_grid_dataset(rng, max_users=80, max_items=30, draw=draw))
                    for draw in RATING_SCALES.values() for _ in range(4)]
        for problem in problems:
            built = []
            for loops in (_python, compiled_kernels):
                monkeypatch.setattr(kernels, "_loops", loops)
                index = kernels.ClusterStatsIndex(**problem)
                # int32 leaf positions beside int64 indptrs and gap nodes
                assert [a.dtype for a in index._arrays[:3]] == [np.int64, np.int32, np.int64]
                built.append(b"".join(a.tobytes() for a in (*index._arrays, index._ratings)))
            assert built[0] == built[1]

    # the tree itself is checked once, when the `Dendrogram` is built: see
    # test_clustering.py's TestDendrogramChecksInputs
    @pytest.mark.parametrize("name, value, error, match", [
        ("train", lambda t: [t.users, t.items, t.ratings], TypeError, "must be a RatingDataset"),
        ("dendrogram", lambda d: (d.merges, d.leaf_users), TypeError, "must be a Dendrogram"),
        ("dendrogram", lambda d: Dendrogram(d.merges, d.heights, d.leaf_users + 1), IndexError, "out of range"),
    ], ids=["list", "not-a-dendrogram", "leaf-out-of-range"])
    def test_bad_argument_rejected(self, each_backend, demo_dataset, name, value, error, match):
        problem = _stats_problem(demo_dataset)
        problem[name] = value(problem[name])
        for _ in each_backend:
            with pytest.raises(error, match=match):
                kernels.ClusterStatsIndex(**problem)

    @pytest.mark.parametrize("args, error", [
        ((-1, 0), IndexError), ((5, 0), IndexError), ((0, -1), IndexError), ((0, 4), IndexError),
        ((np.int64(5), 0), IndexError), ((0.0, 0), TypeError), ((0, 2.5), TypeError),
    ])
    def test_bad_query_rejected(self, each_backend, demo_dataset, args, error):
        index = kernels.ClusterStatsIndex(**_stats_problem(demo_dataset))
        for _ in each_backend:
            with pytest.raises(error):
                index.query(*args, 0.95)

    @pytest.mark.parametrize("scale", [*RATING_SCALES, "plateau"])
    def test_each_gap_node_is_the_lowest_common_ancestor(self, each_backend, scale):
        # each backend's build finds the gap nodes itself
        rng = np.random.default_rng(406)
        if scale == "plateau":
            datasets = [_plateau_dataset(rng)]
        else:
            datasets = [random_grid_dataset(rng, max_users=40, max_items=20, draw=RATING_SCALES[scale])
                        for _ in range(3)]
        checked = {}
        for name in each_backend:
            checked[name] = 0
            for ds in datasets:
                dend = agglomerate(ds)
                (ptr, gptr), positions, gap_nodes, _, nodes = kernels.ClusterStatsIndex(dend, ds)._arrays
                leaf_at = np.argsort(nodes[0, :dend.n_leaves])
                for item in range(ds.n_items):
                    raters = leaf_at[positions[ptr[item]:ptr[item + 1]]].tolist()
                    for gap, (left, right) in enumerate(zip(raters[:-1], raters[1:]), start=int(gptr[item])):
                        shared = set(ancestor_chain_reference(dend, right).tolist())
                        lowest = next(node for node in ancestor_chain_reference(dend, left).tolist()
                                      if node in shared)
                        assert gap_nodes[gap] == lowest, (name, item, left, right)
                        checked[name] += 1
        assert checked["python"] == checked["c"] > 0

    @pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.5, float("nan"), float("inf")])
    def test_level_outside_the_unit_interval_rejected(self, each_backend, demo_dataset, level):
        # checked once, when the level's query is first bound, so that a
        # query costs no more; unchecked, a level above 1 or NaN gives NaN
        # half-widths and 0.0 gives zero widths
        for _ in each_backend:
            index = kernels.ClusterStatsIndex(**_stats_problem(demo_dataset))
            with pytest.raises(ValueError, match=r"confidence level must be in \(0, 1\)"):
                index.query(0, 0, level)
            assert not index._queries
            assert index.query(0, 0, 0.95) is not None
            bound = index._queries[0.95]
            index.query(1, 0, np.float64(0.95))
            assert index._queries == {0.95: bound}


def _knn_indexes(ds):
    """The kNN indexes of the uknn and iknn fits of `ds`, with k 1, 3 and 30."""
    return [cls(KnnConfig(k=k)).fit(ds)._index for cls in (UserKnn, ItemKnn) for k in (1, 3, 30)]


class TestBoundQueries:
    """Each backend binds its query loops to an index's arrays once; the
    bound queries give the bits of the numpy loops called with every
    argument, and hold the arrays they read."""

    @pytest.mark.parametrize("scale", list(RATING_SCALES))
    def test_bound_queries_give_the_loops_bits(self, compiled_kernels, scale):
        rng = np.random.default_rng(72)
        datasets = [random_grid_dataset(rng, draw=RATING_SCALES[scale]) for _ in range(6)]
        answered = 0
        for ds in datasets:
            for index in _knn_indexes(ds):
                arrays, k = index._arrays, index.k
                bound = [loops.bind_knn_query(*arrays, k) for loops in (_python, compiled_kernels)]
                for entity in range(index.n_entities):
                    for column in range(index.n_columns):
                        want = _bits(_python.knn_query(*arrays, entity, column, k))
                        # after every earlier query of the bound loop, which
                        # must leave its scratch zeroed
                        assert [_bits(query(entity, column)) for query in bound] == [want, want]
                        answered += want is not None
            stats = kernels.ClusterStatsIndex(**_stats_problem(ds))
            for level in (0.9, 0.95, 0.99):
                table = kernels._t_critical_table(level, stats._most_raters)
                bound = [loops.bind_stats_query(*stats._arrays, table) for loops in (_python, compiled_kernels)]
                for leaf in range(stats.n_leaves):
                    for item in range(stats.n_items):
                        # repr tells -0.0 from 0.0 and numpy scalars from Python ones
                        want = repr(_python.stats_query(*stats._arrays, table, leaf, item))
                        assert [repr(query(leaf, item)) for query in bound] == [want, want]
                        answered += want != "None"
        assert answered > 0

    def test_bound_query_keeps_its_arrays_alive(self, kernel_backend, demo_dataset):
        # the index's arrays are referenced by nothing else once it is gone;
        # the bound query holds them until it is freed itself
        problem = _counting_problem("signed")
        index = kernel_backend.KnnIndex(**problem, k=5)
        want = [_bits(index.query(e, c)) for e, c in SPREAD]
        query, kept = index._query, weakref.ref(index._arrays[4])
        del index, problem
        gc.collect()
        junk = [np.full(n, 7.0) for n in range(1, 2000, 7)]   # reuse freed memory
        assert kept() is not None
        assert [_bits(query(e, c)) for e, c in SPREAD] == want
        del query
        gc.collect()
        assert kept() is None

        stats = kernel_backend.ClusterStatsIndex(**_stats_problem(demo_dataset))
        pairs = [(leaf, item) for leaf in range(stats.n_leaves) for item in range(stats.n_items)]
        want = [repr(stats.query(leaf, item, 0.95)) for leaf, item in pairs]
        query, kept = stats._queries[0.95], weakref.ref(stats._arrays[3])
        del stats
        gc.collect()
        junk += [np.full(n, 7.0) for n in range(1, 2000, 7)]
        assert kept() is not None
        assert [repr(query(leaf, item)) for leaf, item in pairs] == want
        del query
        gc.collect()
        assert kept() is None

    @pytest.mark.parametrize("args, kwargs", [((), {}), ((0,), {}), ((0, 0, 0), {}), ((0.0, 0), {}), ((0, "0"), {}),
                                              ((0,), {"column": 0})])
    def test_compiled_call_takes_two_indices(self, compiled_kernels, args, kwargs):
        # the compiled call parses two integers and nothing else; the
        # checked `query` methods reject bad indices before it
        arrays = kernels.KnnIndex(**_hand_problem(), k=30)._arrays
        query = compiled_kernels.bind_knn_query(*arrays, 30)
        with pytest.raises(TypeError, match="positional|integer"):
            query(*args, **kwargs)
        assert query(np.int64(0), True) == _python.knn_query(*arrays, 0, 1, 30)

    def test_failed_allocation_in_the_knn_bind_raises(self, compiled_kernels):
        # each allocation of the bind fails in turn, up to the first bind
        # that allocates all it needs, the work buffers last: each failure
        # raises MemoryError and frees what the bind took
        testcapi = pytest.importorskip("_testcapi")
        arrays = kernels.KnnIndex(**_counting_problem("signed"), k=5)._arrays
        want = [_bits(_python.knn_query(*arrays, e, c, 5)) for e, c in SPREAD]
        compiled_kernels.bind_knn_query(*arrays, 5)   # numpy caches each array's buffer layout
        failures = 0
        for start in range(100):
            testcapi.set_nomemory(start, 0)
            try:
                query = compiled_kernels.bind_knn_query(*arrays, 5)
            except MemoryError:
                failures += 1
            else:
                break
            finally:
                testcapi.remove_mem_hooks()
        assert 1 < failures == start
        assert [_bits(query(e, c)) for e, c in SPREAD] == want
