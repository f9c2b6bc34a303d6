"""Shared fixtures: fixture-file paths, dataset builders, kernel backends,
the report line naming the in-place backend, and the acceptance-suite
summary printed at the end of the run."""

import importlib.util
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from cobar import kernels, parse_ratings
from cobar.kernels import _python

REPO_ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = REPO_ROOT / "data"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def demo_dataset():
    """Five users with nested preference groups; the README walk-through file."""
    return parse_ratings(DATA_DIR / "demo.tsv", name="demo")


@pytest.fixture(scope="session")
def two_clusters_dataset():
    return parse_ratings(DATA_DIR / "two_clusters.tsv", name="two_clusters")


def make_dataset(rows, **kwargs):
    """Dataset from (user, item, rating) triples, via the real parser."""
    lines = [f"{u}\t{i}\t{r!r}" for u, i, r in rows]
    return parse_ratings(lines, **kwargs)


def random_grid_dataset(rng, max_users=20, max_items=15, density=0.45, draw=None):
    """Random dataset on a 0.5-step rating grid from 0.5 to 4 (sums stay
    exact in binary), or with each rating drawn by `draw(rng)`.

    Every user gets at least one rating; items without ratings do not exist
    in the index space, matching what the parser produces.
    """
    n_users = int(rng.integers(2, max_users + 1))
    n_items = int(rng.integers(2, max_items + 1))
    rows = []
    for u in range(n_users):
        count = max(1, int(rng.binomial(n_items, density)))
        for i in rng.choice(n_items, size=count, replace=False):
            rating = int(rng.integers(1, 9)) / 2.0 if draw is None else float(draw(rng))
            rows.append((f"u{u}", f"i{i}", rating))
    return make_dataset(rows)


def load_datagen():
    """The benchmark's data generator, `perfbench/datagen.py`."""
    spec = importlib.util.spec_from_file_location("perfbench_datagen", REPO_ROOT / "perfbench" / "datagen.py")
    datagen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = datagen   # its dataclasses look their module up
    spec.loader.exec_module(datagen)
    return datagen


def benchmark_dataset(shape, seed):
    """The benchmark's seeded synthetic rating file of `shape`, parsed."""
    datagen = load_datagen()
    users, items, ratings = datagen.generate(datagen.SHAPES[shape], seed)
    return parse_ratings([f"u{u}\ti{i}\t{r:.1f}" for u, i, r in zip(users, items, ratings)])


def _zero_heavy(rng):
    """0 with probability 0.4, else an integer from 1 to 10."""
    return 0 if rng.random() < 0.4 else int(rng.integers(1, 11))


# rating draws for `random_grid_dataset` on the scales of the paper's
# datasets: FilmTrust's 0.5 steps, the 1-5 stars of Amazon, Book-Crossing's
# 0-10 with its implicit zeros, a signed scale, and a 0.01 step on 1-5
# whose sums are not exact in binary
RATING_SCALES = {
    "half_grid": None,
    "int_1_5": lambda rng: int(rng.integers(1, 6)),
    "int_0_10_zeros": _zero_heavy,
    "signed_10": lambda rng: int(rng.integers(-10, 11)),
    "step_0_01": lambda rng: int(rng.integers(100, 501)) / 100,
}


def c_compiler_found() -> bool:
    compiler = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    return shutil.which(shlex.split(compiler)[0]) is not None


def _build_extension(build: Path, cflags: str = "") -> Path:
    """`setup.py build_ext` run into `build`, with `cflags` added to the
    compiler's flags; returns `build`, which holds `cobar/kernels/_compiled*`.
    Skips only when no C compiler is found: with a compiler, a failed build
    fails the test."""
    if not c_compiler_found():
        pytest.skip("no C compiler found")
    environ = dict(os.environ)
    if cflags:
        environ["CFLAGS"] = f"{environ.get('CFLAGS', '')} {cflags}".strip()
    out = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib", str(build), "--build-temp", str(build / "tmp")],
        cwd=REPO_ROOT, env=environ, capture_output=True, text=True,
    )
    if out.returncode != 0 or not list((build / "cobar" / "kernels").glob("_compiled*")):
        pytest.fail(f"building the compiled extension failed:\n{out.stdout}\n{out.stderr}")
    return build


def _load_extension(build: Path):
    path = next((build / "cobar" / "kernels").glob("_compiled*"))
    spec = importlib.util.spec_from_file_location("cobar.kernels._compiled", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def compiled_build(tmp_path_factory) -> Path:
    """`setup.py build_ext` run into a temporary directory, so nothing under
    `src/` is written; returns the build directory."""
    return _build_extension(tmp_path_factory.mktemp("build_ext"))


@pytest.fixture(scope="session")
def compiled_kernels(compiled_build):
    """The `_compiled` extension module built from this checkout's source."""
    return _load_extension(compiled_build)


# the floors of the extension `split_kernels` builds
SPLIT_FLOOR = 40


@pytest.fixture(scope="session")
def split_kernels(tmp_path_factory):
    """The `_compiled` extension built with both n^2 loops' floors lowered
    to SPLIT_FLOOR, so that they split inputs of a few dozen rows over two
    threads."""
    build = tmp_path_factory.mktemp("build_split")
    module = _load_extension(_build_extension(build, f"-DCOSINE_FLOOR={SPLIT_FLOOR} -DWARD_FLOOR={SPLIT_FLOOR}"))
    if (module.COSINE_FLOOR, module.WARD_FLOOR) != (SPLIT_FLOOR, SPLIT_FLOOR):
        pytest.skip("the compiler does not take CFLAGS")
    return module


def _loops(request, name):
    return _python if name == "python" else request.getfixturevalue("compiled_kernels")


@pytest.fixture(params=["python", "c"])
def kernel_backend(request, monkeypatch):
    """Runs the test once per kernel backend: puts the numpy loops or the
    compiled ones behind the checked entries of `cobar.kernels`, and returns
    that module."""
    monkeypatch.setattr(kernels, "_loops", _loops(request, request.param))
    return kernels


@pytest.fixture
def ward_linkage(kernel_backend):
    """The checked Ward entry, once over each backend's merge loop."""
    return kernel_backend.ward_linkage


class _EachBackend:
    """The backend names, "python" then "c", on every iteration: each step
    puts that backend's loops behind the checked entries of `cobar.kernels`,
    so a test may iterate once per case and run every case on both."""

    def __init__(self, request, monkeypatch):
        self._request, self._monkeypatch = request, monkeypatch

    def __iter__(self):
        for name in ("python", "c"):
            self._monkeypatch.setattr(kernels, "_loops", _loops(self._request, name))
            yield name


@pytest.fixture
def each_backend(request, monkeypatch):
    """An iterable of the backend names, "python" then "c", that selects
    each one's loops in turn; see `_EachBackend`."""
    return _EachBackend(request, monkeypatch)


# --- acceptance criteria summary -------------------------------------------

ACCEPTANCE_RESULTS: dict[str, str] = {}

# a criterion's status over its cases: FAIL over SKIP over PASS
_SEVERITY = {"PASS": 0, "SKIP": 1, "FAIL": 2}


def worst_status(previous: str | None, status: str) -> str:
    """The summary of a criterion whose cases so far gave `previous` (None
    before the first) once the next case gives `status`: the more severe
    of the two, and of two equally severe the earlier, so that the summary
    names the first case that gave it."""
    if previous is None or _SEVERITY[status.split()[0]] > _SEVERITY[previous.split()[0]]:
        return status
    return previous


def pytest_configure(config):
    config.addinivalue_line("markers", "acceptance(label): criterion of the acceptance suite")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    # a case counts once: by its call, or by a setup that did not pass
    if marker is None or report.when == "teardown" or (report.when == "setup" and report.passed):
        return
    if report.skipped:
        reason = report.longrepr[2] if isinstance(report.longrepr, tuple) else "skipped"
        status = f"SKIP ({item.name}: {reason})"
    else:
        status = "PASS" if report.passed else f"FAIL ({item.name})"
    label = marker.args[0]
    ACCEPTANCE_RESULTS[label] = worst_status(ACCEPTANCE_RESULTS.get(label), status)


def pytest_report_header(config):
    """The backend the in-place suite runs, and the extension behind it."""
    extension = kernels._compiled.__file__ if kernels._compiled else "none"
    return f"cobar.kernels: BACKEND {kernels.BACKEND}, _compiled {extension}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not terminalreporter.showheader:
        # -q hides the header: the log still names the backend
        terminalreporter.write_line(pytest_report_header(config))
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for label in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"{label}: {ACCEPTANCE_RESULTS[label]}")
