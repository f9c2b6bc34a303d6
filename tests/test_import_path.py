"""What `import cobar` loads.  The runtime needs numpy and two ufuncs of
`scipy.special`, `stdtrit` and `ndtr`, which `cobar._special` takes from the
compiled `scipy.special._ufuncs` alone: the package's init, and `scipy.stats`
with the subpackages it pulls in, would each multiply the start-up of every
`cobar` command.  No later call loads the package either, and no algorithm
loads `scipy.sparse`, on either backend: both cosine passes walk the CSR
arrays themselves.

`cobar._special` imports `scipy.special._ufuncs` under an empty stand-in for
its package when it is the only thread running Python code and the package
is not imported yet, and runs the public import otherwise or when that
fails.  Each case runs in a fresh interpreter, since the test process has
imported `scipy.special` already."""

import os
import subprocess
import sys

import pytest

from conftest import DATA_DIR, REPO_ROOT

NOT_AT_IMPORT = ("scipy.stats", "scipy.spatial", "scipy.optimize", "scipy.sparse", "scipy.special")

# sha256 prefixes of the t-table rows at two levels and of ndtr on [-40, 40]
BITS = (
    "import hashlib, numpy as np; "
    "h = lambda a: hashlib.sha256(np.asarray(a, dtype=np.float64).tobytes()).hexdigest()[:16]; "
    "print([h(cobar._special.stdtrit(np.arange(3001), 0.5 + level / 2)) for level in (0.95, 0.99)], "
    "h(cobar._special.ndtr(np.linspace(-40, 40, 16001))))"
)


def _run(code: str) -> str:
    """`code`'s output in a fresh interpreter that imports this checkout."""
    environ = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(REPO_ROOT / "src"),
                                                                      os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=environ, capture_output=True, text=True, check=True)
    return out.stdout.strip()


@pytest.mark.parametrize("module", ["cobar", "cobar.cli"])
def test_heavy_scipy_subpackages_not_imported(module):
    # the ufuncs' module loaded shows that the import went through
    code = (f"import sys, scipy, {module}; print(sorted(set({NOT_AT_IMPORT!r}) & set(sys.modules)), "
            "'scipy.special._ufuncs' in sys.modules, 'special' in vars(scipy))")
    assert _run(code) == "[] True False"


def test_no_call_loads_scipy_special():
    code = (
        "import sys, numpy as np; "
        "from cobar import CobarModel, build_algorithms, parse_ratings, run_cross_validation, wilcoxon_signed_rank; "
        f"ds = parse_ratings({str(DATA_DIR / 'two_clusters.tsv')!r}); "
        "run_cross_validation(ds, build_algorithms(['cobar', 'mp', 'uknn', 'iknn', 'mf']), folds=3, seed=0); "
        "CobarModel().fit(ds).predict(0, 0); "
        # 30 nonzero differences take the normal approximation, through ndtr
        "wilcoxon_signed_rank(np.arange(30.0), np.zeros(30)); "
        "print('scipy.special' in sys.modules)"
    )
    assert _run(code) == "False"


def test_later_public_import_gives_the_same_ufuncs():
    code = (
        "import sys, numpy as np, scipy, cobar; from cobar import _special, evaluation, kernels; "
        "assert 'scipy.special' not in sys.modules; "
        "print(scipy.special.stdtrit is _special.stdtrit is kernels.stdtrit, "
        "scipy.special.ndtr is _special.ndtr is evaluation.ndtr, "
        "scipy.special._ufuncs is sys.modules['scipy.special._ufuncs']); "
        "import scipy.stats; "
        "print(scipy.stats.t.ppf(0.975, 7) == _special.stdtrit(7, 0.975), "
        "scipy.special.logsumexp([0.0, 0.0]) == np.log(2.0))")
    assert _run(code).splitlines() == ["True True True", "True True"]


def test_ufuncs_keep_their_bits_on_both_paths():
    fast = _run(f"import sys, cobar; assert 'scipy.special' not in sys.modules; {BITS}")
    public = _run(f"import scipy.special, cobar; {BITS}")
    assert fast == public


def test_pre_imported_package_takes_the_public_path():
    # the fast path would have swapped the loaded package out of sys.modules
    code = ("import sys, scipy.special as s; import cobar; "
            "print(sys.modules['scipy.special'] is s, cobar._special.stdtrit is s.stdtrit)")
    assert _run(code) == "True True"


def test_failed_fast_path_falls_back_and_leaves_no_stand_in():
    # a finder that refuses scipy.special._ufuncs once, noting whether the
    # package it was asked under was the stand-in, which has no __spec__
    code = (
        "import sys\n"
        "seen = []\n"
        "class Refuse:\n"
        "    @staticmethod\n"
        "    def find_spec(name, path=None, target=None):\n"
        "        if name == 'scipy.special._ufuncs' and not seen:\n"
        "            seen.append(sys.modules['scipy.special'].__spec__ is None)\n"
        "            raise ImportError('refused')\n"
        "sys.meta_path.insert(0, Refuse)\n"
        "import cobar\n"
        "package = sys.modules['scipy.special']\n"
        "print(seen, package.__spec__ is not None, cobar._special.stdtrit is package.stdtrit,\n"
        "      cobar._special.ndtr is package.ndtr)\n"
    )
    assert _run(code) == "[True] True True True"


@pytest.mark.parametrize("start", ["threading", "_thread"])
def test_second_thread_takes_the_public_path(start):
    # the second thread imports scipy.special whenever it sees it in
    # sys.modules, as any other code would, and notes a module that lacks
    # stdtrit once that import returns
    code = (
        "import sys, threading, _thread\n"
        "sys.setswitchinterval(1e-6)\n"
        "stop, running, done, seen = threading.Event(), threading.Event(), threading.Event(), []\n"
        "def watch():\n"
        "    running.set()\n"
        "    while not stop.is_set():\n"
        "        if 'scipy.special' in sys.modules:\n"
        "            import scipy.special\n"
        "            seen.append(hasattr(scipy.special, 'stdtrit'))\n"
        "    done.set()\n"
        f"{'threading.Thread(target=watch).start()' if start == 'threading' else '_thread.start_new_thread(watch, ())'}\n"
        "assert running.wait(10)\n"
        "import cobar\n"
        "stop.set()\n"
        "assert done.wait(10)\n"
        "print(all(seen), 'scipy.special' in sys.modules, cobar._special.stdtrit is sys.modules['scipy.special'].stdtrit)\n"
    )
    assert _run(code) == "True True True"


def test_finished_thread_leaves_the_fast_path():
    code = ("import sys, threading; t = threading.Thread(target=lambda: None); t.start(); t.join(10); "
            "import cobar; print(t.is_alive(), 'scipy.special' in sys.modules)")
    assert _run(code) == "False False"


@pytest.mark.parametrize("backend", ["python", "c"])
@pytest.mark.parametrize("names", ["mp,uknn,iknn,mf", "cobar"])
def test_no_fit_loads_scipy_sparse(names, backend, request):
    # the subprocess selects the loops itself, so the result does not
    # depend on whether an extension sits in src
    if backend == "python":
        select = "k._loops = k._python"
    else:
        path = str(next((request.getfixturevalue("compiled_build") / "cobar" / "kernels").glob("_compiled*")))
        select = (f"spec = importlib.util.spec_from_file_location('cobar.kernels._compiled', {path!r}); "
                  "k._loops = importlib.util.module_from_spec(spec); spec.loader.exec_module(k._loops)")
    code = (
        "import importlib.util, sys; import cobar.kernels as k; "
        "from cobar import build_algorithms, parse_ratings, run_cross_validation; "
        f"{select}; ds = parse_ratings({str(DATA_DIR / 'two_clusters.tsv')!r}); "
        f"run_cross_validation(ds, build_algorithms({names!r}.split(',')), folds=3, seed=0); "
        "print(k._loops.__name__, 'scipy.sparse' in sys.modules)"
    )
    assert _run(code) == f"cobar.kernels.{'_python' if backend == 'python' else '_compiled'} False"
