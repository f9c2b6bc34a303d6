"""What `import cobar` loads.  The runtime needs numpy and `scipy.special`
only; `scipy.stats`, with the subpackages it pulls in, would triple the
start-up of every `cobar` command.  No algorithm loads `scipy.sparse`, on
either backend: both cosine passes walk the CSR arrays themselves."""

import os
import subprocess
import sys

import pytest

from conftest import DATA_DIR, REPO_ROOT

NOT_AT_IMPORT = ("scipy.stats", "scipy.spatial", "scipy.optimize", "scipy.sparse")


def _run(code: str) -> str:
    """`code`'s output in a fresh interpreter that imports this checkout."""
    environ = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(REPO_ROOT / "src"),
                                                                      os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=environ, capture_output=True, text=True, check=True)
    return out.stdout.strip()


@pytest.mark.parametrize("module", ["cobar", "cobar.cli"])
def test_heavy_scipy_subpackages_not_imported(module):
    # scipy.special loaded shows that the import went through
    code = f"import sys, {module}; print(sorted(set({NOT_AT_IMPORT!r}) & set(sys.modules)), 'scipy.special' in sys.modules)"
    assert _run(code) == "[] True"


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
