"""What `import cobar` loads.  The runtime needs numpy and `scipy.special`
only; `scipy.stats`, with the subpackages it pulls in, would triple the
start-up of every `cobar` command.  `scipy.sparse` is loaded only by a cobar
fit with the numpy kernels (backend `python`), for the block product of
their cosine pass (`cobar.kernels._python.cosine_rows`); with the compiled
kernels (backend `c`) no algorithm loads it."""

import os
import subprocess
import sys

import pytest

from cobar import kernels
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


@pytest.mark.parametrize("names", ["mp,uknn,iknn,mf", "cobar"])
def test_only_a_cobar_fit_loads_scipy_sparse(names):
    # the subprocess imports the same checkout, so it selects the same backend
    loaded = names == "cobar" and kernels.BACKEND == "python"
    code = (
        "import sys; from cobar import build_algorithms, parse_ratings, run_cross_validation; "
        f"ds = parse_ratings({str(DATA_DIR / 'two_clusters.tsv')!r}); "
        f"run_cross_validation(ds, build_algorithms({names!r}.split(',')), folds=3, seed=0); "
        "print('scipy.sparse' in sys.modules)"
    )
    assert _run(code) == str(loaded)
