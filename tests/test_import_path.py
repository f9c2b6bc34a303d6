"""What `import cobar` loads.  The runtime needs numpy and `scipy.special`
only; `scipy.stats`, with the subpackages it pulls in, would triple the
start-up of every `cobar` command.  `scipy.sparse` is loaded on first use,
by `RatingDataset.sparse_by_user`."""

import os
import subprocess
import sys

import pytest

from conftest import REPO_ROOT

NOT_AT_IMPORT = ("scipy.stats", "scipy.spatial", "scipy.optimize", "scipy.sparse")


@pytest.mark.parametrize("module", ["cobar", "cobar.cli"])
def test_heavy_scipy_subpackages_not_imported(module):
    environ = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(REPO_ROOT / "src"),
                                                                      os.environ.get("PYTHONPATH")])))
    # scipy.special loaded shows that the import went through
    code = f"import sys, {module}; print(sorted(set({NOT_AT_IMPORT!r}) & set(sys.modules)), 'scipy.special' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=environ, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[] True"
