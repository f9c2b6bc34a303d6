"""Every public name has a reader outside the tests.

A name exported in `cobar.__all__`, or defined public in `cobar.kernels`,
must be read somewhere in the package (other than the line that defines
it and the `__init__.py` files) or in the benchmark under `perfbench/`.
A name only tests read is surface to delete, or to move into
`tests/oracles.py`.
"""

import ast
import io
import tokenize
from pathlib import Path

import pytest

import cobar

REPO_ROOT = Path(__file__).resolve().parent.parent


def reader_sources() -> list[Path]:
    package = sorted(p for p in (REPO_ROOT / "src" / "cobar").rglob("*.py") if p.name != "__init__.py")
    return package + sorted((REPO_ROOT / "perfbench").glob("*.py"))


def read_names(path: Path) -> set[str]:
    """Identifiers the file's code uses; strings, comments and the names
    that `def` and `class` statements introduce do not count."""
    names = set()
    previous = None
    tokens = tokenize.generate_tokens(io.StringIO(path.read_text(encoding="utf-8")).readline)
    for tok in tokens:
        if tok.type == tokenize.NAME and previous not in ("def", "class"):
            names.add(tok.string)
        if tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT):
            previous = tok.string
    return names


@pytest.fixture(scope="module")
def readers() -> set[str]:
    names = set()
    for path in reader_sources():
        names |= read_names(path)
    return names


def test_reader_sources_found():
    sources = {p.name for p in reader_sources()}
    assert {"core.py", "cli.py", "worker.py"} <= sources


def test_definitions_are_not_readers(tmp_path):
    path = tmp_path / "m.py"
    path.write_text('def f():\n    "g"  # h\n\n\nclass C:\n    pass\n\n\nx = f\n')
    names = read_names(path)
    assert {"f", "x"} <= names
    assert not {"C", "g", "h"} & names


@pytest.mark.parametrize("name", [n for n in cobar.__all__ if not n.startswith("__")])
def test_public_name_has_a_reader(name, readers):
    assert name in readers, f"cobar.{name} is read by nothing under src/cobar or perfbench"


def kernel_definitions() -> list[str]:
    """The public names `cobar/kernels/__init__.py` defines at its top
    level, not the ones it imports."""
    tree = ast.parse((REPO_ROOT / "src" / "cobar" / "kernels" / "__init__.py").read_text(encoding="utf-8"))
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [target.id for target in targets if isinstance(target, ast.Name)]
    return [name for name in names if not name.startswith("_")]


def test_kernel_definitions_found():
    assert set(kernel_definitions()) == {"BACKEND", "csr_rows", "cosine_distance_matrix", "ward_linkage",
                                         "mf_sgd_epoch", "tokenize", "KnnIndex", "ClusterStatsIndex"}


@pytest.mark.parametrize("name", kernel_definitions())
def test_public_kernel_name_has_a_reader(name, readers):
    assert name in readers, f"cobar.kernels.{name} is read by nothing under src/cobar or perfbench"
