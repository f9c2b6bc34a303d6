"""Hot-kernel dispatch.

Two kernels are compiled: the Ward merge loop and the MF SGD epoch, both
in the C extension `_compiled`, built at install time when a C compiler is
available.  Without it the numpy versions in `_python` run.  ``BACKEND``
names the kernels selected at import: ``"c"`` when `_compiled` imports,
``"python"`` otherwise.  Both backends give the same merges and heights bit
for bit.
"""

from __future__ import annotations

from . import _python

try:
    from . import _compiled
except ImportError:
    _compiled = None

_missing = [name for name in ("ward_linkage", "mf_sgd_epoch") if _compiled and not hasattr(_compiled, name)]
if _missing:
    # an extension built from older source, e.g. one a build reused
    # because its file times looked up to date
    raise ImportError(
        f"stale extension {getattr(_compiled, '__file__', _compiled.__name__)} lacks {', '.join(_missing)}; "
        "rebuild it with: python setup.py build_ext --inplace --force"
    )

BACKEND: str = "c" if _compiled is not None else "python"

ward_linkage = (_compiled or _python).ward_linkage
mf_sgd_epoch = (_compiled or _python).mf_sgd_epoch
