"""The two scipy ufuncs cobar needs: `stdtrit`, for the t table of every fit,
and `ndtr`, for the Wilcoxon normal approximation above 25 folds.

``from scipy.special import ...`` runs the whole `scipy.special` package
init, whose array-API layer loads `numpy.testing`, `numpy.f2py`,
`numpy.ma` and more: most of `import cobar`'s time and a third of its peak
memory, while the compiled module that holds both ufuncs,
`scipy.special._ufuncs`, loads in a few milliseconds.  So when the package
is not imported yet, an empty package module with its real ``__path__``
stands in for it under ``sys.modules["scipy.special"]`` while
`scipy.special._ufuncs` imports, and is removed at once.  A later
``import scipy.special`` runs the real init, which takes the loaded
`_ufuncs` from `sys.modules`: it exposes the very same ufunc objects.

The stand-in must never be seen by other code.  So this fast path runs
only when the importing thread is the only thread running Python code;
otherwise, when `scipy.special` is imported already, or when anything in
the fast path raises, the public import runs instead.  No path leaves the
stand-in in `sys.modules`.
"""

from __future__ import annotations

import importlib
import os
import sys
import types


def _ufuncs_only():
    import scipy

    # scipy's module __getattr__ would import the real package for
    # `scipy.special`, so the path is read from the module's own dict
    stub = types.ModuleType("scipy.special")
    stub.__path__ = [os.path.join(path, "special") for path in scipy.__dict__["__path__"]]
    sys.modules["scipy.special"] = stub
    try:
        ufuncs = importlib.import_module("scipy.special._ufuncs")
    finally:
        if sys.modules.get("scipy.special") is stub:
            del sys.modules["scipy.special"]
    return ufuncs.stdtrit, ufuncs.ndtr


def _load():
    # sys._current_frames() holds every thread running Python code, also
    # those started with _thread or from C that threading does not list
    if "scipy.special" not in sys.modules and len(sys._current_frames()) == 1:
        try:
            return _ufuncs_only()
        except Exception:
            pass   # the public import below loads the package, or raises
    from scipy.special import ndtr, stdtrit

    return stdtrit, ndtr


stdtrit, ndtr = _load()
