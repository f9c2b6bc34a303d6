"""Hot-kernel dispatch.

The MF SGD epoch has a compiled version, the C extension `_mf`, built at
install time when a C compiler is available; without it the numpy version
in `_python` runs.  Set ``COBAR_PURE_PYTHON=1`` to force the numpy version
even when the extension is built.  ``BACKEND`` names the MF epoch selected
at import: ``"c"`` or ``"python"``.  The Ward merge loop has one
implementation, in `_python`.
"""

from __future__ import annotations

import os

from . import _python

_compiled = None
if not os.environ.get("COBAR_PURE_PYTHON"):
    try:
        from . import _mf as _compiled
    except ImportError:
        pass

BACKEND: str = "c" if _compiled is not None else "python"

ward_linkage = _python.ward_linkage
mf_sgd_epoch = (_compiled or _python).mf_sgd_epoch
