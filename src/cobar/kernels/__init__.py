"""Hot-kernel dispatch.

The MF SGD epoch has a compiled version, the C extension `_mf`, built at
install time when a C compiler is available; without it the numpy version
in `_python` runs.  ``BACKEND`` names the MF epoch selected at import:
``"c"`` when `_mf` imports, ``"python"`` otherwise.  The Ward merge loop
has one implementation, in `_python`.
"""

from __future__ import annotations

from . import _python

try:
    from . import _mf as _compiled
except ImportError:
    _compiled = None

BACKEND: str = "c" if _compiled is not None else "python"

ward_linkage = _python.ward_linkage
mf_sgd_epoch = (_compiled or _python).mf_sgd_epoch
