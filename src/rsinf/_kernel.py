"""Select the compiled insertion kernel, falling back to pure Python.

Set RSINF_PURE=1 to force the pure implementation.  Offsets outside the
64-bit range also fall back automatically.
"""

import os

from . import _insertion_py

if os.environ.get("RSINF_PURE"):
    _impl = None
else:
    try:
        from . import _insertion as _impl
    except ImportError:
        _impl = None

BACKEND = "compiled" if _impl is not None else "pure"


def insert_sequence(offsets):
    if _impl is not None:
        try:
            return _impl.insert_sequence(offsets)
        except OverflowError:
            pass
    return _insertion_py.insert_sequence(offsets)
