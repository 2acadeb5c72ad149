"""The insertion kernel: the compiled one where it can run, else pure Python.

Both backends keep one contract, ``insert_sequence(offsets)``: integer
offsets in, in input order; rows of offsets out, each row strictly
decreasing, and an equal offset bumps the one already in the row.

Three things choose the backend:

* the import result: ``_insertion`` is the C extension that setup.py
  builds from ``_insertion.c`` when a C compiler is present; without it
  the pure kernel runs;
* ``RSINF_PURE`` set to any value but the empty string and ``0``, which
  selects the pure kernel even where the extension is built;
* per call, an offset outside 64 bits: the extension raises
  ``OverflowError`` and this call runs the pure kernel instead.  The
  interchange checks insert codes, offset * (number of classes) + class
  index, which pass 64 bits sooner than the offsets do; such a class
  falls back alone, and its rows are the same on both kernels.

``BACKEND`` names the result of the first two.  ``rs_trace`` inserts
one entry per step with ``_insertion_py.insert_one`` on every backend:
the one pure bump, which the pure ``insert_sequence`` calls per entry.
"""

import os

from . import _insertion_py

if os.environ.get("RSINF_PURE", "") not in ("", "0"):
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
