"""The benchmark's tracer wraps named functions of rsinf from outside the
package; a renamed or deleted seam would silently drop a per-layer metric.
Every seam it lists must resolve in the package under test."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "rsbench" / "tracing.py"


def _seams():
    spec = importlib.util.spec_from_file_location("rsbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.SEAMS


@pytest.mark.parametrize("seam", _seams(), ids=lambda s: s[0])
def test_seam_resolves(seam):
    _, mod_name, attr, _, _ = seam
    obj = importlib.import_module(mod_name)
    for part in attr.split("."):
        assert part in vars(obj), f"{mod_name}.{attr} is gone"
        obj = vars(obj)[part]
    assert callable(obj)
