"""The public surface, pinned: the names rsinf exports, the call
signatures of every public callable in rsinf.rs_infinite, and the field
order of its dataclasses.  A refactor that drops, renames or reorders any
of them fails here first."""

import dataclasses
import enum
import importlib
import inspect

import rsinf

ri = importlib.import_module("rsinf.rs_infinite")

ALL = [
    "BACKEND", "Axis", "ClsParams", "EventuallyConstantSeq", "FieldElem", "Finite",
    "InfiniteRSResult", "InsertionStep", "InterchangePath", "LevelError", "Omega",
    "OmegaStar", "ProperIdeal", "StablyDecreasingSeq", "Tableau", "TableauFamily",
    "Valid", "WeightSpec", "ZeroAnnihilator", "ZeroIdeal", "Zeta", "admissible",
    "apply_interchange", "block_ideal", "classify", "cls_level", "cls_params",
    "connected", "elem", "eventually_constant", "finite", "gamma", "ins", "j",
    "joseph_equal", "member", "omega", "omega_star", "parse_elem", "parse_spec",
    "partition_from_row", "plus_rho", "q_union_level", "rho_shift", "rs",
    "rs_infinite", "rs_trace", "seq_of", "segment", "stably_decreasing", "star_seq",
    "star_spec", "validate", "weight_spec", "zeta",
]

# annotations left out: they are strings here and read alike on every version
SIGNATURES = {
    "EventuallyConstantSeq": "(axis, window, edge, left_tail=None, right_tail=None)",
    "eventually_constant": "(axis, window=(), *, edge=None, left_tail=None, right_tail=None)",
    "StablyDecreasingSeq": "(axis, window, edge, left_law=None, right_law=None)",
    "stably_decreasing": "(axis, window=(), *, edge=None, left_law=None, right_law=None)",
    "plus_rho": "(block)",
    "star_seq": "(x)",
    "ins": "(positions, values, f2)",
    "InfiniteRSResult": (
        "(axis, first_row, lower_rows, finite_tableaux, underline, mirrored=False)"
    ),
    "rs_infinite": "(g)",
    "partition_from_row": "(result, h_minus, r=None)",
    "block_ideal": "(block)",
}

FIELDS = {
    "EventuallyConstantSeq": ["axis", "window", "edge", "left_tail", "right_tail"],
    "StablyDecreasingSeq": ["axis", "window", "edge", "left_law", "right_law"],
    "InfiniteRSResult": [
        "axis", "first_row", "lower_rows", "finite_tableaux", "underline", "mirrored",
    ],
}


def _bare_signature(obj) -> str:
    sig = inspect.signature(obj)
    params = [p.replace(annotation=p.empty) for p in sig.parameters.values()]
    return str(sig.replace(parameters=params, return_annotation=sig.empty))


def test_package_exports():
    assert list(rsinf.__all__) == ALL
    assert all(hasattr(rsinf, name) for name in ALL)


def test_rs_infinite_public_callables():
    public = {
        name: obj for name, obj in vars(ri).items()
        if not name.startswith("_") and callable(obj)
        and getattr(obj, "__module__", None) == ri.__name__
    }
    assert [(m.name, m.value) for m in public.pop("Axis")] == [
        ("NEG", "neg"), ("POS", "pos"), ("ALL", "all"),
    ]
    assert not any(isinstance(o, type) and issubclass(o, enum.Enum) for o in public.values())
    assert {name: _bare_signature(obj) for name, obj in public.items()} == SIGNATURES


def test_rs_infinite_dataclass_fields():
    for name, fields in FIELDS.items():
        assert [f.name for f in dataclasses.fields(getattr(ri, name))] == fields, name
