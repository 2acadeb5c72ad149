"""Command line front end.

Sequence literals are comma-separated field elements: integers ("3"),
reduced fractions ("1/2"), or symbols with an optional integer part
("a", "a-3", "-a+1").  Results are printed as compact JSON, except the
level-set commands which print one weight vector per line.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import classifier, cls
from .core import (
    Tableau, TableauFamily, _class_name, _decode_json, _field, _parse_int, parse_elem,
    parse_elems, parse_entry,
)
from .rs_finite import connected, j, joseph_equal, rs, seq_of
from .rs_infinite import Axis, block_ideal, eventually_constant, plus_rho, rs_infinite


def _parse_seq(text: str):
    text = text.strip()
    if not text:
        return ()
    return tuple(parse_elem(part) for part in text.split(","))


def _family_json(family) -> list:
    return [
        {
            "class": _class_name(t.anchor),
            "rows": [[str(v) for v in row] for row in t.rows],
        }
        for t in family
    ]


def _emit(obj) -> int:
    print(json.dumps(obj, separators=(",", ":")))
    return 0


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _load(path: str):
    return _decode_json(_read(path))


def _cmd_classify(args) -> int:
    spec = classifier.parse_spec(_read(args.spec))
    return _emit(classifier.ideal_to_json(classifier.classify(spec)))


def _cmd_rs(args) -> int:
    vals = _parse_seq(args.sequence)
    family = j(vals) if args.shifted else rs(vals)
    return _emit({"tableaux": _family_json(family)})


def _cmd_seq_of(args) -> int:
    shape = "a tableau document is an object with a 'tableaux' list"
    tabs = []
    for item in _field(_load(args.tableaux), "tableaux", shape, list):
        rows = _field(item, "rows", "each tableau is an object with a 'rows' list", list)
        rows = tuple(parse_elems(row, "a tableau row") for row in rows)
        if not rows or not rows[0]:
            raise ValueError("tableaux must have at least one nonempty row")
        tabs.append(Tableau(rows[0][0].anchor, rows))
    return _emit({"seq": [str(v) for v in seq_of(TableauFamily(tuple(tabs)))]})


def _cmd_interchange(args) -> int:
    f = _parse_seq(args.first)
    g = _parse_seq(args.second)
    path = connected(f, g, shifted=args.shifted)
    if path is None:
        out = {"connected": False}
    else:
        out = {"connected": True, "path": list(path.positions)}
    if args.k is not None:
        out["joseph_equal"] = joseph_equal(f, g, k=args.k)
    return _emit(out)


def _cmd_rs_inf(args) -> int:
    data = _load(args.block)
    shape = "a block document is an object with an 'axis' field"
    name = _field(data, "axis", shape)
    try:
        axis = Axis(name)
    except ValueError:
        raise ValueError(f"unknown axis {name!r}; use neg, pos or all") from None
    window = parse_elems(_field(data, "exceptions", shape, default=()), "'exceptions'")
    # an absent tail is None; a present one, null included, is an entry
    lt, rt = (
        parse_entry(_field(data, side, shape), f"'{side}'") if side in data else None
        for side in ("left_tail", "right_tail")
    )
    block = eventually_constant(axis, window, left_tail=lt, right_tail=rt)
    r, g, x, y = block_ideal(block)
    res = rs_infinite(plus_rho(block))
    row = res.first_row
    row_json = {"window": [str(v) for v in row.window]}
    if row.left_law is not None:
        row_json["left_law"] = str(row.left_law)
    if row.right_law is not None:
        row_json["right_law"] = str(row.right_law)
    return _emit(
        {
            "axis": name,
            "r": res.r,
            "first_row": row_json,
            "underline": [str(v) for v in res.underline],
            "lower_rows": [[str(v) for v in r_] for r_ in res.lower_rows],
            "finite_tableaux": _family_json(res.finite_tableaux),
            **classifier.ideal_to_json(classifier.ProperIdeal(r, g, x, y)),
        }
    )


def _parse_params(text: str) -> cls.ClsParams:
    parts = text.split(";")
    if len(parts) != 3:
        raise ValueError(
            "parameters are \"r',r'',g;X;Y\", e.g. \"1,0,2;2,1;\""
        )
    nums = parts[0].split(",")
    if len(nums) != 3:
        raise ValueError("the first group must be r',r'',g")
    r1, r2, g = map(_parse_int, nums, ("r'", "r''", "g"))
    return cls.cls_params(r1, r2, g, _parse_part(parts[1], "X"), _parse_part(parts[2], "Y"))


def _parse_part(text: str, name: str) -> tuple:
    """A partition group: a blank group is the empty partition, and every
    entry of another one, an empty one too, must be an integer."""
    if not text.strip():
        return ()
    return tuple(_parse_int(v, f"an entry of {name}") for v in text.split(","))


def _int_option(text: str) -> int:
    """The argparse type of the integer options: argparse names the
    option and exits 2."""
    try:
        return _parse_int(text, "the value")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _print_vectors(vecs) -> int:
    for v in sorted(vecs, reverse=True):
        print(",".join(str(x) for x in v))
    return 0


def _cmd_cls_level(args) -> int:
    p = _parse_params(args.params)
    return _print_vectors(cls.cls_level(p, args.level, args.bound))


def _cmd_cls_gamma(args) -> int:
    return _print_vectors([cls.gamma(_parse_params(args.params), args.level)])


def _cmd_cls_member(args) -> int:
    p = _parse_params(args.params)
    text = args.vector.strip()
    # an empty vector is the weight of level 0
    vec = tuple(_parse_int(v, "an entry of the weight") for v in text.split(",")) if text else ()
    return _emit({"member": cls.member(p, vec)})


_NEGATIVE_LEAD = re.compile(r"-[0-9]|-[^-].*,")


class _Parser(argparse.ArgumentParser):
    """Reads an argument that starts with a minus and a digit ("-3,4"),
    or a single-dash argument that holds a comma ("-a,3"), as a value, so
    a sequence may begin with a negative entry."""

    def _parse_optional(self, arg_string):
        if _NEGATIVE_LEAD.match(arg_string):
            return None
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="rsinf",
        description="Insertion on infinite sequences and annihilator parameters.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="annihilator parameters of a weight spec")
    p.add_argument("spec", help="path to a JSON spec document")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("rs", help="insert a finite sequence")
    p.add_argument("sequence", help="comma-separated entries, e.g. \"3,4,a,5\"")
    p.add_argument("--shifted", action="store_true", help="subtract positions first")
    p.set_defaults(func=_cmd_rs)

    p = sub.add_parser("seq-of", help="read a tableau family back into a sequence")
    p.add_argument("tableaux", help="path to a JSON tableau document")
    p.set_defaults(func=_cmd_seq_of)

    p = sub.add_parser("interchange", help="search for an interchange path")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--shifted", action="store_true")
    p.add_argument(
        "--k", type=_int_option, default=None,
        help="also report whether the shifted insertions agree after adding k",
    )
    p.set_defaults(func=_cmd_interchange)

    p = sub.add_parser("rs-inf", help="insert an infinite block")
    p.add_argument("block", help="path to a JSON block document")
    p.set_defaults(func=_cmd_rs_inf)

    p = sub.add_parser("cls-level", help="level set of annihilator parameters")
    p.add_argument("params", help="\"r',r'',g;X;Y\"")
    p.add_argument("--level", type=_int_option, required=True)
    p.add_argument("--bound", type=_int_option, required=True)
    p.set_defaults(func=_cmd_cls_level)

    p = sub.add_parser("cls-gamma", help="distinguished weight at doubled level")
    p.add_argument("params")
    p.add_argument("--level", type=_int_option, required=True)
    p.set_defaults(func=_cmd_cls_gamma)

    p = sub.add_parser("cls-member", help="test level-set membership")
    p.add_argument("params")
    p.add_argument("vector", help="comma-separated weight, e.g. \"2,1,0\"")
    p.set_defaults(func=_cmd_cls_member)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader closed stdout: write nothing more, and point stdout at
        # devnull so that the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        print(json.dumps({"error": str(exc)}, separators=(",", ":")))
        return 1


if __name__ == "__main__":
    sys.exit(main())
