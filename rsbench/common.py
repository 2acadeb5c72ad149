"""Pieces shared by the four workloads: CLI cases, outcomes, defect probes."""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import oracles

VALID = "valid"


@dataclass
class CliCase:
    """One in-process CLI call.

    ``kind`` is VALID or "malformed:<what>"; a malformed case must exit 1
    with a one-line {"error": ...}.  ``check`` inspects the stdout of a
    valid case and returns None or what is wrong.
    """

    argv: list
    kind: str = VALID
    check: Callable | None = None


@dataclass(frozen=True)
class Outcome:
    """What a CLI call did: returned ``code`` with ``out``, ended with
    SystemExit(``code``), or raised ``raised``."""

    code: int | None
    out: str
    exited: bool = False
    raised: str | None = None

    def canon(self) -> str:
        if self.raised:
            return f"raise:{self.raised}"
        return f"{'exit' if self.exited else 'ret'}:{self.code}:{self.out}"


def call_cli(main, argv) -> Outcome:
    """Call rsinf.cli.main in process with stdout and stderr captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            return Outcome(exc.code if isinstance(exc.code, int) else 1, "", exited=True)
        except Exception as exc:  # an escaped exception is a measured failure
            return Outcome(None, "", raised=type(exc).__name__)
    return Outcome(code, buf.getvalue())


def cli_failure(case: CliCase, res: Outcome) -> str | None:
    """None when the call behaved as documented, else a short reason."""
    if res.raised:
        return f"raised {res.raised}"
    if res.exited:
        return f"SystemExit({res.code})"
    if case.kind != VALID:
        if res.code != 1:
            return f"exit {res.code} on malformed input"
        lines = res.out.splitlines()
        try:
            ok = len(lines) == 1 and isinstance(json.loads(lines[0]).get("error"), str)
        except (ValueError, AttributeError):
            ok = False
        return None if ok else "malformed input without a one-line JSON error"
    if res.code != 0:
        return f"exit {res.code}"
    return case.check(res.out) if case.check else None


# Inputs that hit the defects known where the benchmark was defined (see
# README.md).  They are not part of any workload, whose operations must
# all succeed; each run calls them once, untimed, and reports what they did.
DEFECT_PROBES = (
    ("negative-leading-argument", ["rs", "-3,4"], None),
    ("negative-leading-argument", ["interchange", "-1,2", "2,-1"], None),
    ("seq-of-typeerror", ["seq-of", "{doc}"], {"tableaux": [["3"]]}),
    ("string-for-list", ["classify", "{doc}"],
     {"regions": [{"type": "omega", "exceptions": "55", "tail": "0"}]}),
    ("string-for-list", ["rs-inf", "{doc}"],
     {"axis": "neg", "exceptions": "55", "left_tail": "0"}),
)


def probe_defects(main, docdir: str) -> list:
    """Call every defect probe once: the defect, the argv, what the call
    did, and whether it still shows the defect."""
    out = []
    for i, (defect, argv, doc) in enumerate(DEFECT_PROBES):
        path = os.path.join(docdir, f"probe{i}.json")
        if doc is not None:
            with open(path, "w") as fh:
                json.dump(doc, fh)
        res = call_cli(main, [a.replace("{doc}", path) for a in argv])
        out.append({
            "defect": defect,
            "argv": argv,
            "outcome": res.canon().strip(),
            "shows": known_defect(argv, res) == defect,
        })
    return out


def known_defect(argv, res: Outcome) -> str | None:
    """The known defect a CLI outcome matches, if any."""
    positional = [a for a in argv[1:] if not a.startswith("--")]
    if res.exited and res.code == 2 and any(a.startswith("-") for a in positional):
        return "negative-leading-argument"
    if argv[0] == "seq-of" and res.raised == "TypeError":
        return "seq-of-typeerror"
    if argv[0] in ("classify", "rs-inf") and not res.exited and res.code == 0:
        return "string-for-list"
    return None


def one_json_line(out: str):
    lines = out.splitlines()
    if len(lines) != 1:
        raise ValueError(f"expected one line of output, got {len(lines)}")
    return json.loads(lines[0])


def family_rows(tableaux_json) -> dict:
    """CLI tableau list -> class label -> rows of offsets, read with the
    benchmark's own literal parser."""
    out = {}
    for t in tableaux_json:
        rows = []
        for row in t["rows"]:
            vals = [oracles.parse_literal(v) for v in row]
            if any(label != t["class"] for label, _ in vals):
                return {"<mixed classes>": t["class"]}
            rows.append([off for _, off in vals])
        out[t["class"]] = rows
    return out


def family_canon(family) -> str:
    """A stable text form of a TableauFamily for digests."""
    return "|".join(
        f"{t.anchor}:" + ";".join(",".join(str(v.offset) for v in row) for row in t.rows)
        for t in family
    )
