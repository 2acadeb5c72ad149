"""Workload `words`: finite insertion of long seeded words.

Why: the bumping kernel and tableau construction do most of the work
here, and the lengths span two orders of magnitude.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

import oracles
from common import CliCase, family_canon, family_rows, one_json_line

# (length, count): counts fall as lengths grow so that each length band
# costs about the same per pass, and every seed gets the same bands.
LENGTHS = ((200, 67), (437, 20), (956, 8), (2091, 3), (4573, 1), (10000, 1))
OTHER_CLASSES = ("1/2", "2/3", "a", "-b")
TRACE_EVERY = 12  # items whose index is 5 mod 12 also run rs_trace
TRACE_LEN = 100
CLI_SHORTEST, CLI_LONGEST = 50, 200
CLI_RS = 160
CLI_SEQ_OF = 40


@dataclass
class WordItem:
    values: list
    literals: list
    trace_len: int


def _word(rng, n: int, distinct: bool) -> list:
    """About 80% integer entries, the rest spread over other classes.
    Distinct words draw offsets without repetition; duplicate-heavy words
    repeat each offset about ten times."""
    labels = [
        oracles.INT_CLASS if rng.random() < 0.8 else rng.choice(OTHER_CLASSES)
        for _ in range(n)
    ]
    if distinct:
        pools = {}
        for label in set(labels):
            count = labels.count(label)
            pools[label] = rng.sample(range(-2 * n, 2 * n), count)
        return [(label, pools[label].pop()) for label in labels]
    m = max(4, n // 20)
    return [(label, rng.randint(-m, m)) for label in labels]


def _tableau_doc(values) -> dict:
    rows = oracles.insertion(values)
    return {
        "tableaux": [
            {"class": label, "rows": [[oracles.literal((label, o)) for o in row] for row in rs]}
            for label, rs in rows.items()
        ]
    }


class Words:
    name = "words"

    def __init__(self, seed: int, api, docdir: str):
        self.api = api
        rng = random.Random(f"words-{seed}")
        plan = [n for n, count in LENGTHS for _ in range(count)]
        self.items = []
        for idx, n in enumerate(plan):
            values = _word(rng, n, distinct=idx % 2 == 0)
            self.items.append(
                WordItem(
                    values,
                    [oracles.literal(v) for v in values],
                    min(n, TRACE_LEN) if idx % TRACE_EVERY == 5 else 0,
                )
            )
        rng.shuffle(self.items)
        self.cli = self._cli_cases(rng, docdir)

    # -- API items ------------------------------------------------------

    def run(self, item: WordItem):
        api = self.api
        vals = [api.elem(s) for s in item.literals]
        fam = api.rs(vals)
        seq = api.seq_of(fam)
        shifted = api.j(vals)
        last = None
        if item.trace_len:
            steps = api.rs_trace(vals[: item.trace_len])
            last = (len(steps), steps[-1].family)
        return fam, seq, shifted, last

    def canon(self, out) -> str:
        fam, seq, shifted, last = out
        parts = [family_canon(fam), ",".join(map(str, seq)), family_canon(shifted)]
        if last:
            parts += [str(last[0]), family_canon(last[1])]
        return "\n".join(parts)

    def check(self, item: WordItem, out) -> str | None:
        fam, seq, shifted, last = out
        err = _greene(fam, item.values) or _greene(shifted, oracles.rho(item.values))
        if err:
            return err
        if len(seq) != len(item.values) or self.api.rs(seq) != fam:
            return "rs(seq_of(P)) != P"
        if item.trace_len:
            n_steps, fam_last = last
            prefix = [self.api.elem(s) for s in item.literals[: item.trace_len]]
            if n_steps != item.trace_len or fam_last != self.api.rs(prefix):
                return "last rs_trace step differs from rs"
        return None

    # -- CLI cases ------------------------------------------------------

    def _cli_cases(self, rng, docdir: str) -> list:
        cases = []
        for i in range(CLI_RS):
            n = round(CLI_SHORTEST * (CLI_LONGEST / CLI_SHORTEST) ** (i / (CLI_RS - 1)))
            values = _word(rng, n, distinct=i % 4 < 2)
            # a leading negative entry hits a known defect (README.md),
            # which the defect probes cover; workload calls must succeed
            while oracles.literal(values[0]).startswith("-"):
                values = _word(rng, n, distinct=i % 4 < 2)
            shifted = i % 2 == 1
            argv = ["rs", ",".join(oracles.literal(v) for v in values)]
            if shifted:
                argv.append("--shifted")
            cases.append(CliCase(argv, check=_rs_check(values, shifted)))
        for i in range(CLI_SEQ_OF):
            values = _word(rng, rng.randint(CLI_SHORTEST, CLI_LONGEST), distinct=i % 2 == 0)
            doc = _tableau_doc(values)
            path = os.path.join(docdir, f"tabs{i}.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            cases.append(CliCase(["seq-of", path], check=_seq_of_check(doc)))
        cases += _malformed(rng, docdir)
        rng.shuffle(cases)
        return cases


def _greene(fam, values) -> str | None:
    """Per class: the box count matches the input, and the first row is
    as long as the longest strictly decreasing subsequence."""
    classes = oracles.by_class(values)
    got = {t.anchor: t for t in fam}
    if set(got) != {oracles.anchor_of(c) for c in classes}:
        return "classes of the tableaux differ from the input"
    for label, offs in classes.items():
        t = got[oracles.anchor_of(label)]
        if t.size() != len(offs):
            return f"class {label}: {t.size()} boxes for {len(offs)} entries"
        if len(t.rows[0]) != oracles.longest_decreasing(offs):
            return f"class {label}: first row is not the longest decreasing subsequence"
    return None


def _rs_check(values, shifted: bool):
    def check(out: str) -> str | None:
        got = family_rows(one_json_line(out)["tableaux"])
        want = oracles.shifted_insertion(values) if shifted else oracles.insertion(values)
        return None if got == want else "rs output differs from the reference insertion"

    return check


def _seq_of_check(doc):
    want = {t["class"]: [[oracles.parse_literal(v)[1] for v in row] for row in t["rows"]]
            for t in doc["tableaux"]}

    def check(out: str) -> str | None:
        seq = [oracles.parse_literal(v) for v in one_json_line(out)["seq"]]
        return None if oracles.insertion(seq) == want else "seq-of does not reinsert to the document"

    return check


def _malformed(rng, docdir: str) -> list:
    """A fixed share of inputs that must be rejected with exit 1."""
    k = rng.randint(2, 9)
    bad_docs = {
        "empty-rows": {"tableaux": [{"class": "0", "rows": []}]},
        "increasing-row": {"tableaux": [{"class": "0", "rows": [[str(k), str(k + 1)]]}]},
        "missing-key": {"tables": []},
    }
    cases = []
    for what, doc in bad_docs.items():
        path = os.path.join(docdir, f"bad-{what}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        cases.append(CliCase(["seq-of", path], kind=f"malformed:{what}"))
    path = os.path.join(docdir, "bad-json.json")
    with open(path, "w") as fh:
        fh.write('{"tableaux": [')
    cases.append(CliCase(["seq-of", path], kind="malformed:not-json"))
    cases.append(CliCase(["seq-of", os.path.join(docdir, "missing.json")], kind="malformed:no-file"))
    for what, text in (
        ("empty-entry", f"{k},,{k + 1}"),
        ("bad-symbol", f"{k},x y"),
        ("zero-denominator", f"{k},1/0"),
        ("bad-fraction", f"{k},1/2/3"),
    ):
        cases.append(CliCase(["rs", text], kind=f"malformed:{what}"))
        cases.append(CliCase(["rs", text, "--shifted"], kind=f"malformed:{what}"))
    return cases

