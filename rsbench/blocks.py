"""Workload `blocks`: infinite insertion and classification of weight specs.

Why: the stabilisation window of rs_infinite and classifier assembly
dominate here, while the kernel only sees short windows.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

import oracles
from common import CliCase, one_json_line

ITEMS = 100
EXCEPTIONS = tuple(range(0, 61, 5))  # window sizes, dealt evenly over regions
ZERO_EVERY = 10  # items whose index is 3 mod 10 get tails in two classes
TYPES = ("finite", "omega", "omega_star", "zeta")
CLI_CLASSIFY = 70
CLI_RS_INF = 50


@dataclass
class SpecItem:
    regions: list  # dicts holding (label, offset) values
    shift: int
    doc: dict
    answer: tuple | None = field(default=None, repr=False)  # verified (ideal, blocks)


def spec_doc(regions, k: int = 0) -> dict:
    """The JSON spec document, every value shifted by k."""
    def lits(vals):
        return [oracles.literal(v) for v in oracles.shift(vals, k)]

    def lit(v):
        return oracles.literal((v[0], v[1] + k))

    out = []
    for r in regions:
        t = r["type"]
        if t == "finite":
            out.append({"type": t, "values": lits(r["values"])})
        elif t == "omega":
            out.append({"type": t, "exceptions": lits(r["exceptions"]), "tail": lit(r["tail"])})
        elif t == "omega_star":
            out.append({"type": t, "tail": lit(r["tail"]), "exceptions": lits(r["exceptions"])})
        else:
            out.append({"type": t, "left_tail": lit(r["left_tail"]),
                        "exceptions": lits(r["exceptions"]), "right_tail": lit(r["right_tail"])})
    return {"regions": out}


def tails(regions) -> list:
    out = []
    for r in regions:
        if r["type"] in ("omega", "omega_star"):
            out.append(r["tail"])
        elif r["type"] == "zeta":
            out += [r["left_tail"], r["right_tail"]]
    return out


def segments(regions) -> list:
    """Cut the value stream at its constant stretches, as rs-inf block
    documents: the head (pos), each stretch-to-stretch middle (all) and
    the tail (neg)."""
    stream = []  # ("e", value) exceptions and ("c", value) stretches
    for r in regions:
        t = r["type"]
        if t == "finite":
            stream += [("e", v) for v in r["values"]]
        elif t == "omega":
            stream += [("e", v) for v in r["exceptions"]] + [("c", r["tail"])]
        elif t == "omega_star":
            stream += [("c", r["tail"])] + [("e", v) for v in r["exceptions"]]
        else:
            stream += [("c", r["left_tail"])] + [("e", v) for v in r["exceptions"]]
            stream += [("c", r["right_tail"])]
    cuts = [i for i, (kind, _) in enumerate(stream) if kind == "c"]

    def window(lo, hi):
        return [oracles.literal(v) for _, v in stream[lo:hi]]

    docs = [{"axis": "pos", "exceptions": window(0, cuts[0]),
             "right_tail": oracles.literal(stream[cuts[0]][1])}]
    for lo, hi in zip(cuts, cuts[1:]):
        docs.append({"axis": "all", "exceptions": window(lo + 1, hi),
                     "left_tail": oracles.literal(stream[lo][1]),
                     "right_tail": oracles.literal(stream[hi][1])})
    docs.append({"axis": "neg", "exceptions": window(cuts[-1] + 1, len(stream)),
                 "left_tail": oracles.literal(stream[cuts[-1]][1])})
    return docs


def _spec(rng, types: list, sizes: list, tail_class: str, zero: bool) -> list:
    others = [c for c in (oracles.INT_CLASS, "a", "1/2", "-c") if c != tail_class]

    def value():
        if rng.random() < 0.7:
            return (tail_class, rng.randint(-6, 6))
        return (rng.choice(others), rng.randint(-6, 6))

    def tail():
        return (tail_class, rng.randint(-4, 4))

    if all(t == "finite" for t in types):
        types[0] = "omega"
    if zero and sum({"omega": 1, "omega_star": 1, "zeta": 2}.get(t, 0) for t in types) < 2:
        types[next(i for i, t in enumerate(types) if t != "finite")] = "zeta"
    regions = []
    for t, size in zip(types, sizes):
        vals = [value() for _ in range(size)]
        if t == "finite":
            regions.append({"type": t, "values": vals})
        elif t == "zeta":
            regions.append({"type": t, "left_tail": tail(), "exceptions": vals, "right_tail": tail()})
        else:
            regions.append({"type": t, "exceptions": vals, "tail": tail()})
    if zero:
        # move the last stretch into another class
        last = regions[max(i for i, r in enumerate(regions) if r["type"] != "finite")]
        key = "right_tail" if last["type"] == "zeta" else "tail"
        label = "b" if tail_class != "b" else "a"
        last[key] = (label, last[key][1])
    return regions


def _ideal_json(ideal) -> dict:
    r, g, x, y = ideal
    return {"r": r, "g": g, "X": list(x), "Y": list(y)}


class Blocks:
    name = "blocks"

    def __init__(self, seed: int, api, docdir: str):
        self.api = api
        rng = random.Random(f"blocks-{seed}")
        # Region counts, types, window sizes and tail classes follow fixed
        # cycles, so that seeds differ in the values, not in the mix of shapes
        self.items = []
        r = 0
        for i in range(ITEMS):
            n = 1 + i % 4
            types = [TYPES[j % len(TYPES)] for j in range(r, r + n)]
            sizes = [EXCEPTIONS[5 * j % len(EXCEPTIONS)] for j in range(r, r + n)]
            r += n
            tail_class = "a" if i % 5 == 4 else oracles.INT_CLASS
            regions = _spec(rng, types, sizes, tail_class, zero=i % ZERO_EVERY == 3)
            shift = rng.choice([k for k in range(-5, 6) if k])
            self.items.append(SpecItem(regions, shift, spec_doc(regions)))
        self.cli = self._cli_cases(rng, docdir)
        rng.shuffle(self.items)

    def run(self, item: SpecItem):
        api = self.api
        spec = api.parse_spec(item.doc)
        ideal = api.classify(spec)
        star = api.classify(api.star_spec(spec))
        blocks = None
        if isinstance(ideal, api.ProperIdeal):
            head, middles, tail = api.segment(spec)
            blocks = [api.block_ideal(b) for b in (head, *middles, tail)]
        return ideal, star, blocks

    def canon(self, out) -> str:
        return repr(out)

    def check(self, item: SpecItem, out) -> str | None:
        api = self.api
        ideal, star, blocks = out
        zero = len({label for label, _ in tails(item.regions)}) > 1
        if zero or not isinstance(ideal, api.ProperIdeal):
            if not (zero and isinstance(ideal, api.ZeroIdeal) and isinstance(star, api.ZeroIdeal)):
                return "zero ideal exactly when the tails lie in two classes"
            item.answer = ("zero", None)
            return None
        key = (ideal.r, ideal.g, ideal.X, ideal.Y)
        if (star.r, star.g, star.X, star.Y) != (ideal.r, ideal.g, ideal.Y, ideal.X):
            return "star_spec does not swap X and Y"
        moved = api.classify(api.parse_spec(spec_doc(item.regions, item.shift)))
        if (moved.r, moved.g, moved.X, moved.Y) != key:
            return f"shifting every value by {item.shift} changed the ideal"
        (rh, gh, xh, yh), *mids, (rt, gt, xt, yt) = blocks
        if any(g < 0 or x or y for _, g, x, y in mids):
            return "a two-sided block has negative degree or one-sided data"
        if (gh, yh, gt, xt) != (0, (), 0, ()):
            return "one-sided block with two-sided data"
        total = (rh + rt + sum(m[0] for m in mids), sum(m[1] for m in mids), xh, yt)
        if total != key:
            return "classify disagrees with the block data of its segments"
        for part in (ideal.X, ideal.Y):
            if any(p <= 0 for p in part) or list(part) != sorted(part, reverse=True):
                return f"{part} is not a partition"
        item.answer = (key, blocks)
        return None

    def _cli_cases(self, rng, docdir: str) -> list:
        cases = []
        for i, item in enumerate(self.items[:CLI_CLASSIFY]):
            path = os.path.join(docdir, f"spec{i}.json")
            with open(path, "w") as fh:
                json.dump(item.doc, fh)
            cases.append(CliCase(["classify", path], check=_classify_check(item)))
        proper = [it for it in self.items if len({c for c, _ in tails(it.regions)}) == 1]
        for i in range(CLI_RS_INF):
            item = proper[i % len(proper)]
            docs = segments(item.regions)
            j = i % len(docs)
            path = os.path.join(docdir, f"block{i}.json")
            with open(path, "w") as fh:
                json.dump(docs[j], fh)
            cases.append(CliCase(["rs-inf", path], check=_rs_inf_check(item, j, docs[j]["axis"])))
        cases += _malformed(rng, docdir)
        rng.shuffle(cases)
        return cases


def _classify_check(item: SpecItem):
    def check(out: str) -> str | None:
        if item.answer is None:
            return "no verified API answer for this spec"
        got = one_json_line(out)["ideal"]
        key, _ = item.answer
        want = "zero" if key == "zero" else _ideal_json(key)
        return None if got == want else "classify output differs from the verified ideal"

    return check


def _rs_inf_check(item: SpecItem, j: int, axis: str):
    def check(out: str) -> str | None:
        if item.answer is None:
            return "no verified API answer for this block"
        got = one_json_line(out)
        want = item.answer[1][j]
        if got["ideal"] != _ideal_json(want) or got["r"] != want[0] or got["axis"] != axis:
            return "rs-inf output differs from block_ideal of the same segment"
        if len(got["underline"]) != want[0]:
            return "underline length is not r"
        return None

    return check


def _malformed(rng, docdir: str) -> list:
    """A fixed share of documents that must be rejected with exit 1."""
    k = str(rng.randint(-4, 4))
    specs = {
        "unknown-type": {"regions": [{"type": "omega_plus", "exceptions": [], "tail": k}]},
        "missing-tail": {"regions": [{"type": "omega", "exceptions": [k]}]},
        "zero-denominator": {"regions": [{"type": "omega", "exceptions": ["1/0"], "tail": k}]},
        "all-finite": {"regions": [{"type": "finite", "values": [k]}]},
    }
    blocks = {
        "unknown-axis": {"axis": "left", "exceptions": [], "left_tail": k},
        "wrong-tail": {"axis": "neg", "exceptions": [k], "right_tail": k},
        "tails-in-two-classes": {"axis": "all", "exceptions": [], "left_tail": k, "right_tail": "a"},
    }
    cases = []
    for cmd, docs in (("classify", specs), ("rs-inf", blocks)):
        for what, doc in docs.items():
            path = os.path.join(docdir, f"bad-{cmd}-{what}.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            cases.append(CliCase([cmd, path], kind=f"malformed:{what}"))
        path = os.path.join(docdir, f"bad-{cmd}.json")
        with open(path, "w") as fh:
            fh.write('{"regions": [')
        cases.append(CliCase([cmd, path], kind="malformed:not-json"))
    return cases
