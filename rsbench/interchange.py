"""Workload `interchange`: interchange path search between short words.

Why: breadth-first search over a rearrangement class dominates here and
grows about fivefold per entry; no other workload reaches that code.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import oracles
from common import CliCase, one_json_line

LENGTHS = (5, 6, 7, 8, 9)
# (kind, pairs per length): half reachable by plain or shifted moves
KINDS = (("plain", 4), ("shifted", 8), ("unreachable", 12))
CANDIDATES = 45
CLI_LENGTHS = (5, 6)
CLI_KINDS = (("plain", 10), ("shifted", 20), ("unreachable", 30))


@dataclass
class PairItem:
    f: list
    g: list
    k: int


def _word(rng, n: int) -> list:
    return [(oracles.INT_CLASS, v) for v in rng.sample(range(-6, 7), n)]


def _walk(rng, f, shifted: bool) -> list:
    """A short random walk of admissible moves from f."""
    cur = list(f)
    for _ in range(rng.randint(1, 3)):
        opts = [i for i in range(1, len(cur)) if oracles.admissible(cur, i, shifted)]
        if not opts:
            break
        cur = oracles.interchange(cur, rng.choice(opts), shifted)
    return cur


def _pair(rng, n: int, kind: str, cli: bool):
    """A pair of the given kind.  For the CLI neither word starts with a
    negative entry: that hits a known defect (README.md), which the defect
    probes cover, and workload calls must succeed."""
    while True:
        f = _word(rng, n)
        if cli and f[0][1] < 0:
            continue
        if kind != "unreachable":
            g = _walk(rng, f, kind == "shifted")
            if not (cli and g[0][1] < 0):
                return f, g
            continue
        for _ in range(50):
            g = rng.sample(f, n)
            if cli and g[0][1] < 0:
                continue
            if (oracles.insertion(g) != oracles.insertion(f)
                    and oracles.shifted_insertion(g) != oracles.shifted_insertion(f)):
                return f, g


def _full_search(f, kind: str) -> int:
    """States the searches that do not reach their target visit: all words
    with the same insertion tableau, f^shape of them (hook length formula)."""
    plain, shifted = (
        oracles.standard_tableaux([len(r) for r in next(iter(rows.values()))])
        for rows in (oracles.insertion(f), oracles.shifted_insertion(f))
    )
    return {"plain": shifted, "shifted": plain}.get(kind, plain + shifted)


def _pairs(rng, lengths, kinds, cli=False) -> list:
    """A pair for every (length, kind) slot, each the median by search size
    of a few candidates.  Search cost varies by two orders of magnitude
    between words of one length; median candidates keep every seed's mix
    of costs close to the typical one."""
    out = []
    for n in lengths:
        for kind, count in kinds:
            for _ in range(count):
                cands = sorted((_pair(rng, n, kind, cli) for _ in range(CANDIDATES)),
                               key=lambda p: _full_search(p[0], kind))
                out.append(cands[CANDIDATES // 2])
    return out


def _arg(values) -> str:
    return ",".join(oracles.literal(v) for v in values)


class Interchange:
    name = "interchange"

    def __init__(self, seed: int, api, docdir: str):
        self.api = api
        rng = random.Random(f"interchange-{seed}")
        self.items = [PairItem(f, g, rng.randint(-2, 2))
                      for f, g in _pairs(rng, LENGTHS, KINDS)]
        rng.shuffle(self.items)
        self.cli = self._cli_cases(rng)

    def run(self, item: PairItem):
        api = self.api
        f = [api.elem(oracles.literal(v)) for v in item.f]
        g = [api.elem(oracles.literal(v)) for v in item.g]
        plain = api.connected(f, g)
        shifted = api.connected(f, g, shifted=True)
        return (
            None if plain is None else plain.steps,
            None if shifted is None else shifted.steps,
            api.joseph_equal(f, g),
            api.joseph_equal(f, g, k=item.k),
        )

    def canon(self, out) -> str:
        return repr(out)

    def check(self, item: PairItem, out) -> str | None:
        plain, shifted, je_any, je_k = out
        for steps, sh, same in (
            (plain, False, oracles.insertion(item.f) == oracles.insertion(item.g)),
            (shifted, True, oracles.shifted_insertion(item.f) == oracles.shifted_insertion(item.g)),
        ):
            if (steps is not None) != same:
                return f"connected(shifted={sh}) disagrees with equality of insertions"
            if steps is not None:
                if any(s != sh for _, s in steps):
                    return "path mixes move variants"
                err = oracles.path_error(item.f, item.g, [(i, sh) for i, _ in steps])
                if err:
                    return err
        if je_any != oracles.joseph_equal(item.f, item.g, None):
            return "joseph_equal(k=None) disagrees with shifted reachability"
        if je_k != oracles.joseph_equal(item.f, item.g, item.k):
            return f"joseph_equal(k={item.k}) disagrees with shifted reachability to g+k"
        return None

    def _cli_cases(self, rng) -> list:
        """Three calls per pair, on short pairs of their own."""
        cases = []
        for f, g in _pairs(rng, CLI_LENGTHS, CLI_KINDS, cli=True):
            item = PairItem(f, g, rng.randint(-2, 2))
            f, g = _arg(item.f), _arg(item.g)
            cases.append(CliCase(["interchange", f, g], check=_check(item, False, None)))
            cases.append(CliCase(["interchange", f, g, "--shifted"], check=_check(item, True, None)))
            cases.append(CliCase(["interchange", f, g, "--shifted", f"--k={item.k}"],
                                 check=_check(item, True, item.k)))
        k = str(rng.randint(1, 5))
        for what, f, g in (
            ("empty-entry", f"{k},,1", f"1,{k},"),
            ("bad-symbol", f"{k},x y", f"x y,{k}"),
            ("zero-denominator", f"{k},1/0", f"1/0,{k}"),
        ):
            for flags in ([], ["--shifted"], ["--shifted", f"--k={k}"]):
                cases.append(CliCase(["interchange", f, g, *flags], kind=f"malformed:{what}"))
        rng.shuffle(cases)
        return cases


def _check(item: PairItem, shifted: bool, k):
    def check(out: str) -> str | None:
        got = one_json_line(out)
        same = (oracles.shifted_insertion if shifted else oracles.insertion)
        reachable = same(item.f) == same(item.g)
        if got["connected"] != reachable:
            return "connected flag disagrees with equality of insertions"
        if reachable:
            err = oracles.path_error(item.f, item.g, [(i, shifted) for i in got["path"]])
            if err:
                return err
        if k is not None and got.get("joseph_equal") != oracles.joseph_equal(item.f, item.g, k):
            return "joseph_equal flag disagrees with shifted reachability to g+k"
        return None

    return check
