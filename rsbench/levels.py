"""Workload `levels`: level sets and membership of annihilator parameters.

Why: only the level-set code works here and the insertion kernel does
nothing, so this is the bypass case for any change to insertion.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

import oracles
from common import CliCase, one_json_line

LEVELS = (3, 4, 5, 6)
BOUNDS = (3, 4, 5)
# Tuples at level 6 with bound 5 cost up to twenty times the median item;
# with them the 90th percentile was a draw between seeds.
LEFT_OUT = {(6, 5)}
# Cost grows steeply with r'+r''+g+|X|+|Y|, and within one weight it
# still spans ten to twenty times, most of all with g.  So every
# (level, bound) pair gets a tuple of each weight and each g where one
# exists: seeds then differ in which tuples, not in how heavy they are.
WEIGHTS = tuple(range(1, 10))
GS = (0, 1, 2)
# Level 6 holds the heaviest tenth of the items, so its cells get three
# tuples each: with one, the 90th percentile hung on a few draws.
DRAWS = {6: 3}
Q_UNION_LEVELS = (3, 4)  # q_union_level on even weights at these levels
PARTITIONS = ((), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1), (4,), (3, 1), (2, 2),
              (2, 1, 1), (1, 1, 1, 1))
CLI_LEVEL = 3  # every third item of CLI_LEVEL_LEVELS runs cls-level, and so on
CLI_LEVEL_LEVELS = (3, 4)
CLI_GAMMA = 9
CLI_MEMBER = 3


@dataclass
class LevelItem:
    params: tuple  # (r1, r2, g, X, Y)
    level: int
    bound: int
    vectors: list
    q_union: bool
    answer: tuple | None = field(default=None, repr=False)  # verified (level set, gamma, members)


def params_arg(params) -> str:
    r1, r2, g, x, y = params
    return f"{r1},{r2},{g};{','.join(map(str, x))};{','.join(map(str, y))}"


def _by_weight(n: int) -> dict:
    """Parameter tuples defined at level n, keyed by r'+r''+g+|X|+|Y|."""
    out: dict = {}
    for r1, r2, g in itertools.product(range(3), repeat=3):
        for x in PARTITIONS:
            for y in PARTITIONS:
                if n > r1 + len(x) and n > r2 + len(y):
                    out.setdefault(r1 + r2 + g + sum(x) + sum(y), []).append((r1, r2, g, x, y))
    return out


def _vec_lines(vecs) -> str:
    return "".join(",".join(map(str, v)) + "\n" for v in sorted(vecs, reverse=True))


class Levels:
    name = "levels"

    def __init__(self, seed: int, api, docdir: str):
        self.api = api
        rng = random.Random(f"levels-{seed}")
        self.items = []
        for n in LEVELS:
            pool = _by_weight(n)
            for b in BOUNDS:
                if (n, b) in LEFT_OUT:
                    continue
                for weight in WEIGHTS:
                    for g in GS:
                        tuples = [t for t in pool[weight] if t[2] == g]
                        for _ in range(DRAWS.get(n, 1) if tuples else 0):
                            self.items.append(LevelItem(
                                rng.choice(tuples), n, b, oracles.dominant_vectors(n, b),
                                n in Q_UNION_LEVELS and weight % 2 == 0,
                            ))
        self.cli = self._cli_cases(rng)
        rng.shuffle(self.items)

    def run(self, item: LevelItem):
        api = self.api
        r1, r2, g, x, y = item.params
        p = api.cls_params(r1, r2, g, x, y)
        level = api.cls_level(p, item.level, item.bound)
        gam = api.gamma(p, item.level)
        members = [api.member(p, v) for v in item.vectors]
        union = None
        if item.q_union:
            union = api.q_union_level(r1 + r2, g, x, y, item.level, item.bound)
        return level, gam, members, union

    def canon(self, out) -> str:
        level, gam, members, union = out
        return repr((sorted(level), gam, members, sorted(union) if union is not None else None))

    def check(self, item: LevelItem, out) -> str | None:
        level, gam, members, union = out
        if not all(oracles.is_normal_dominant(v, item.level) for v in level):
            return "level set holds a vector that is not normalized dominant"
        for v, m in zip(item.vectors, members):
            if m != (v in level):
                return f"member{v} disagrees with the enumerated level set"
        if not oracles.is_normal_dominant(gam, 2 * item.level):
            return "gamma is not a normalized dominant vector of the doubled level"
        r1, r2, g, x, y = item.params
        if not self.api.member(self.api.cls_params(r1, r2, g, x, y), gam):
            return "gamma is not a member of its own level set"
        if union is not None and not level <= union:
            return "q_union_level misses a vector of one of its splits"
        item.answer = (level, gam, members)
        return None

    def _cli_cases(self, rng) -> list:
        """Commands on every CLI_LEVEL-th, CLI_GAMMA-th and CLI_MEMBER-th
        item in (level, bound, weight) order, so that each seed gets the
        same mix of cells and weights.  cls-level, whose cost spans orders
        of magnitude at the higher levels, runs on the lower ones only."""
        cases = []
        for item in [it for it in self.items if it.level in CLI_LEVEL_LEVELS][::CLI_LEVEL]:
            argv = ["cls-level", params_arg(item.params), f"--level={item.level}",
                    f"--bound={item.bound}"]
            cases.append(CliCase(argv, check=_answer_check(item, lambda a: _vec_lines(a[0]))))
        for item in self.items[CLI_GAMMA // 2::CLI_GAMMA]:
            argv = ["cls-gamma", params_arg(item.params), f"--level={item.level}"]
            cases.append(CliCase(
                argv, check=_answer_check(item, lambda a: ",".join(map(str, a[1])) + "\n")))
        for item in self.items[1::CLI_MEMBER]:
            j = rng.randrange(len(item.vectors))
            argv = ["cls-member", params_arg(item.params), ",".join(map(str, item.vectors[j]))]
            cases.append(CliCase(argv, check=_member_check(item, j)))
        cases += _malformed(rng)
        rng.shuffle(cases)
        return cases


def _answer_check(item: LevelItem, render):
    def check(out: str) -> str | None:
        if item.answer is None:
            return "no verified API answer for these parameters"
        return None if out == render(item.answer) else "output differs from the verified answer"

    return check


def _member_check(item: LevelItem, j: int):
    def check(out: str) -> str | None:
        if item.answer is None:
            return "no verified API answer for these parameters"
        ok = one_json_line(out) == {"member": item.answer[2][j]}
        return None if ok else "cls-member differs from the verified answer"

    return check


def _malformed(rng) -> list:
    """A fixed share of arguments that must be rejected with exit 1."""
    r = rng.randint(0, 2)
    bad = [
        ("two-groups", ["cls-level", f"{r},0,0;1", "--level=3", "--bound=3"]),
        ("short-first-group", ["cls-level", f"{r},0;;", "--level=3", "--bound=3"]),
        ("not-a-number", ["cls-gamma", f"x,{r},0;;", "--level=3"]),
        ("increasing-partition", ["cls-level", f"{r},0,0;1,2;", "--level=4", "--bound=3"]),
        ("level-too-small", ["cls-level", f"2,{r},0;2,1;", "--level=3", "--bound=3"]),
        ("gamma-level-too-small", ["cls-gamma", f"2,{r},0;1,1,1;", "--level=2"]),
        ("not-dominant", ["cls-member", f"{r},0,0;;", "1,2,0"]),
        ("bad-entry", ["cls-member", f"{r},0,0;;", "2,y,0"]),
        ("zero-part", ["cls-member", f"{r},0,0;0;", "2,1,0"]),
        ("member-level-too-small", ["cls-member", f"2,{r},0;1;", "1,0"]),
    ]
    return [CliCase(argv, kind=f"malformed:{what}") for what, argv in bad]
