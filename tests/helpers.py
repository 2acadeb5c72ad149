"""Random object generators and oracles shared across the test modules."""

import enum
import importlib.util
import itertools
import os
import re
import subprocess
import sys
from bisect import bisect_right
from collections import deque
from dataclasses import replace
from fractions import Fraction
from operator import add, itemgetter
from pathlib import Path

from rsinf.cls import (
    _SPANS, ClsParams, _check_level, _int, _split_linf_rinf, factorization,
)
from rsinf._kernel import insert_sequence
from rsinf.core import (
    FieldElem, Tableau, TableauFamily, _class_key, elem, from_rational,
)
from rsinf.rs_finite import InterchangePath, admissible, apply_interchange, rs, seq_of
from rsinf.rs_infinite import (
    Axis, EventuallyConstantSeq, InfiniteRSResult, StablyDecreasingSeq, _first,
    eventually_constant, partition_from_row, stably_decreasing, star_seq,
)

ANCHORS = (Fraction(0), "a", "b")


def _load_oracles():
    """The benchmark's reference module, which imports nothing from
    rsinf, loaded by path: rsbench/ is not a package."""
    path = Path(__file__).resolve().parents[1] / "rsbench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("rsbench_oracles", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


oracles = _load_oracles()


def in_child(code: str, timeout: float = 60):
    """Run code, which imports rsinf, in a child with a deadline."""
    pkg_dir = os.path.dirname(os.path.abspath(importlib.import_module("rsinf").__file__))
    env = {**os.environ, "PYTHONPATH": os.path.dirname(pkg_dir)}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=timeout)


def walk(rng, f, shifted):
    """f after up to five random interchanges of one variant."""
    g = f
    for _ in range(rng.randint(0, 5)):
        opts = [i for i in range(1, len(g)) if admissible(g, i, shifted=shifted)]
        if not opts:
            break
        g = apply_interchange(g, rng.choice(opts), shifted=shifted)
    return g


def pairs_of(values) -> tuple:
    """A word as the oracles read it: (class label, offset) pairs, the
    label printed as rsbench/oracles.py prints it ("0", "1/2", "a", "-b")."""
    return tuple((str(e.anchor), e.offset) for e in values)


def unchecked_tableau_sites(label=None):
    """(module, "_unchecked_tableau", label) for every loaded rsinf module
    that binds core's unchecked tableau constructor, so that a probe which
    patches them all, with Tableau.__post_init__, sees every tableau built."""
    sites = [
        (mod, "_unchecked_tableau", label)
        for name, mod in list(sys.modules.items())
        if (name == "rsinf" or name.startswith("rsinf.")) and hasattr(mod, "_unchecked_tableau")
    ]
    assert sites, "no module binds rsinf.core._unchecked_tableau"
    return sites


def fraction_fieldelem_check(anchor, offset):
    """FieldElem's check as it was with Fraction comparisons: raises what
    FieldElem(anchor, offset) raised, and returns None where it built."""
    if isinstance(anchor, Fraction):
        if not 0 <= anchor < 1:
            raise ValueError(f"rational anchor {anchor} not reduced into [0,1)")
    elif isinstance(anchor, str):
        if not re.fullmatch(r"-?[A-Za-z_][A-Za-z_0-9]*", anchor):
            raise ValueError(f"bad symbol name {anchor!r}")
    else:
        raise TypeError(f"anchor must be Fraction or str, got {type(anchor)!r}")
    if not isinstance(offset, int):
        raise TypeError(f"offset must be int, got {offset!r}")


def floor_from_rational(q) -> FieldElem:
    """from_rational as it was: floor, subtract, and a fresh anchor each time."""
    q = Fraction(q)
    floor = q.numerator // q.denominator
    return FieldElem(q - floor, floor)


def fraction_negate(e: FieldElem) -> FieldElem:
    """FieldElem.negate as it was: Fraction arithmetic on rational anchors."""
    if isinstance(e.anchor, Fraction):
        return from_rational(-(e.anchor + e.offset))
    return e.negate()


def setdefault_insert_by_class(vals) -> dict:
    """rs's grouping as it was: one dict lookup per entry, keyed by the
    hashed anchor; a dict from the first anchor seen in each class to the
    rows of the input's own entries, each box holding an entry of the
    offset the kernel put there."""
    by_class: dict = {}
    for e in vals:
        by_class.setdefault(e.anchor, []).append(e)
    out = {}
    for anchor, es in by_class.items():
        by_offset = {e.offset: e for e in es}
        out[anchor] = tuple(
            tuple(by_offset[x] for x in row) for row in insert_sequence([e.offset for e in es])
        )
    return out


class Comparison(enum.Enum):
    INCOMPARABLE = "incomparable"
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"


def compare_z(a: FieldElem, b: FieldElem) -> Comparison:
    """Compare two values in the integral partial order: values with
    different anchors are incomparable, otherwise the offsets decide."""
    if _class_key(a.anchor) != _class_key(b.anchor):
        return Comparison.INCOMPARABLE
    if a.offset < b.offset:
        return Comparison.LESS
    if a.offset > b.offset:
        return Comparison.GREATER
    return Comparison.EQUAL


def shift_by_int(a: FieldElem, k: int) -> FieldElem:
    return a.shift(k)


def negate(a: FieldElem) -> FieldElem:
    return a.negate()


def rand_tableau(rng, anchor, max_boxes):
    """A random valid tableau: strict rows, weak columns, partition shape."""
    lengths = []
    left = max_boxes
    prev = None
    while left > 0 and (prev is None or prev > 0) and rng.random() < 0.8:
        top = prev if prev is not None else min(5, left)
        if top == 0:
            break
        n = rng.randint(1, min(top, left))
        lengths.append(n)
        left -= n
        prev = n
        if len(lengths) >= 4:
            break
    if not lengths:
        lengths = [1]
    rows = []
    for r, n in enumerate(lengths):
        row = []
        for c in range(n):
            ubs = []
            if r > 0:
                ubs.append(rows[r - 1][c].offset)
            if c > 0:
                ubs.append(row[c - 1].offset - 1)
            ub = min(ubs) if ubs else rng.randint(-3, 6)
            row.append(FieldElem(anchor, ub - rng.randint(0, 1)))
        rows.append(tuple(row))
    return Tableau(anchor, tuple(rows))


def rand_family(rng, max_classes=3, max_boxes=12):
    k = rng.randint(1, max_classes)
    chosen = rng.sample(ANCHORS, k)
    budget = max_boxes
    tabs = []
    for i, anchor in enumerate(chosen):
        cap = budget - (k - 1 - i)
        boxes = rng.randint(1, max(1, min(cap, 8)))
        budget -= boxes
        tabs.append(rand_tableau(rng, anchor, boxes))
    return TableauFamily(tuple(tabs))


def rand_block(rng, axis, max_exc=5, lo=-6, hi=6):
    window = [rng.randint(lo, hi) for _ in range(rng.randint(0, max_exc))]
    if axis is Axis.NEG:
        return eventually_constant(axis, window, left_tail=rng.randint(lo, hi))
    if axis is Axis.POS:
        return eventually_constant(axis, window, right_tail=rng.randint(lo, hi))
    return eventually_constant(
        axis,
        window,
        edge=rng.randint(-3, 3),
        left_tail=rng.randint(lo, hi),
        right_tail=rng.randint(lo, hi),
    )


def rand_entry(rng, cls, bound):
    """An entry of class cls ("" for the integers, "1/2", "1/3" or a
    symbol) with offset up to +-bound: an int or a literal."""
    k = rng.randint(-bound, bound)
    if cls in ("1/2", "1/3"):
        d = int(cls[-1])
        return f"{k * d + 1}/{d}"
    return f"{cls}{k:+d}" if cls else k


def rand_block_doc(rng):
    """An rs-inf block document: a NEG, POS or ALL block with tails in an
    integer, fractional or symbol class, up to 10^3 apart, and one ALL
    block in ten with its tails in two classes; the window has up to 30
    entries, mostly in the tails' class, with offsets up to +-30."""
    classes = ("", "1/2", "1/3", "a", "-b")
    law = rng.choice(classes)
    pool = (law, law, law, rng.choice(classes), rng.choice(classes))
    n = rng.randint(0, rng.choice((4, 12, 30)))
    doc = {
        "axis": rng.choice(("neg", "pos", "all")),
        "exceptions": [rand_entry(rng, rng.choice(pool), 30) for _ in range(n)],
    }
    bound = rng.choice((3, 30, 500))
    if doc["axis"] != "pos":
        doc["left_tail"] = rand_entry(rng, law, bound)
    if doc["axis"] != "neg":
        other = rng.choice(classes) if rng.random() < 0.1 else law
        doc["right_tail"] = rand_entry(rng, other, bound)
    return doc


def bfs_connected(f, g, shifted=False):
    """Breadth-first search over the whole rearrangement class, through
    the moves of rsbench/oracles.py, which shares no code with rsinf: a
    shortest interchange path from f to g trying positions in increasing
    order, or None.  An oracle for short words."""
    start, goal = pairs_of(f), pairs_of(g)
    if len(start) != len(goal):
        return None
    if start == goal:
        return InterchangePath(())
    prev = {start: None}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for i in range(1, len(cur)):
            if not oracles.admissible(cur, i, shifted):
                continue
            nxt = tuple(oracles.interchange(cur, i, shifted))
            if nxt in prev:
                continue
            prev[nxt] = (cur, i)
            if nxt == goal:
                steps = []
                while prev[nxt] is not None:
                    nxt, i = prev[nxt]
                    steps.append((i, shifted))
                return InterchangePath(tuple(reversed(steps)))
            queue.append(nxt)
    return None


def raw_value(x, p):
    """The value of an EventuallyConstantSeq or StablyDecreasingSeq at p,
    read straight from its fields: the window runs up to ``edge`` on NEG
    and from ``edge`` otherwise, and a tail gives its constant (raw
    values) or its law minus p (shifted values).  Raises ValueError
    outside the domain."""
    first = x.edge - len(x.window) + 1 if x.axis is Axis.NEG else x.edge
    if (x.axis is Axis.NEG and p > x.edge) or (x.axis is Axis.POS and p < x.edge):
        raise ValueError(f"{p} lies outside the domain")
    if first <= p < first + len(x.window):
        return x.window[p - first]
    if isinstance(x, EventuallyConstantSeq):
        return x.left_tail if p < first else x.right_tail
    return (x.left_law if p < first else x.right_law).shift(-p)


def weave_value(positions, values, f2, p):
    """The value at p of f2 with `values` woven in at `positions`, by
    definition: an inserted value sits at its position, and every other
    entry of f2 moves past the insertions on its side: up from below on
    POS and ALL, down from above on NEG.  Raises ValueError where that
    entry would come from outside the domain of f2."""
    if p in positions:
        return elem(values[positions.index(p)])
    if f2.axis is Axis.NEG:
        return raw_value(f2, p + sum(q > p for q in positions))
    return raw_value(f2, p - sum(q < p for q in positions))


def pair_insert(offsets, positions):
    """Schensted bumping over (offset, position) pairs, keyed as
    (-offset, -position): larger offset first, and among equal offsets
    larger position first.  Returns rows of indices into the input.  The
    pair-keyed form of the kernel, kept as its oracle."""
    key_rows, idx_rows = [], []
    for idx, (offset, position) in enumerate(zip(offsets, positions)):
        key = (-offset, -position)
        r = 0
        while r < len(key_rows):
            row = key_rows[r]
            i = bisect_right(row, key)
            if i == len(row):
                break
            key, row[i] = row[i], key
            idx, idx_rows[r][i] = idx_rows[r][i], idx
            r += 1
        if r == len(key_rows):
            key_rows.append([])
            idx_rows.append([])
        key_rows[r].append(key)
        idx_rows[r].append(idx)
    return idx_rows


def frontier_split(u, r1, r2):
    """Whether u = a + b with a supported on the first r1 coordinates and
    b constant on the first n - r2, both normalized dominant, decided
    position by position: carry the set of possible (a_i, b_i) pairs,
    requiring a and b weakly decreasing and b exactly constant up to the
    cut.  The dynamic program the closed-form split replaced, kept as its
    oracle."""
    n = len(u)
    if any(x < 0 for x in u) or u[-1] != 0:
        return False
    cut = n - r2
    prev = None
    for i in range(n):
        ui = u[i]
        if i >= r1:
            cand = [(0, ui)]
        else:
            cand = [(a, ui - a) for a in range(ui, -1, -1)]
        if prev is None:
            frontier = set(cand)
        else:
            frontier = set()
            for a, b in cand:
                for pa, pb in prev:
                    if a > pa:
                        continue
                    if (b != pb) if i < cut else (b > pb):
                        continue
                    frontier.add((a, b))
                    break
        if not frontier:
            return False
        prev = frontier
    return True


def normalize(v):
    """Shift so the last entry is zero; requires a dominant vector."""
    t = tuple(int(x) for x in v)
    if any(a < b for a, b in zip(t, t[1:])):
        raise ValueError(f"{t} is not weakly decreasing")
    return tuple(x - t[-1] for x in t) if t else t


def f_kn(k: int, n: int):
    """k ones followed by zeros, normalized (so k = n gives zeros)."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if k == n:
        return (0,) * n
    return (1,) * k + (0,) * (n - k)


# the k whose step vectors f_{k,n} make up each finite family at level n
FINITE_STEPS = {
    "L": lambda i, n: range(min(i, n) + 1),
    "R": lambda i, n: range(max(n - i, 0), n + 1),
    "E": lambda i, n: range(n),
}


def search_member(p, vec):
    """Membership by searching for a decomposition: every choice of one
    step vector per copy of each finite factor, memoised on dead
    (factor, residual) pairs, with frontier_split deciding the residual.
    The search that one-pass membership replaced, kept as its oracle."""
    v = normalize(vec)
    n = len(v)
    finite = [
        (sorted({f_kn(k, n) for k in FINITE_STEPS[kind](i, n)}, reverse=True), mult)
        for kind, i, mult in factorization(p)
        if kind in FINITE_STEPS
    ]
    dead = set()

    def dfs(fi, residual):
        if fi == len(finite):
            return frontier_split(residual, p.r1, p.r2)
        if (fi, residual) in dead:
            return False
        vecs, mult = finite[fi]
        for combo in itertools.combinations_with_replacement(vecs, mult):
            nxt = list(residual)
            for w in combo:
                for i in range(n):
                    nxt[i] -= w[i]
            if min(nxt) >= 0 and dfs(fi + 1, tuple(nxt)):
                return True
        dead.add((fi, residual))
        return False

    return dfs(0, v)


def loop_gamma(p: ClsParams, n: int) -> tuple:
    """gamma(p, n) for a level that fits p, by adding each factor's
    coefficient to every entry below its step, one loop per factor: the
    form the suffix sum replaced, kept as its oracle."""
    length = 2 * n
    total = [0] * length
    for kind, idx, mult in factorization(p):
        k = n if kind == "E" else idx if kind[0] == "L" else length - idx
        coef = 2 * idx - 1 if kind.endswith("inf") else mult
        for i in range(k):
            total[i] += coef
    return tuple(total)


def sweep_member(p: ClsParams, vec, n: int | None = None) -> bool:
    """Membership by an earliest-deadline allocation, with the checks
    and messages of member: the sweep that the interval test on cached
    capacities replaced, kept as its oracle.

    In differences d_k = v_k - v_{k+1}, f_{k,n} is one unit at k, so each
    finite factor (kind, i, m) supplies up to m units, each on its
    _SPANS interval, and L-inf/R-inf absorb anything at the free
    positions (_split_linf_rinf).  A factor may take its zero vector, so
    v is a member exactly when the finite factors cover d_k at every
    non-free k: a matching in a convex bipartite graph.

    The sweep gives each unit of demand, left to right, to a factor with
    units left whose interval ends first (Glover 1967), which is exact.
    Take a covering allocation that agrees with the sweep up to a unit at
    k that the sweep gives F and it gives G.  If it spends one of F's
    remaining units on a later unit at k', then k <= k' <= end(F) <=
    end(G), so the two units can trade factors; otherwise F has a unit
    to spare.  Either way it still covers and agrees one unit longer.
    """
    t = tuple(vec)
    d = []  # d[k - 1] is the difference at k
    for k, x in enumerate(t):
        if type(x) is not int:
            _int(x, "an entry of the weight")
        if k:
            d.append(t[k - 1] - x)
    if min(d, default=0) < 0:
        raise ValueError(f"{tuple(map(int, t))} is not weakly decreasing")
    if n is None:
        n = len(t)
    elif _int(n, "the level") != len(t):
        raise ValueError(f"vector has length {len(t)}, expected level {n}")
    _check_level(p, n)
    # [first, last, units left] of each finite factor, earliest last first
    supply = sorted(
        ([*_SPANS[kind](i, n), m] for kind, i, m in factorization(p) if kind in _SPANS),
        key=itemgetter(1),
    )
    for k in range(p.r1 + 1, n - p.r2):  # the positions that are not free
        if d[k - 1]:
            for s in supply:
                if s[0] <= k <= s[1]:
                    take = min(s[2], d[k - 1])
                    s[2] -= take
                    d[k - 1] -= take
    residual = tuple(itertools.accumulate(reversed(d), initial=0))[::-1]
    return _split_linf_rinf(residual, p.r1, p.r2)


def enumerated_basic_level(kind, i, n, bound):
    """One basic family's level-n weights, filtered from every bounded
    dominant vector for the unbounded kinds.  The enumeration that the
    interval search replaced, kept as its oracle."""
    if kind == "T":
        return frozenset({(0,) * n})
    if kind in FINITE_STEPS:
        return frozenset({(0,) * n, *(f_kn(k, n) for k in FINITE_STEPS[kind](i, n))})
    if kind == "Linf":
        return frozenset(v for v in oracles.dominant_vectors(n, bound) if not any(v[i:]))
    if kind == "Rinf":
        return frozenset(
            v for v in oracles.dominant_vectors(n, bound) if len(set(v[: max(n - i, 0)])) <= 1
        )
    if kind == "Einf":
        return frozenset(oracles.dominant_vectors(n, bound))
    raise ValueError(f"unknown family kind {kind!r}")


def product_cls_level(p, n, bound):
    """The level set as the Minkowski sum of the factors' enumerated level
    sets, one set product per copy of each factor.  The construction
    that the interval search replaced, kept as its oracle."""
    out = {(0,) * n}
    for kind, idx, mult in factorization(p):
        base = enumerated_basic_level(kind, idx, n, bound)
        for _ in range(mult):
            out = {tuple(map(add, u, v)) for u in out for v in base}
    return frozenset(out)


def explicit_extract(g: StablyDecreasingSeq, margin: int) -> InfiniteRSResult:
    """rs_infinite's extraction as it was: list every law value within
    margin of the window, insert the finite sequence, and read off the
    stable skeleton.  Kept as the oracle of the implicit-head insertion;
    stable_margin gives a margin it is exact from."""
    first = _first(g.axis, g.edge, len(g.window))
    last = first + len(g.window) - 1
    a = first - margin
    b = g.edge if g.axis is Axis.NEG else last + margin
    # the laws' values, then the window, then (ALL only) the right law's
    left, right = g.left_law, g.right_law
    values = [left.shift(-p) for p in range(a, first)]
    values.extend(g.window)
    values.extend(right.shift(-p) for p in range(last + 1, b + 1))
    family = rs(values)
    law_anchor = left.anchor
    law_key = _class_key(law_anchor)
    t1_rows = next((t.rows for t in family if _class_key(t.anchor) == law_key), None)
    if t1_rows is None:
        raise ValueError("window too small: no law-class values present")

    row_vals = t1_rows[0]
    # row 1 ends at b on NEG and starts at a on ALL, like the window
    edge = b if g.axis is Axis.NEG else a
    p0 = _first(g.axis, edge, len(row_vals))
    first_row = stably_decreasing(
        g.axis, row_vals, edge=edge, left_law=row_vals[0].shift(p0),
        right_law=row_vals[-1].shift(p0 + len(row_vals) - 1) if g.axis is Axis.ALL else None,
    )

    lower_rows = t1_rows[1:]
    finite = tuple(t for t in family if _class_key(t.anchor) != law_key)
    rest: list[Tableau] = []
    if lower_rows:
        rest.append(Tableau(law_anchor, lower_rows))
    rest.extend(finite)
    underline = seq_of(rest) if rest else ()
    return InfiniteRSResult(g.axis, first_row, lower_rows, finite, underline)


def stable_margin(g: StablyDecreasingSeq) -> int:
    """A NEG or ALL window margin past which growth changes no result.

    Let the explicit window occupy w_lo..w_hi (so w_hi >= w_lo - 1), the
    left law have offset l and, on ALL, the right law offset r, and let
    hi and lo be the largest and smallest law-class window offsets.  The
    margin is max(d_left, d_right, d_gap, 1) with d_left = hi - (l -
    w_lo) + 1, d_right = (r - w_hi) - lo + 1 and d_gap = r - l + 1 (a
    term without window entries is left out).  Margin m inserts the
    positions a = w_lo - m .. b, with b = w_hi + m on ALL, w_hi on NEG.

    Proof that margins m and m + 1 agree once m reaches the margin.  The
    law value at a, offset l - w_lo + m, exceeds every later law-class
    value (window: d_left; right tail, at most r - w_lo: d_gap), so it
    stays in column 0 of row 1 and nothing bumps it; the value that
    m + 1 prepends at a - 1 is larger still, and the rest of the
    insertion runs unchanged one column over.  On ALL the law value at
    b, offset r - w_hi - m, is below every earlier law-class value
    (window: d_right; left tail, at least l - w_hi: d_gap), so it ends
    row 1 and bumps nothing, and so does the value appended at b + 1.
    Other classes occur only in the explicit window.  So growth only
    adds law values at the grown ends of row 1, the laws read off its
    end values stay the same, and stably_decreasing strips the added
    values.  The floor of 1 puts a law value into a window without one.
    A POS input goes through its mirror, a NEG input.
    """
    left = g.left_law
    w_lo = _first(g.axis, g.edge, len(g.window))
    same = [e.offset for e in g.window if _class_key(e.anchor) == _class_key(left.anchor)]
    d = 1
    if same:
        d = max(d, max(same) - (left.offset - w_lo) + 1)
    if g.axis is Axis.ALL:
        right = g.right_law.offset
        w_hi = w_lo + len(g.window) - 1
        if same:
            d = max(d, (right - w_hi) - min(same) + 1)
        d = max(d, right - left.offset + 1)
    return d


def ideal_of(block: EventuallyConstantSeq, res: InfiniteRSResult) -> tuple:
    """(r, g, X, Y) of block read off res = rs_infinite(plus_rho(block)).

    block_ideal as it was: it read the statistics off the full insertion,
    and POS through the mirror of the mirrored first row.  Kept as the
    oracle of block_ideal, which reads them off row 1 alone."""
    if block.axis is Axis.NEG:
        y = partition_from_row(res, block.left_tail)
        return (res.r, 0, (), y)
    if block.axis is Axis.POS:
        # star_seq(plus_rho(block)) == plus_rho(star_seq(block)), so the
        # mirrored first row is the NEG row of the mirrored block, whose
        # left tail is the negated right tail
        mirror = replace(res, axis=Axis.NEG, first_row=star_seq(res.first_row))
        x = partition_from_row(mirror, block.right_tail.negate())
        return (res.r, 0, x, ())
    row = res.first_row
    if _class_key(row.left_law.anchor) != _class_key(row.right_law.anchor):
        raise ValueError("two-sided block with tails in different classes")
    gdeg = row.left_law.offset - row.right_law.offset
    if gdeg < 0:
        raise AssertionError(
            f"negative degree {gdeg} extracted from a two-sided block"
        )
    return (res.r, gdeg, (), ())
