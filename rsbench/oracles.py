"""Reference code the benchmark checks answers against.

Nothing here imports rsinf.  Values are plain ``(label, offset)`` pairs:
``label`` names the integrality class the way the CLI prints it ("0" for
the integers, "1/2", "a", "-b"), and ``offset`` is the integer part.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from fractions import Fraction

INT_CLASS = "0"

_INT = re.compile(r"[+-]?\d+")
_FRAC = re.compile(r"([+-]?\d+)/(\d+)")
_SYM = re.compile(r"(-?[A-Za-z_][A-Za-z_0-9]*)([+-]\d+)?")


def literal(value) -> str:
    """The CLI literal of a value: "5", "7/2", "a", "a+3", "-b-1"."""
    label, off = value
    if label == INT_CLASS:
        return str(off)
    if "/" in label:
        p, q = (int(x) for x in label.split("/"))
        return f"{p + off * q}/{q}"
    return label if off == 0 else f"{label}{off:+d}"


def parse_literal(text: str):
    """Inverse of literal(), for checking printed output."""
    if _INT.fullmatch(text):
        return (INT_CLASS, int(text))
    m = _FRAC.fullmatch(text)
    if m:
        q = Fraction(int(m.group(1)), int(m.group(2)))
        off = q.numerator // q.denominator
        rest = q - off
        return (INT_CLASS if rest == 0 else f"{rest.numerator}/{rest.denominator}", off)
    m = _SYM.fullmatch(text)
    if m:
        return (m.group(1), int(m.group(2) or 0))
    raise ValueError(f"unreadable literal {text!r}")


def anchor_of(label: str):
    """The anchor rsinf stores for a class label (Fraction or symbol name)."""
    if label == INT_CLASS:
        return Fraction(0)
    if "/" in label:
        p, q = (int(x) for x in label.split("/"))
        return Fraction(p, q)
    return label


def by_class(values) -> dict:
    """Offsets of each class, in sequence order."""
    out: dict = {}
    for label, off in values:
        out.setdefault(label, []).append(off)
    return out


def rho(values) -> list:
    """Subtract each entry's 1-based position from its offset."""
    return [(label, off - i) for i, (label, off) in enumerate(values, start=1)]


def shift(values, k: int) -> list:
    return [(label, off + k) for label, off in values]


def longest_decreasing(offsets) -> int:
    """Length of the longest strictly decreasing subsequence (patience
    sorting on negated values).  By Greene's theorem this is the first-row
    length of the insertion tableau."""
    piles: list = []
    for x in offsets:
        i = bisect_left(piles, -x)
        if i == len(piles):
            piles.append(-x)
        else:
            piles[i] = -x
    return len(piles)


def insert_rows(offsets) -> list:
    """Schensted insertion with strictly decreasing rows: a new value bumps
    the leftmost entry not above it."""
    rows: list = []  # negated offsets, so each row is ascending
    for x in offsets:
        k = -x
        for row in rows:
            i = bisect_left(row, k)
            if i == len(row):
                row.append(k)
                break
            row[i], k = k, row[i]
        else:
            rows.append([k])
    return [[-k for k in row] for row in rows]


def insertion(values) -> dict:
    """Class label -> rows of offsets, one tableau per class."""
    return {label: insert_rows(offs) for label, offs in by_class(values).items()}


def shifted_insertion(values) -> dict:
    return insertion(rho(values))


def _gt(x, y) -> bool:
    return x[0] == y[0] and x[1] > y[1]


def _ge(x, y) -> bool:
    return x[0] == y[0] and x[1] >= y[1]


def admissible(values, i: int, shifted: bool) -> bool:
    """Whether 1-based positions i, i+1 admit an elementary interchange:
    entries of different classes always do; entries of one class need a
    neighbour that lies between them (Knuth's relations, decreasing form)."""
    w = rho(values) if shifted else list(values)
    a, b = w[i - 1], w[i]
    if a[0] != b[0]:
        return True
    if i + 1 < len(w):
        c = w[i + 1]
        if (_gt(b, c) and _ge(c, a)) or (_gt(a, c) and _ge(c, b)):
            return True
    if i >= 2:
        d = w[i - 2]
        if (_ge(b, d) and _gt(d, a)) or (_ge(a, d) and _gt(d, b)):
            return True
    return False


def interchange(values, i: int, shifted: bool) -> list:
    """Swap positions i, i+1; the shifted move also moves each entry by one."""
    out = list(values)
    a, b = out[i - 1], out[i]
    if shifted:
        out[i - 1], out[i] = (b[0], b[1] - 1), (a[0], a[1] + 1)
    else:
        out[i - 1], out[i] = b, a
    return out


def path_error(start, goal, steps) -> str | None:
    """Replay (position, shifted) steps; None when every step is admissible
    and the walk ends at goal."""
    cur = list(start)
    for i, sh in steps:
        if not 1 <= i < len(cur) or not admissible(cur, i, sh):
            return f"step {i} is not an admissible interchange"
        cur = interchange(cur, i, sh)
    if cur != list(goal):
        return "path does not end at the target"
    return None


def joseph_shift(f, g) -> int | None:
    """The only k for which j(f) can equal j(g + k), or None.

    Equal tableaux hold equal multisets per class, so the offset sums of
    the shifted words fix k class by class.
    """
    if len(f) != len(g):
        return None
    cf, cg = by_class(rho(f)), by_class(rho(g))
    if {c: len(v) for c, v in cf.items()} != {c: len(v) for c, v in cg.items()}:
        return None
    ks = set()
    for label, offs in cf.items():
        diff = sum(offs) - sum(cg[label])
        if diff % len(offs):
            return None
        ks.add(diff // len(offs))
    if len(ks) > 1:
        return None
    return ks.pop() if ks else 0


def joseph_equal(f, g, k: int | None) -> bool:
    if k is None:
        if len(f) != len(g):
            return False
        k = joseph_shift(f, g)
        if k is None:
            return False
    return shifted_insertion(f) == shifted_insertion(shift(g, k))


def standard_tableaux(shape) -> int:
    """Number of standard Young tableaux of a shape (hook length formula)."""
    hooks = 1
    for r, length in enumerate(shape):
        for c in range(length):
            below = sum(1 for rl in shape[r + 1:] if rl > c)
            hooks *= length - c + below
    return math.factorial(sum(shape)) // hooks


def dominant_vectors(n: int, bound: int) -> list:
    """Weakly decreasing n-vectors ending in 0 with entries at most bound."""
    out = []

    def grow(prefix, top):
        if len(prefix) == n - 1:
            out.append(tuple(prefix) + (0,))
            return
        for x in range(top, -1, -1):
            grow(prefix + [x], x)

    if n == 0:
        return [()]
    grow([], bound)
    return out


def is_normal_dominant(v, n: int) -> bool:
    return (
        len(v) == n
        and all(v[i] >= v[i + 1] for i in range(n - 1))
        and (n == 0 or v[-1] == 0)
    )
