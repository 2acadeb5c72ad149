"""Level sets of the weight families attached to annihilator parameters.

Weights at level n are weakly decreasing integer n-tuples, normalized so
the last entry is zero.  A parameter tuple (r', r'', g, X, Y) factors
into basic families; the level set of the parameter is the Minkowski sum
of the factors' level sets.  The three unbounded families are truncated
by an explicit entry bound when a level set is enumerated.  Membership
needs no bound: it is decided in one pass over the weight's differences.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import add, itemgetter

WeightVec = tuple[int, ...]


class LevelError(ValueError):
    """The requested level is too small for the parameters."""


def normalize(v) -> WeightVec:
    """Shift so the last entry is zero; requires a dominant vector."""
    t = tuple(int(x) for x in v)
    if any(t[i] < t[i + 1] for i in range(len(t) - 1)):
        raise ValueError(f"{t} is not weakly decreasing")
    if not t:
        return t
    last = t[-1]
    return tuple(x - last for x in t)


def f_kn(k: int, n: int) -> WeightVec:
    """k ones followed by zeros, normalized (so k = n gives zeros)."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if k == n:
        return (0,) * n
    return (1,) * k + (0,) * (n - k)


def _bounded_dominant(n: int, bound: int):
    """All normalized dominant n-vectors with entries at most bound."""
    if n == 0:
        yield ()
        return
    for head in itertools.combinations_with_replacement(
        range(bound, -1, -1), n - 1
    ):
        yield head + (0,)


# Each finite family at level n is the zero vector and the step vectors
# f_{k,n} for k in an interval [first, last] of 1..n-1, given here as a
# function of (i, n).  In difference form f_{k,n} is one unit at position
# k, so a family supplies one unit anywhere on its interval, or nothing.
_SPANS = {
    "T": lambda i, n: (1, 0),
    "L": lambda i, n: (1, min(i, n - 1)),
    "R": lambda i, n: (max(n - i, 1), n - 1),
    "E": lambda i, n: (1, n - 1),
}


def basic_level(kind: str, i: int, n: int, bound: int) -> frozenset:
    """Level-n weights of one basic family.

    Finite families: "T" is the zero family, "L"/"R"/"E" are the step
    vectors with at most i leading ones, at least n-i leading ones, and
    any proper number of leading ones.  Unbounded families "Linf",
    "Rinf", "Einf" are truncated at the entry bound: supported on the
    first i coordinates, constant on the first n-i coordinates, and
    unconstrained.
    """
    if kind in _SPANS:
        first, last = _SPANS[kind](i, n)
        return frozenset({(0,) * n, *(f_kn(k, n) for k in range(first, last + 1))})
    if kind == "Linf":
        return frozenset(
            v for v in _bounded_dominant(n, bound) if not any(v[i:])
        )
    if kind == "Rinf":
        return frozenset(
            v
            for v in _bounded_dominant(n, bound)
            if len(set(v[: max(n - i, 0)])) <= 1
        )
    if kind == "Einf":
        return frozenset(_bounded_dominant(n, bound))
    raise ValueError(f"unknown family kind {kind!r}")


@dataclass(frozen=True)
class ClsParams:
    r1: int
    r2: int
    g: int
    X: tuple[int, ...]
    Y: tuple[int, ...]

    def __post_init__(self):
        if self.r1 < 0 or self.r2 < 0 or self.g < 0:
            raise ValueError("r', r'' and g must be nonnegative")
        for name, part in (("X", self.X), ("Y", self.Y)):
            if any(part[i] < part[i + 1] for i in range(len(part) - 1)):
                raise ValueError(f"{name} must be weakly decreasing")
            if part and part[-1] <= 0:
                raise ValueError(f"{name} must have positive parts")


def _int(value, name: str) -> int:
    """value itself if it is an int; a float or bool is refused, not truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an integer, not {value!r}")
    return value


def cls_params(r1: int, r2: int, g: int, X=(), Y=()) -> ClsParams:
    X = tuple(_int(x, "an entry of X") for x in X)
    Y = tuple(_int(y, "an entry of Y") for y in Y)
    return ClsParams(_int(r1, "r'"), _int(r2, "r''"), _int(g, "g"), X, Y)


def factorization(p: ClsParams) -> tuple:
    """Basic factors (kind, index, multiplicity) of the parameter tuple.

    The partitions enter through consecutive differences: part j of X
    contributes L(r'+j) with multiplicity X_j - X_{j+1}, and likewise Y
    on the R side.
    """
    fs = []
    if p.r1 > 0:
        fs.append(("Linf", p.r1, 1))
    for jj in range(1, len(p.X) + 1):
        m = p.X[jj - 1] - (p.X[jj] if jj < len(p.X) else 0)
        if m:
            fs.append(("L", p.r1 + jj, m))
    if p.g:
        fs.append(("E", 0, p.g))
    if p.r2 > 0:
        fs.append(("Rinf", p.r2, 1))
    for jj in range(1, len(p.Y) + 1):
        m = p.Y[jj - 1] - (p.Y[jj] if jj < len(p.Y) else 0)
        if m:
            fs.append(("R", p.r2 + jj, m))
    return tuple(fs)


def _check_level(p: ClsParams, n: int):
    if n <= p.r1 + len(p.X) or n <= p.r2 + len(p.Y):
        raise LevelError(
            f"level {n} is too small for parameters "
            f"({p.r1},{p.r2},{p.g};{p.X};{p.Y})"
        )


def cls_level(p: ClsParams, n: int, bound: int) -> frozenset:
    """Level-n weights of the parameter tuple, unbounded families
    truncated at the nonnegative entry bound (zero is in every level).

    A sum of normalized dominant vectors is normalized dominant, so the
    Minkowski sums are taken entrywise with no further normalization.
    """
    n = _int(n, "the level")
    bound = _int(bound, "the entry bound")
    if bound < 0:
        raise ValueError(f"the entry bound must be nonnegative, got {bound}")
    _check_level(p, n)
    out = {(0,) * n}
    for kind, idx, mult in factorization(p):
        base = basic_level(kind, idx, n, bound)
        for _ in range(mult):
            out = {tuple(map(add, u, v)) for u in out for v in base}
    return frozenset(out)


def gamma(p: ClsParams, n: int) -> WeightVec:
    """The distinguished level-2n weight of the parameter tuple.

    Each basic factor contributes a step vector: finite factors with
    their multiplicity, unbounded one-sided factors with coefficient
    2i - 1, and each full-step factor the middle step.
    """
    length = 2 * _int(n, "the level")
    _check_level(p, length)
    total = [0] * length
    for kind, idx, mult in factorization(p):
        if kind == "Linf":
            w, coef = f_kn(idx, length), 2 * idx - 1
        elif kind == "L":
            w, coef = f_kn(idx, length), mult
        elif kind == "E":
            w, coef = f_kn(n, length), mult
        elif kind == "Rinf":
            w, coef = f_kn(length - idx, length), 2 * idx - 1
        else:
            w, coef = f_kn(length - idx, length), mult
        for i in range(length):
            total[i] += coef * w[i]
    return normalize(tuple(total))


def _split_linf_rinf(u: tuple, r1: int, r2: int) -> bool:
    """Whether u = a + b with a supported on the first r1 coordinates and
    b constant on the first n - r2, both normalized dominant.

    In differences d_k = u_k - u_{k+1} (k = 1..n-1), such an a is any
    nonnegative amount at the free positions k <= r1 and such a b any at
    the free positions k >= n - r2, both zero elsewhere.  So a free
    position absorbs whatever u has there and every other one must be
    empty: u splits exactly when it ends in 0 and every d_k is
    nonnegative, and zero unless k is free (so u is nonnegative too).
    """
    n = len(u)
    if u[-1] != 0:
        return False
    return all(
        d == 0 or (d > 0 and (k <= r1 or k >= n - r2))
        for k, d in enumerate((x - y for x, y in zip(u, u[1:])), 1)
    )


def member(p: ClsParams, vec, n: int | None = None) -> bool:
    """Whether the weight lies in the parameter's level set.

    The answer of `vec in cls_level(p, n, max(vec))`, in one pass.  In
    differences d_k = v_k - v_{k+1}, f_{k,n} is one unit at k, so each
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
    v = normalize(tuple(_int(x, "an entry of the weight") for x in vec))
    if n is None:
        n = len(v)
    elif _int(n, "the level") != len(v):
        raise ValueError(f"vector has length {len(v)}, expected level {n}")
    _check_level(p, n)
    # [first, last, units left] of each finite factor, earliest last first
    supply = sorted(
        ([*_SPANS[kind](i, n), m] for kind, i, m in factorization(p) if kind in _SPANS),
        key=itemgetter(1),
    )
    d = [x - y for x, y in zip(v, v[1:])]  # d[k - 1] is the difference at k
    for k in range(p.r1 + 1, n - p.r2):  # the positions that are not free
        for s in supply:
            if s[0] <= k <= s[1]:
                take = min(s[2], d[k - 1])
                s[2] -= take
                d[k - 1] -= take
    residual = tuple(itertools.accumulate(reversed(d), initial=0))[::-1]
    return _split_linf_rinf(residual, p.r1, p.r2)


def q_union_level(r: int, g: int, X, Y, n: int, bound: int) -> frozenset:
    """Union of the level sets over all splits r = r' + r''; splits whose
    level is too small are skipped, and if none is defined the level is
    too small outright."""
    r, n, bound = _int(r, "r"), _int(n, "the level"), _int(bound, "the entry bound")
    out = set()
    found = False
    for r1 in range(r + 1):
        p = cls_params(r1, r - r1, g, X, Y)
        try:
            out |= cls_level(p, n, bound)
        except LevelError:
            continue
        found = True
    if not found:
        raise LevelError(f"level {n} is too small for every split of r={r}")
    return frozenset(out)
