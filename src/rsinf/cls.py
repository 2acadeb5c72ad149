"""Level sets of the weight families attached to annihilator parameters.

Weights at level n are weakly decreasing integer n-tuples, normalized so
the last entry is zero.  A parameter tuple (r', r'', g, X, Y) factors
into basic families; the level set of the parameter is the Minkowski sum
of the factors' level sets.  The three unbounded families are truncated
by an explicit entry bound, which is enough for membership tests since
every summand of a vector is dominated by it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

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


def basic_level(kind: str, i: int, n: int, bound: int) -> frozenset:
    """Level-n weights of one basic family.

    Finite families: "T" is the zero family, "L"/"R"/"E" are the step
    vectors with at most i leading ones, at least n-i leading ones, and
    any proper number of leading ones.  Unbounded families "Linf",
    "Rinf", "Einf" are truncated at the entry bound: supported on the
    first i coordinates, constant on the first n-i coordinates, and
    unconstrained.
    """
    if kind == "T":
        return frozenset({(0,) * n})
    if kind == "L":
        return frozenset(f_kn(k, n) for k in range(min(i, n) + 1))
    if kind == "R":
        return frozenset(f_kn(k, n) for k in range(max(n - i, 0), n + 1))
    if kind == "E":
        return frozenset(f_kn(k, n) for k in range(n))
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
    truncated at the nonnegative entry bound (zero is in every level)."""
    if bound < 0:
        raise ValueError(f"the entry bound must be nonnegative, got {bound}")
    _check_level(p, n)
    out = {(0,) * n}
    for kind, idx, mult in factorization(p):
        base = basic_level(kind, idx, n, bound)
        for _ in range(mult):
            out = {
                normalize(tuple(a + b for a, b in zip(u, v)))
                for u in out
                for v in base
            }
    return frozenset(out)


def gamma(p: ClsParams, n: int) -> WeightVec:
    """The distinguished level-2n weight of the parameter tuple.

    Each basic factor contributes a step vector: finite factors with
    their multiplicity, unbounded one-sided factors with coefficient
    2i - 1, and each full-step factor the middle step.
    """
    length = 2 * n
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

    Position-by-position feasibility: carry the set of possible (a_i, b_i)
    pairs, requiring a and b weakly decreasing and b exactly constant up
    to the cut.  r1 = 0 or r2 = 0 degenerate to a = 0 or b = 0.
    """
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


def member(p: ClsParams, vec, n: int | None = None) -> bool:
    """Whether the weight lies in the parameter's level set.

    Equivalent to membership in cls_level(p, n, max(vec)) but computed by
    searching for one decomposition: the finite factors are enumerated
    (every summand is dominated by vec, so the entry bound is implied)
    and the two unbounded factors are checked in closed form on the
    residual.
    """
    v = normalize(tuple(_int(x, "an entry of the weight") for x in vec))
    if n is None:
        n = len(v)
    elif n != len(v):
        raise ValueError(f"vector has length {len(v)}, expected level {n}")
    _check_level(p, n)
    finite = [
        (sorted(basic_level(kind, idx, n, 0), reverse=True), mult)
        for kind, idx, mult in factorization(p)
        if kind in ("L", "R", "E")
    ]
    dead: set = set()

    def dfs(fi: int, residual: tuple) -> bool:
        if fi == len(finite):
            return _split_linf_rinf(residual, p.r1, p.r2)
        key = (fi, residual)
        if key in dead:
            return False
        vecs, mult = finite[fi]
        for combo in itertools.combinations_with_replacement(vecs, mult):
            nxt = list(residual)
            ok = True
            for w in combo:
                for i in range(n):
                    nxt[i] -= w[i]
                    if nxt[i] < 0:
                        ok = False
            if ok and dfs(fi + 1, tuple(nxt)):
                return True
        dead.add(key)
        return False

    return dfs(0, v)


def q_union_level(r: int, g: int, X, Y, n: int, bound: int) -> frozenset:
    """Union of the level sets over all splits r = r' + r''; splits whose
    level is too small are skipped, and if none is defined the level is
    too small outright."""
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
