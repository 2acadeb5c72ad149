"""Level sets of the weight families attached to annihilator parameters.

Weights at level n are weakly decreasing integer n-tuples, normalized so
the last entry is zero.  A parameter tuple (r', r'', g, X, Y) factors
into basic families; the level set of the parameter is the Minkowski sum
of the factors' level sets, the unbounded ones truncated by an entry
bound.  In a weight's differences each factor supplies units to a prefix
or a suffix of positions, so a level set is enumerated by Hall's
condition on intervals, and membership is decided in one pass.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from operator import sub

from .core import _int, _int_repr

WeightVec = tuple[int, ...]


class LevelError(ValueError):
    """The requested level is too small for the parameters."""


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
# Truncated at the bound, these supply up to bound units on the interval of L, R, E.
_UNBOUNDED = ("Linf", "Rinf", "Einf")


def _capacities(n: int, factors, bound: int) -> tuple:
    """Interval capacities at positions 1..n-1 (index 0 unused): left[a],
    the capacity of the prefix factors that reach a, and right[b], that
    of the suffix factors that start by b.  A factor (kind, i, m) has
    capacity m, or m * bound for an unbounded kind."""
    left, right = [0] * n, [0] * n
    for kind, i, cap in factors:
        first, last = _SPANS[kind[0]](i, n)
        if kind in _UNBOUNDED:
            cap *= bound
        if first == 1 <= last:
            left[last] += cap
        elif first <= last:
            right[first] += cap
    return list(itertools.accumulate(reversed(left)))[::-1], list(itertools.accumulate(right))


# A level set holds its weights times the level entries; past this many
# cls_level, basic_level, q_union_level and gamma refuse instead of
# building the answer
_LEVEL_MAX_ENTRIES = 20_000_000


def _too_many(what: str) -> ValueError:
    return ValueError(f"{what} would hold more than {_LEVEL_MAX_ENTRIES} entries "
                      "(rsinf.cls._LEVEL_MAX_ENTRIES)")


def _pairs(x: int, low: int, left1: int, left2: int, right1: int) -> int:
    """The number of (v_1, v_2) pairs _level_set emits below v_3 = x, low
    the minimum carried down to v_2.  v_2 = y runs from x to left2 + low,
    and v_1 from y to left1 + min(low, right1 + y): left1 + right1 + 1
    values up to y = low - right1, then one fewer for each y above it,
    down to none past left1 + low."""
    top, turn, last = left2 + low, low - right1, left1 + low
    flat = min(top, turn) - x + 1
    pairs = flat * (left1 + right1 + 1) if flat > 0 else 0
    a, b = max(x, turn + 1), min(top, last)
    if a <= b:
        pairs += (b - a + 1) * (2 * last + 2 - a - b) // 2
    return pairs


def _level_set(n: int, factors, bound: int, most=None, what="the level set") -> frozenset:
    """Normalized dominant n-vectors whose differences are a sum of one
    vector per factor (kind, i, m), supported on its interval and of
    total at most m, or m * bound for an unbounded kind.

    Each nonempty interval is a prefix or a suffix of 1..n-1, so by
    Hall's theorem v qualifies exactly when v_a - v_{b+1} <= left[a] +
    right[b] for all a <= b: the capacity of the prefixes that reach a
    plus that of the suffixes that start by b.  So v_{n-1}, ..., v_1 are
    fixed in turn, v_k from v_{k+1} up to left[k] + min over b >= k of
    (right[b] + v_{b+1}), that minimum carried down.  No branch dies:
    v_k = v_{k+1} passes, since the passed test on [k+1, b] and left[k]
    >= left[k+1] give v_{k+1} - v_{b+1} <= left[k] + right[b], b > k.
    The search keeps the fixed entries in one buffer and a stack of nodes
    down to v_3; a node for v_3 emits every (v_1, v_2) below it in one
    comprehension, since those two coordinates hold most of the nodes.

    Since no branch dies, each pending node and each emitted weight
    stands for a weight of its own, so the search refuses, with an error
    that names `what`, once they make more than `most` weights, by
    default _LEVEL_MAX_ENTRIES // n.  It counts them with the
    children of a node that has more than 64, or the pairs (_pairs) of
    a node for v_3 that may have more than 64, before adding them, and
    after every node for v_3.  At most n nodes are popped between two
    nodes for v_3, so at most 64 n uncounted nodes are pushed between
    two counts.
    """
    if n < 2:
        return frozenset({(0,) * n})
    most = _LEVEL_MAX_ENTRIES // n if most is None else most
    left, right = _capacities(n, factors, bound)
    if n == 2:
        if left[1] + right[1] + 1 > most:
            raise _too_many(what)
        return frozenset([(x, 0) for x in range(left[1] + right[1] + 1)])
    left1, left2, right1 = left[1], left[2], right[1]
    wide = left1 + right1 + 1  # the most v_1 for one v_2
    v, out = [0] * n, []  # v[k - 1] is v_k
    stack = [(n, 0, math.inf)]  # v_n = 0, and no b >= n
    while stack:
        k, x, low = stack.pop()  # v_k = x; low is the minimum over b >= k
        v[k - 1] = x
        low = min(low, right[k - 1] + x)  # now over b >= k - 1
        if k > 3:
            top = left[k - 1] + low + 1
            if top - x > 64 and len(stack) + len(out) + top - x > most:
                raise _too_many(what)
            stack.extend([(k - 1, y, low) for y in range(x, top)])
            continue
        # every (v_1, v_2) below v_3 at once
        top = left2 + low
        if (top - x + 1) * wide > 64 and (
            len(stack) + len(out) + _pairs(x, low, left1, left2, right1) > most
        ):
            raise _too_many(what)
        rest = tuple(v[2:])
        out += [(z, y) + rest for y in range(x, top + 1)
                for z in range(y, left1 + min(low, right1 + y) + 1)]
        if len(out) > most:
            raise _too_many(what)
    return frozenset(out)


def basic_level(kind: str, i: int, n: int, bound: int) -> frozenset:
    """Level-n weights of one basic family.

    Finite families: "T" is the zero family, "L"/"R"/"E" are the step
    vectors with at most i leading ones, at least n-i leading ones, and
    any proper number of leading ones.  Unbounded families "Linf",
    "Rinf", "Einf" are truncated at the nonnegative entry bound:
    supported on the first i coordinates, constant on the first n-i
    coordinates, and unconstrained.
    """
    if kind not in _SPANS and kind not in _UNBOUNDED:
        raise ValueError(f"unknown family kind {kind!r}")
    i = _int(i, "the family index i")
    n, bound, _ = _level_args(n, bound)
    return _level_set(n, [(kind, i, 1)], bound)


def _level_args(n, bound, r=0) -> tuple:
    """The plain ints (n, bound, r), after refusing a level n, an entry
    bound or a split total r that is not a nonnegative int: a level is a
    tuple length, and a negative bound would drop the zero weight every
    level set holds.  A level past _LEVEL_MAX_ENTRIES is refused too,
    since its zero weight alone holds n entries."""
    plain = []
    for value, name in ((r, "r"), (n, "the level"), (bound, "the entry bound")):
        value = _int(value, name)
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")
        plain.append(value)
    r, n, bound = plain
    if n > _LEVEL_MAX_ENTRIES:
        raise _too_many(f"a weight of level {_int_repr(n)}")
    return n, bound, r


@dataclass(frozen=True)
class ClsParams:
    r1: int
    r2: int
    g: int
    X: tuple[int, ...]
    Y: tuple[int, ...]

    def __post_init__(self):
        # plain ints, in tuples: the parameters hash, an iterator is read
        # once, and no int subclass's arithmetic reaches a level set.  A
        # tuple of exact ints is kept as it is, so that a key of
        # _member_caps holding it compares by identity.
        for field, name in (("X", "an entry of X"), ("Y", "an entry of Y")):
            part = tuple(getattr(self, field))
            plain = part if set(map(type, part)) <= {int} else tuple([_int(v, name) for v in part])
            object.__setattr__(self, field, plain)
        for field, name in (("r1", "r'"), ("r2", "r''"), ("g", "g")):
            object.__setattr__(self, field, _int(getattr(self, field), name))
        if self.r1 < 0 or self.r2 < 0 or self.g < 0:
            raise ValueError("r', r'' and g must be nonnegative")
        for name, part in (("X", self.X), ("Y", self.Y)):
            if any(part[i] < part[i + 1] for i in range(len(part) - 1)):
                raise ValueError(f"{name} must be weakly decreasing")
            if part and part[-1] <= 0:
                raise ValueError(f"{name} must have positive parts")


def cls_params(r1: int, r2: int, g: int, X=(), Y=()) -> ClsParams:
    return ClsParams(r1, r2, g, X, Y)


def _params(p) -> ClsParams:
    """p itself if it is a ClsParams; anything else is a TypeError."""
    if not isinstance(p, ClsParams):
        raise TypeError(f"the parameters must be a ClsParams, not {type(p).__name__}")
    return p


def factorization(p: ClsParams) -> tuple:
    """Basic factors (kind, index, multiplicity) of the parameter tuple.

    The partitions enter through consecutive differences: part j of X
    contributes L(r'+j) with multiplicity X_j - X_{j+1}, and likewise Y
    on the R side.
    """
    left = [("Linf", p.r1, 1)] if p.r1 else []
    right = [("Rinf", p.r2, 1)] if p.r2 else []
    for fs, kind, r, part in ((left, "L", p.r1, p.X), (right, "R", p.r2, p.Y)):
        for j, m in enumerate(map(sub, part, (*part[1:], 0)), 1):
            if m:
                fs.append((kind, r + j, m))
    return (*left, *([("E", 0, p.g)] if p.g else ()), *right)


def _check_level(p: ClsParams, n: int, half: int | None = None):
    """Refuse a level n at or below r' + len(X) or r'' + len(Y).  Given
    half, the level gamma was given (n = 2 * half), the message names
    half and what gamma doubles it to."""
    if n <= p.r1 + len(p.X) or n <= p.r2 + len(p.Y):
        given = n if half is None else f"{half}, which gamma doubles to {n},"
        raise LevelError(f"level {given} is too small for parameters "
                         f"({p.r1},{p.r2},{p.g};{p.X};{p.Y})")


def cls_level(p: ClsParams, n: int, bound: int) -> frozenset:
    """Level-n weights of the parameter tuple, unbounded families
    truncated at the nonnegative entry bound (zero is in every level).

    The Minkowski sum of the factors' level sets, enumerated member by
    member with the interval test of _level_set: no sum is formed.
    """
    n, bound, _ = _level_args(n, bound)
    _check_level(_params(p), n)
    return _level_set(n, factorization(p), bound)


def gamma(p: ClsParams, n: int) -> WeightVec:
    """The distinguished level-2n weight of the parameter tuple.

    Each basic factor contributes a step vector: finite factors with
    their multiplicity, unbounded one-sided factors with coefficient
    2i - 1, and each full-step factor the middle step.
    """
    length = 2 * _int(n, "the level")
    _check_level(_params(p), length, n)
    if length > _LEVEL_MAX_ENTRIES:
        raise _too_many(f"the weight of level {_int_repr(length)}")
    steps = [0] * length  # steps[k - 1] is the coefficient of f_{k,2n}
    for kind, idx, mult in factorization(p):
        # the factor's step f_{k,2n}, 0 < k < 2n, so the sum stays normalized
        k = length // 2 if kind == "E" else idx if kind[0] == "L" else length - idx
        steps[k - 1] += 2 * idx - 1 if kind.endswith("inf") else mult
    # f_{k,2n} is one on its first k entries: entry i sums the steps k > i
    return tuple(itertools.accumulate(reversed(steps)))[::-1]


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
    d = [x - y for x, y in zip(u, u[1:])]  # d[k - 1] is d_k
    return u[-1] == 0 and min(d, default=0) >= 0 and not any(d[r1:max(len(d) - r2, 0)])


@lru_cache(maxsize=1024)
def _member_caps(r1: int, r2: int, g: int, X: tuple, Y: tuple, n: int) -> tuple:
    """(left[a], right[a]) at the positions a = r'+1 .. n-r''-1 that no
    unbounded factor reaches, so that the entry bound does not matter
    there, after refusing a level too small for the parameters (a call
    that raises is not kept).  Built once per parameter values and level:
    a caller tests many weights of one parameter tuple at one level, and
    plain values hash in C where an equal but new ClsParams would not."""
    p = ClsParams(r1, r2, g, X, Y)
    _check_level(p, n)
    left, right = _capacities(n, factorization(p), 0)
    return tuple(zip(left, right))[r1 + 1:n - r2]


def member(p: ClsParams, vec, n: int | None = None) -> bool:
    """Whether the weight lies in the parameter's level set.

    A weight is read up to a constant, so this is whether vec, shifted to
    end in 0, lies in `cls_level(p, n, v_1 - v_n)`: that bound truncates
    no unbounded factor.  L-inf and R-inf take any amount at their free
    positions k <= r' and k >= n - r'', and reach no other, so by the
    Hall argument of _level_set v is a member exactly when v_a - v_{b+1}
    <= left[a] + right[b] for all non-free a <= b.  One pass carries the
    minimum of left[a] - v_a over a <= b.
    """
    _params(p)
    t, ordered, prev = tuple(vec), True, math.inf
    for x in t:
        if type(x) is not int:  # every entry is read before the order
            return member(p, [_int(v, "an entry of the weight") for v in t], n)
        if x > prev:
            ordered = False
        prev = x
    if not ordered:
        raise ValueError(f"{t} is not weakly decreasing")
    if n is not None:  # the level, if given, is the weight's length
        n = _int(n, "the level")
        if n != len(t):
            raise ValueError(f"vector has length {len(t)}, expected level {n}")
    low = math.inf
    for b, (left, right) in enumerate(_member_caps(p.r1, p.r2, p.g, p.X, p.Y, len(t)), p.r1 + 1):
        if left - t[b - 1] < low:  # t[b - 1] is v_b
            low = left - t[b - 1]
        if -t[b] - right > low:
            return False
    return True


def q_union_level(r: int, g: int, X, Y, n: int, bound: int) -> frozenset:
    """Union of the level sets over the splits r = r' + r'' whose level
    is defined, n > r' + len(X) and n > r'' + len(Y), so r' runs from
    max(0, r - n + 1 + len(Y)) to min(r, n - 1 - len(X)); if that range
    is empty, the level is too small outright.

    With bound 0 the unbounded factors supply nothing, and the capacity
    X_{max(1, a - r')} grows with r', Y_{max(1, n - b - r'')} with r''.
    By the Hall test of _level_set, a split of pointwise larger
    capacities holds every weight of the other, so with Y empty the
    union is the set of the largest r', with X empty that of the
    smallest.  The union grows split by split, and each split's search
    may hold _LEVEL_MAX_ENTRIES // n weights less those of the union so
    far, so the weights held never pass that budget, and a refusal means
    the union and one split's set together do."""
    n, bound, r = _level_args(n, bound, r)
    p = cls_params(0, r, g, X, Y)  # g, X and Y are checked once
    lo, hi = max(0, r - n + 1 + len(p.Y)), min(r, n - 1 - len(p.X))
    if lo > hi:
        raise LevelError(f"level {n} is too small for every split of r={r}")
    if bound == 0 and not (p.X and p.Y):  # the one split that holds the rest
        lo = hi = lo if p.Y else hi
    most, union = _LEVEL_MAX_ENTRIES // n, set()
    for r1 in range(lo, hi + 1):
        split = factorization(cls_params(r1, r - r1, p.g, p.X, p.Y))
        union |= _level_set(n, split, bound, most - len(union), "the splits' level sets")
    return frozenset(union)
