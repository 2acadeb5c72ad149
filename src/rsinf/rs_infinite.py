"""Insertion for sequences with arithmetic tails on three index axes.

A sequence lives on one of three index sets: the negative integers
(ending at a top position), the positive integers (starting at a bottom
position), or all of Z.  Absolute positions carry no meaning; every
statistic computed here is invariant under translating the window.

Two representations appear.  EventuallyConstantSeq holds raw values:
an explicit window plus constant tails.  StablyDecreasingSeq holds the
position-shifted values, whose tails follow the law value(p) = law - p;
this is the form the insertion machinery consumes.  plus_rho converts
the first into the second.  Both share one geometry (_TailedSeq) and
differ only in what a tail gives at a position.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from collections import namedtuple
from dataclasses import dataclass
from itertools import chain

from .core import FieldElem, Tableau, _int, _int_repr, as_partition, elem, elems, same_anchor
from .rs_finite import rs, seq_of


class Axis(enum.Enum):
    NEG = "neg"
    POS = "pos"
    ALL = "all"

    # members compare by identity, so the identity hash agrees with ==
    # and spares the axis tables the Python-level Enum.__hash__
    __hash__ = object.__hash__


def _first(axis: Axis, edge: int, n: int) -> int:
    """The position of the first of n window entries: the window ends at
    edge on NEG and starts there otherwise."""
    return edge - n + 1 if axis is Axis.NEG else edge


# which tails each axis has, and the sentence naming them, worded per class
_HAS_TAILS = {Axis.NEG: (True, False), Axis.POS: (False, True), Axis.ALL: (True, True)}
_NEEDS = {
    Axis.NEG: "a NEG sequence has exactly a left {}",
    Axis.POS: "a POS sequence has exactly a right {}",
    Axis.ALL: "an ALL sequence has both {}s",
}
_STAR_AXIS = {Axis.NEG: Axis.POS, Axis.POS: Axis.NEG, Axis.ALL: Axis.ALL}


@dataclass(frozen=True)
class _TailedSeq:
    """The geometry both sequence forms share: an explicit window placed
    by ``edge`` on its axis, and a left tail below it (NEG, ALL) and a
    right tail above it (POS, ALL).  A subclass adds its two tail fields,
    left_<_TAIL> and right_<_TAIL>, and says in ``_at`` what a tail gives
    at a position.  The window is coerced with elems and the tails with
    elem when the sequence is built, as a classifier region is."""

    axis: Axis
    window: tuple[FieldElem, ...]
    edge: int

    def __post_init__(self):
        """Coerce the values, then refuse an axis that is not an Axis, an
        edge that is not an int, and tails that do not match the axis."""
        window = elems(self.window)
        if window is not self.window:
            object.__setattr__(self, "window", window)
        # an exact FieldElem is already coerced, and coercion keeps which
        # tails are present, all that the check below reads of them
        left, right = self._tails
        if left is not None and type(left) is not FieldElem:
            object.__setattr__(self, "left_" + self._TAIL, elem(left))
        if right is not None and type(right) is not FieldElem:
            object.__setattr__(self, "right_" + self._TAIL, elem(right))
        axis = self.axis
        if not isinstance(axis, Axis):
            raise TypeError(f"axis must be an Axis, not {axis!r}")
        if type(self.edge) is not int:
            # kept as a plain int, as FieldElem keeps its offset, so an int
            # subclass's own arithmetic never reaches a position
            object.__setattr__(self, "edge", _int(self.edge, "edge"))
        if (left is not None, right is not None) != _HAS_TAILS[axis]:
            raise ValueError(_NEEDS[axis].format(self._TAIL))

    @classmethod
    def _canonical(cls, axis: Axis, window, edge: int | None, left, right):
        """Build a canonical sequence: the sequence as given is built
        first, which coerces and checks it, then window entries equal to
        what the tail facing them gives there are stripped from the
        tail-facing ends.  An ALL sequence keeps its edge at its first
        window entry, or at 0 if nothing but one law or constant is left.
        A sequence that is canonical as given is returned as built."""
        if edge is None:
            edge = -1 if axis is Axis.NEG else 1
        seq = cls(axis, window, edge, left, right)
        w, edge, (left, right) = seq.window, seq.edge, seq._tails
        first = _first(axis, edge, len(w))
        lo, hi = 0, len(w)
        if axis is not Axis.POS:
            while lo < hi and w[lo] == cls._at(left, first + lo):
                lo += 1
        if axis is not Axis.NEG:
            while hi > lo and w[hi - 1] == cls._at(right, first + hi - 1):
                hi -= 1
        if axis is Axis.ALL:
            edge = 0 if lo == hi and left == right else first + lo
        if lo == 0 and hi == len(w) and edge == seq.edge:
            return seq
        return cls(axis, w[lo:hi], edge, left, right)

    def _in_domain(self, p: int, what: str) -> None:
        """Refuse a position p past the domain end of a NEG sequence or
        below the domain start of a POS one; `what` names p."""
        if self.axis is Axis.NEG and p > self.edge:
            raise ValueError(f"{what} {p} is past the domain end {self.edge}")
        if self.axis is Axis.POS and p < self.edge:
            raise ValueError(f"{what} {p} is below the domain start {self.edge}")

    def value(self, p: int) -> FieldElem:
        p = _int(p, "the position p")
        self._in_domain(p, "position")
        i = p - _first(self.axis, self.edge, len(self.window))
        if i < 0:
            return self._at(self._tails[0], p)
        if i >= len(self.window):
            return self._at(self._tails[1], p)
        return self.window[i]


@dataclass(frozen=True)
class EventuallyConstantSeq(_TailedSeq):
    """Raw values: an explicit window with constant tails.

    For NEG the window ends at ``edge`` and ``left_tail`` repeats below
    it; for POS the window starts at ``edge`` and ``right_tail`` repeats
    above it; for ALL the window starts at ``edge`` with both tails.
    """

    left_tail: FieldElem | None = None
    right_tail: FieldElem | None = None

    _TAIL = "tail"

    @property
    def _tails(self):
        return self.left_tail, self.right_tail

    @staticmethod
    def _at(tail: FieldElem, p: int) -> FieldElem:
        return tail


def eventually_constant(
    axis: Axis, window=(), *, edge: int | None = None,
    left_tail=None, right_tail=None,
) -> EventuallyConstantSeq:
    """Build a canonical EventuallyConstantSeq, stripping tail-valued
    window entries at the tail-facing ends."""
    return EventuallyConstantSeq._canonical(axis, window, edge, left_tail, right_tail)


@dataclass(frozen=True)
class StablyDecreasingSeq(_TailedSeq):
    """Position-shifted values: tails follow value(p) = law - p.

    Window geometry matches EventuallyConstantSeq; the law fields hold
    the tail anchors, so the value at a tail position p is law.shift(-p).
    """

    left_law: FieldElem | None = None
    right_law: FieldElem | None = None

    _TAIL = "law"

    @property
    def _tails(self):
        return self.left_law, self.right_law

    @staticmethod
    def _at(law: FieldElem, p: int) -> FieldElem:
        return law.shift(-p)


def stably_decreasing(
    axis: Axis, window=(), *, edge: int | None = None,
    left_law=None, right_law=None,
) -> StablyDecreasingSeq:
    """Build a canonical StablyDecreasingSeq, stripping law-conformant
    window entries at the law-facing ends."""
    return StablyDecreasingSeq._canonical(axis, window, edge, left_law, right_law)


def plus_rho(block: EventuallyConstantSeq) -> StablyDecreasingSeq:
    """Shift every value by minus its position; tails become laws."""
    if not isinstance(block, EventuallyConstantSeq):
        raise TypeError(f"plus_rho shifts an EventuallyConstantSeq, not {type(block).__name__}")
    lo = _first(block.axis, block.edge, len(block.window))
    window = [v.shift(-(lo + i)) for i, v in enumerate(block.window)]
    return stably_decreasing(
        block.axis, window, edge=block.edge,
        left_law=block.left_tail, right_law=block.right_tail,
    )


def star_seq(x):
    """The mirror p -> -f(-p), swapping the NEG and POS axes."""
    if not isinstance(x, _TailedSeq):
        raise TypeError(f"cannot mirror {type(x).__name__}")
    axis = _STAR_AXIS[x.axis]
    first = _first(x.axis, x.edge, len(x.window))
    # the mirrored window runs from -last to -first
    edge = -first if axis is Axis.NEG else -(first + len(x.window) - 1)
    left, right = (t.negate() if t is not None else None for t in reversed(x._tails))
    window = tuple(v.negate() for v in reversed(x.window))
    return type(x)._canonical(axis, window, edge, left, right)


def _shifted(g, what: str) -> StablyDecreasingSeq:
    """g itself if it is a StablyDecreasingSeq; anything else, above all a
    block of raw values, is a TypeError that starts with `what` and
    names plus_rho."""
    if not isinstance(g, StablyDecreasingSeq):
        raise TypeError(f"{what} a StablyDecreasingSeq, not {type(g).__name__};"
                        " plus_rho makes one from a block")
    return g


# ins reads every position of its answer's window, from the lowest
# insertion or window entry to the highest, so it refuses a window longer
# than this instead of building it: the gap to a far insertion or edge
# would otherwise cost time and memory in proportion
_INS_MAX_ENTRIES = 100_000


def ins(positions, values, f2: StablyDecreasingSeq) -> StablyDecreasingSeq:
    """Weave the given values into f2 at the given positions.

    Positions must be strictly increasing and lie in f2's domain.
    Entries of f2 slide away from the anchored end of the axis to make
    room: on NEG the domain end stays put and everything below the
    insertions shifts down; on POS and ALL the far-left part stays put
    and everything above shifts up.  The laws shift accordingly.  An
    answer whose window would hold more than _INS_MAX_ENTRIES entries
    raises ValueError.
    """
    _shifted(f2, "ins weaves into")
    pos = [_int(i, "an entry of positions") for i in positions]
    vals = elems(values)
    if len(pos) != len(vals):
        raise ValueError("positions and values must have equal length")
    if any(pos[i] >= pos[i + 1] for i in range(len(pos) - 1)):
        raise ValueError("insertion positions must be strictly increasing")
    if not vals:
        return f2
    neg = f2.axis is Axis.NEG
    # the insertion nearest the domain's edge; ALL has no edge
    f2._in_domain(pos[-1] if neg else pos[0], "insertion position")
    s = len(vals)
    # read far enough past the window and the insertions that both ends
    # follow the laws; the anchored end of NEG and POS is f2's edge
    first = _first(f2.axis, f2.edge, len(f2.window))
    lo = f2.edge if f2.axis is Axis.POS else min(pos[0], first - s) - 1
    hi = f2.edge if neg else max(pos[-1], first + len(f2.window) - 1 + s) + 1
    if hi - lo >= _INS_MAX_ENTRIES:
        raise ValueError(
            f"the woven sequence's window would hold more than {_INS_MAX_ENTRIES} entries "
            f"(rsinf.rs_infinite._INS_MAX_ENTRIES)"
        )
    # the positions no insertion takes hold f2's entries in order: on
    # NEG the s insertions all lie above lo, so lo holds f2's lo + s; on
    # POS and ALL the insertions below a position shift it up, so the
    # first free position holds f2's lo
    inserted = dict(zip(pos, vals))
    kept = map(f2.value, range(lo + s, hi + 1) if neg else range(lo, hi + 1 - s))
    out = [inserted[p] if p in inserted else next(kept) for p in range(lo, hi + 1)]
    left, right = f2._tails
    return stably_decreasing(
        f2.axis, out, edge=hi if neg else lo,
        left_law=left.shift(-s if neg else 0) if left is not None else None,
        right_law=right.shift(s) if right is not None else None,
    )


@dataclass(frozen=True)
class InfiniteRSResult:
    """Insertion output: the infinite first row, the finite rest.

    ``first_row`` is the law-class first row; ``lower_rows`` are its
    remaining (finite) rows; ``finite_tableaux`` hold the other classes.
    ``underline`` is the displaced part read back as a sequence, and
    ``mirrored`` records that a POS input was computed through its star.
    """

    axis: Axis
    first_row: StablyDecreasingSeq
    lower_rows: tuple[tuple[FieldElem, ...], ...]
    finite_tableaux: tuple[Tableau, ...]
    underline: tuple[FieldElem, ...]
    mirrored: bool = False

    @property
    def r(self) -> int:
        return len(self.underline)


# row 1 of the law class on ints: the kernel's keys -offset of its
# finite part below the head, row 1's edge and the offsets of its left
# and right laws (right is None on NEG); the law-class offsets that drop
# to row 2, in order; the window entries of other classes; and r, the
# number of entries the finite insertion takes
_RowOne = namedtuple("_RowOne", "below edge left right drops others r")


def _row_one(anchor, l: int, first: int, window, offsets, right=None) -> _RowOne:
    """Read row 1 of a NEG or ALL sequence, laws included, on ints.

    The sequence is given by the anchor and offset l of its left law,
    the position ``first`` of its first window entry, the window, the
    position-shifted offsets of its entries, and on ALL the right law
    ``right``, a FieldElem.  Only an entry's anchor is read from
    ``window``; an entry of another class is passed through untouched.

    Only row 1 of the law class is infinite.  The left law (offset l)
    inserts ..., h + 1, h with h = l - first + 1, so row 1 is the head
    [h, oo) plus a finite part below h, kept in ``below`` as the kernel's
    keys -offset.  The kernel bumps the largest entry <= v, an equal one
    included, so a law-class window entry v >= h bumps its equal in the
    head (row 1 is unchanged, v drops to row 2), and an entry v < h bumps
    inside ``below``; nothing else bumps a head entry.  On ALL the right
    law (offset r) then inserts t, t - 1, ... with t = r - last - 1.  Its
    k-th value bumps the k-th largest entry <= t, so the entries <= t
    drop largest first (the head's t..h when t >= h, then the tail of
    ``below``) and the law ends row 1.  The drops reach row 2 in that
    order, and the other classes occur only in the window, so one finite
    insertion of the entries gives every finite row.

    Row 1 holds the head's v at position l - v, and ``below`` follows it.
    On NEG it ends at the window's edge = first + len(window) - 1, so its
    left law is left = h + edge - len(below).  On ALL ``below`` starts
    after the smallest head entry kept, max(h, t + 1), at edge =
    l - max(h, t + 1) + 1, the left law is left = l, and t follows
    ``below``: right = t + edge + len(below).

    Insertion keeps every box, so r is a count: the window's drops, the
    max(t - h + 1, 0) head drops, the tail of ``below`` and the other
    classes.  The head drops stay a ``range``, so reading row 1 and r
    costs time linear in the window however far apart the laws lie.
    """
    if right is not None and not same_anchor(anchor, right.anchor):
        raise ValueError("the two tails lie in different integrality classes")
    h = l - first + 1
    below, drops, others = [], [], []
    for e, v in zip(window, offsets):
        if e.anchor is not anchor and not same_anchor(e.anchor, anchor):
            others.append(e)
        elif v >= h:
            drops.append(v)
        else:
            i = bisect_left(below, -v)
            if i == len(below):
                below.append(-v)
            else:
                drops.append(-below[i])
                below[i] = -v
    r = len(drops) + len(others)
    if right is None:
        edge = first + len(window) - 1
        return _RowOne(below, edge, h + edge - len(below), None, drops, others, r)
    t = right.offset - (first + len(window))
    k = bisect_left(below, -t)
    drops = chain(drops, range(t, h - 1, -1), [-key for key in below[k:]])
    r += max(t - h + 1, 0) + len(below) - k
    del below[k:]
    edge = l - max(h, t + 1) + 1
    return _RowOne(below, edge, l, t + edge + len(below), drops, others, r)


# rs_infinite lists each of the r entries the block displaces, so past
# this r it refuses instead of inserting; block_ideal counts r at any size
_RS_INF_MAX_R = 100_000


def _extract(g: StablyDecreasingSeq) -> InfiniteRSResult:
    """Insert a NEG or ALL g: row 1 from _row_one, and the finite rows
    from rs of the entries it names, as elements of g's classes; the law
    class is split off the other classes.  An r past _RS_INF_MAX_R
    raises ValueError before anything is listed."""
    law, first = g.left_law, _first(g.axis, g.edge, len(g.window))
    offsets = [e.offset for e in g.window]
    # a NEG g has no right law, so right_law is None there
    row = _row_one(law.anchor, law.offset, first, g.window, offsets, g.right_law)
    if row.r > _RS_INF_MAX_R:
        raise ValueError(
            f"the block displaces r = {_int_repr(row.r)} entries, more than the "
            f"{_RS_INF_MAX_R} rs_infinite lists (rsinf.rs_infinite._RS_INF_MAX_R)"
        )

    def at(v: int) -> FieldElem:
        return law.shift(v - law.offset)

    first_row = stably_decreasing(
        g.axis, [at(-key) for key in row.below], edge=row.edge, left_law=at(row.left),
        right_law=None if row.right is None else at(row.right),
    )
    family = rs(chain(map(at, row.drops), row.others))
    law_tab = tuple(t for t in family if same_anchor(t.anchor, law.anchor))
    finite = tuple(t for t in family if not same_anchor(t.anchor, law.anchor))
    lower_rows = law_tab[0].rows if law_tab else ()
    return InfiniteRSResult(g.axis, first_row, lower_rows, finite, seq_of(law_tab + finite))


def rs_infinite(g: StablyDecreasingSeq) -> InfiniteRSResult:
    """Insert an infinite stably decreasing sequence.

    NEG and ALL inputs are inserted directly, the left law kept as the
    implicit head of row 1 (see _row_one), at a cost linear in the window
    plus r.  A POS input is computed through its mirror and the pieces
    are mirrored back.  An input that displaces more than _RS_INF_MAX_R
    entries raises ValueError.
    """
    if _shifted(g, "rs_infinite inserts").axis is Axis.POS:
        m = rs_infinite(star_seq(g))
        row = star_seq(m.first_row)
        underline = tuple(u.negate() for u in reversed(m.underline))
        return InfiniteRSResult(
            Axis.POS, row, m.lower_rows, m.finite_tableaux, underline, mirrored=True
        )
    return _extract(g)


def partition_from_row(
    result: InfiniteRSResult, h_minus, r: int | None = None
) -> tuple[int, ...]:
    """Deviations of a NEG first row from its far-left law, read from
    the domain end inward; the law anchor is h_minus plus the number of
    displaced elements.  Only ``result.first_row`` and, when r is not
    given, ``result.r`` are read."""
    if not isinstance(result, InfiniteRSResult):
        raise TypeError(f"partition_from_row reads an InfiniteRSResult, not {type(result).__name__}")
    row = result.first_row
    if not isinstance(row, StablyDecreasingSeq):
        raise TypeError(f"a first row is a StablyDecreasingSeq, not {type(row).__name__}")
    h = elem(h_minus)
    r = result.r if r is None else _int(r, "r")
    if row.axis is not Axis.NEG:
        raise ValueError("expected the first row of a NEG-axis result")
    anchor = h.shift(r)
    if not same_anchor(row.left_law.anchor, anchor.anchor):
        raise ValueError(
            f"row tail class {row.left_law} does not match the class of {h}"
        )
    if row.left_law.offset != anchor.offset:
        raise ValueError(
            f"row tail law {row.left_law} is not {h} shifted by {r}"
        )
    out = []
    n = len(row.window)
    for i in range(n):
        p = row.edge - i
        w = row.window[n - 1 - i]
        expected = anchor.shift(-p)
        if not same_anchor(w.anchor, expected.anchor):
            raise ValueError(f"row value {w} is not in the class of {h}")
        out.append(expected.offset - w.offset)
    return as_partition(out)


# A block as a weight spec gives it (classifier._cuts): the fields
# block_ideal reads, with the window unstripped and the edge where
# eventually_constant puts it before stripping (-1 on NEG, 1 otherwise).
_Cut = namedtuple("_Cut", "axis window edge left_tail right_tail")


def block_ideal(block: EventuallyConstantSeq) -> tuple:
    """The four annihilator statistics (r, g, X, Y) of one block.

    They are read off row 1 of the law class of plus_rho(block) alone
    (_row_one), in one pass over the window on ints: the entry at
    position p gives the offset e.offset - p, and nothing is inserted.
    With l the left tail's offset, and r, row 1's keys ``below`` (m of
    them), its edge and its laws' offsets left and right as _row_one
    returns them:

    - NEG: Y_i = l + r - (edge - i) + below[m - 1 - i], read as a
      partition (as_partition drops the zeros the law gives).
    - ALL: g = left - right, the difference of row 1's laws.
    - POS: the mirror p -> -f(-p) as rs_infinite reads it, a NEG
      block: the window reversed, each offset negated, and X its Y.
      Negating adds a constant to every offset of a class (1 for a
      non-zero rational anchor), and each statistic depends only on
      differences of offsets inside the law class, so it is left out.

    g >= 0: with h and t as in _row_one, g = max(h, t + 1) - 1 - t - m
    and the m entries kept are distinct integers strictly between t and
    h; the AssertionError is a guard that cannot fire.  Row 1 of NEG has
    left law l + r, the same tail-law invariant that partition_from_row
    tests.

    Only the fields axis, window, edge, left_tail and right_tail are
    read, as elements (a sequence and a region coerce their values when
    built), and the window need not be stripped: classify passes the raw
    cuts of its spec.  A window entry equal to the tail at a tail-facing
    end acts as the head's next value, so the answer is the stripped
    block's.  At the left end, the entry at ``first`` has offset h - 1;
    it enters ``below`` as its largest entry, which only an entry equal
    to h - 1 bumps, and that entry drops as it would against the
    stripped head [h - 1, oo).  The drops, and so r, stay the same, and
    so do row 1's laws; on NEG the entry adds the part
    l + r - edge + m - h + 1 = 0 (row 1's left law is l + r), which
    as_partition drops.  At the right end of ALL, the entry at the last
    position has offset t + 1, the first value the stripped block's
    right law inserts: the same values are inserted in the same order,
    and t + edge + m is unchanged.  A POS block's right end is its
    mirror's left end.  Stripping one entry at a time gives the claim
    for any run of them.
    """
    if not isinstance(block, (EventuallyConstantSeq, _Cut)):
        raise TypeError(f"block_ideal reads an EventuallyConstantSeq, not {type(block).__name__}")
    axis, window = block.axis, block.window
    n = len(window)
    first = _first(axis, block.edge, n)
    right = None
    if axis is Axis.POS:
        tail = block.right_tail
        # the mirror's window runs from -last to -first
        window, first, l = window[::-1], 1 - first - n, -tail.offset
        offsets = [-e.offset - p for p, e in enumerate(window, first)]
    else:
        tail = block.left_tail
        l = tail.offset
        offsets = [e.offset - p for p, e in enumerate(window, first)]
        if axis is Axis.ALL:
            right = block.right_tail
    row = _row_one(tail.anchor, l, first, window, offsets, right)
    r = row.r
    if row.right is not None:
        gdeg = row.left - row.right
        if gdeg < 0:
            raise AssertionError(
                f"negative degree {gdeg} extracted from a two-sided block"
            )
        return (r, gdeg, (), ())
    if row.left != l + r:
        raise ValueError(f"row tail law offset {row.left} is not {l} shifted by {r}")
    base = l + r - row.edge
    part = as_partition([base + i + key for i, key in enumerate(reversed(row.below))])
    return (r, 0, part, ()) if axis is Axis.POS else (r, 0, (), part)
