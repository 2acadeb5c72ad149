"""Insertion for sequences with arithmetic tails on three index axes.

A sequence lives on one of three index sets: the negative integers
(ending at a top position), the positive integers (starting at a bottom
position), or all of Z.  Absolute positions carry no meaning; every
statistic computed here is invariant under translating the window.

Two representations appear.  EventuallyConstantSeq holds raw values:
an explicit window plus constant tails.  StablyDecreasingSeq holds the
position-shifted values, whose tails follow the law value(p) = law - p;
this is the form the insertion machinery consumes.  plus_rho converts
the first into the second.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace

from .core import FieldElem, Tableau, as_partition, elem
from .rs_finite import insert_by_class, seq_of


class Axis(enum.Enum):
    NEG = "neg"
    POS = "pos"
    ALL = "all"


def _coerce_window(values) -> tuple[FieldElem, ...]:
    return tuple(elem(v) for v in values)


@dataclass(frozen=True)
class EventuallyConstantSeq:
    """Raw values: an explicit window with constant tails.

    For NEG the window ends at ``edge`` and ``left_tail`` repeats below
    it; for POS the window starts at ``edge`` and ``right_tail`` repeats
    above it; for ALL the window starts at ``edge`` with both tails.
    """

    axis: Axis
    window: tuple[FieldElem, ...]
    edge: int
    left_tail: FieldElem | None = None
    right_tail: FieldElem | None = None

    def __post_init__(self):
        if self.axis is Axis.NEG:
            if self.left_tail is None or self.right_tail is not None:
                raise ValueError("a NEG sequence has exactly a left tail")
        elif self.axis is Axis.POS:
            if self.right_tail is None or self.left_tail is not None:
                raise ValueError("a POS sequence has exactly a right tail")
        else:
            if self.left_tail is None or self.right_tail is None:
                raise ValueError("an ALL sequence has both tails")

    def value(self, p: int) -> FieldElem:
        if self.axis is Axis.NEG:
            if p > self.edge:
                raise ValueError(f"position {p} is beyond the domain end {self.edge}")
            i = p - (self.edge - len(self.window) + 1)
            return self.window[i] if i >= 0 else self.left_tail
        if self.axis is Axis.POS:
            if p < self.edge:
                raise ValueError(f"position {p} is below the domain start {self.edge}")
            i = p - self.edge
            return self.window[i] if i < len(self.window) else self.right_tail
        i = p - self.edge
        if i < 0:
            return self.left_tail
        if i >= len(self.window):
            return self.right_tail
        return self.window[i]


def eventually_constant(
    axis: Axis, window=(), *, edge: int | None = None,
    left_tail=None, right_tail=None,
) -> EventuallyConstantSeq:
    """Build a canonical EventuallyConstantSeq, stripping tail-valued
    window entries at the tail-facing ends."""
    w = list(_coerce_window(window))
    lt = elem(left_tail) if left_tail is not None else None
    rt = elem(right_tail) if right_tail is not None else None
    if edge is None:
        edge = -1 if axis is Axis.NEG else 1
    if axis is Axis.NEG:
        while w and w[0] == lt:
            w.pop(0)
    elif axis is Axis.POS:
        while w and w[-1] == rt:
            w.pop()
    else:
        while w and w[0] == lt:
            w.pop(0)
            edge += 1
        while w and w[-1] == rt:
            w.pop()
        if not w and lt == rt:
            edge = 0
    return EventuallyConstantSeq(axis, tuple(w), edge, lt, rt)


@dataclass(frozen=True)
class StablyDecreasingSeq:
    """Position-shifted values: tails follow value(p) = law - p.

    Window geometry matches EventuallyConstantSeq; the law fields hold
    the tail anchors, so the value at a tail position p is law.shift(-p).
    """

    axis: Axis
    window: tuple[FieldElem, ...]
    edge: int
    left_law: FieldElem | None = None
    right_law: FieldElem | None = None

    def __post_init__(self):
        if self.axis is Axis.NEG:
            if self.left_law is None or self.right_law is not None:
                raise ValueError("a NEG sequence has exactly a left law")
        elif self.axis is Axis.POS:
            if self.right_law is None or self.left_law is not None:
                raise ValueError("a POS sequence has exactly a right law")
        else:
            if self.left_law is None or self.right_law is None:
                raise ValueError("an ALL sequence has both laws")

    def value(self, p: int) -> FieldElem:
        if self.axis is Axis.NEG:
            if p > self.edge:
                raise ValueError(f"position {p} is beyond the domain end {self.edge}")
            i = p - (self.edge - len(self.window) + 1)
            return self.window[i] if i >= 0 else self.left_law.shift(-p)
        if self.axis is Axis.POS:
            if p < self.edge:
                raise ValueError(f"position {p} is below the domain start {self.edge}")
            i = p - self.edge
            return self.window[i] if i < len(self.window) else self.right_law.shift(-p)
        i = p - self.edge
        if i < 0:
            return self.left_law.shift(-p)
        if i >= len(self.window):
            return self.right_law.shift(-p)
        return self.window[i]


def stably_decreasing(
    axis: Axis, window=(), *, edge: int | None = None,
    left_law=None, right_law=None,
) -> StablyDecreasingSeq:
    """Build a canonical StablyDecreasingSeq, stripping law-conformant
    window entries at the law-facing ends."""
    w = list(_coerce_window(window))
    ll = elem(left_law) if left_law is not None else None
    rl = elem(right_law) if right_law is not None else None
    if edge is None:
        edge = -1 if axis is Axis.NEG else 1
    if axis is Axis.NEG:
        while w:
            p0 = edge - len(w) + 1
            if w[0] != ll.shift(-p0):
                break
            w.pop(0)
    elif axis is Axis.POS:
        while w:
            p1 = edge + len(w) - 1
            if w[-1] != rl.shift(-p1):
                break
            w.pop()
    else:
        while w and w[0] == ll.shift(-edge):
            w.pop(0)
            edge += 1
        while w:
            p1 = edge + len(w) - 1
            if w[-1] != rl.shift(-p1):
                break
            w.pop()
        if not w and ll == rl:
            edge = 0
    return StablyDecreasingSeq(axis, tuple(w), edge, ll, rl)


def plus_rho(block: EventuallyConstantSeq) -> StablyDecreasingSeq:
    """Shift every value by minus its position; tails become laws."""
    if block.axis is Axis.NEG:
        lo = block.edge - len(block.window) + 1
    else:
        lo = block.edge
    window = [v.shift(-(lo + i)) for i, v in enumerate(block.window)]
    return stably_decreasing(
        block.axis, window, edge=block.edge,
        left_law=block.left_tail, right_law=block.right_tail,
    )


def star_seq(x):
    """The mirror p -> -f(-p), swapping the NEG and POS axes."""
    if isinstance(x, EventuallyConstantSeq):
        window = tuple(v.negate() for v in reversed(x.window))
        lt = x.right_tail.negate() if x.right_tail is not None else None
        rt = x.left_tail.negate() if x.left_tail is not None else None
        if x.axis is Axis.NEG:
            return eventually_constant(Axis.POS, window, edge=-x.edge, right_tail=rt)
        if x.axis is Axis.POS:
            return eventually_constant(Axis.NEG, window, edge=-x.edge, left_tail=lt)
        edge = -(x.edge + len(x.window) - 1)
        return eventually_constant(Axis.ALL, window, edge=edge, left_tail=lt, right_tail=rt)
    if isinstance(x, StablyDecreasingSeq):
        window = tuple(v.negate() for v in reversed(x.window))
        ll = x.right_law.negate() if x.right_law is not None else None
        rl = x.left_law.negate() if x.left_law is not None else None
        if x.axis is Axis.NEG:
            return stably_decreasing(Axis.POS, window, edge=-x.edge, right_law=rl)
        if x.axis is Axis.POS:
            return stably_decreasing(Axis.NEG, window, edge=-x.edge, left_law=ll)
        edge = -(x.edge + len(x.window) - 1)
        return stably_decreasing(Axis.ALL, window, edge=edge, left_law=ll, right_law=rl)
    raise TypeError(f"cannot mirror {type(x).__name__}")


def ins(positions, values, f2: StablyDecreasingSeq) -> StablyDecreasingSeq:
    """Weave the given values into f2 at the given positions.

    Positions must be strictly increasing.  Entries of f2 slide away
    from the anchored end of the axis to make room: on NEG the domain
    end stays put and everything below the insertions shifts down; on
    POS and ALL the far-left part stays put and everything above shifts
    up.  The laws shift accordingly.
    """
    pos = [int(i) for i in positions]
    vals = list(_coerce_window(values))
    if len(pos) != len(vals):
        raise ValueError("positions and values must have equal length")
    if any(pos[i] >= pos[i + 1] for i in range(len(pos) - 1)):
        raise ValueError("insertion positions must be strictly increasing")
    if not vals:
        return f2
    s = len(vals)
    inserted = dict(zip(pos, vals))

    def pull(p: int) -> FieldElem:
        try:
            return f2.value(p)
        except ValueError as exc:
            raise ValueError(
                f"insertion at {pos} needs {type(f2).__name__} values outside its domain"
            ) from exc

    if f2.axis is Axis.NEG:
        if pos[-1] > f2.edge + 1:
            raise ValueError(
                f"insertion position {pos[-1]} is past the domain end {f2.edge}"
            )
        top = max(f2.edge, pos[-1])
        w_lo = f2.edge - len(f2.window) + 1
        lo = min(pos[0], w_lo - s) - 1
        out = []
        for p in range(lo, top + 1):
            if p in inserted:
                out.append(inserted[p])
            else:
                above = s - bisect_right(pos, p)
                out.append(pull(p + above))
        return stably_decreasing(
            Axis.NEG, out, edge=top, left_law=f2.left_law.shift(-s)
        )

    if f2.axis is Axis.POS:
        if pos[0] < f2.edge - 1:
            raise ValueError(
                f"insertion position {pos[0]} is below the domain start {f2.edge}"
            )
        bottom = min(f2.edge, pos[0])
        w_hi = f2.edge + len(f2.window) - 1
        hi = max(w_hi + s, pos[-1]) + 1
        out = []
        for p in range(bottom, hi + 1):
            if p in inserted:
                out.append(inserted[p])
            else:
                below = bisect_left(pos, p)
                out.append(pull(p - below))
        return stably_decreasing(
            Axis.POS, out, edge=bottom, right_law=f2.right_law.shift(s)
        )

    w_lo = f2.edge
    w_hi = f2.edge + len(f2.window) - 1
    lo = min(pos[0], w_lo) - 1
    hi = max(pos[-1], w_hi + s) + 1
    out = []
    for p in range(lo, hi + 1):
        if p in inserted:
            out.append(inserted[p])
        else:
            below = bisect_left(pos, p)
            out.append(pull(p - below))
    return stably_decreasing(
        Axis.ALL, out, edge=lo,
        left_law=f2.left_law, right_law=f2.right_law.shift(s),
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


def _extract(g: StablyDecreasingSeq, margin: int) -> InfiniteRSResult:
    """Insert a finite window of g and read off the stable skeleton."""
    if g.axis is Axis.NEG:
        a = g.edge - len(g.window) + 1 - margin
        b = g.edge
    else:
        a = g.edge - margin
        b = g.edge + len(g.window) - 1 + margin
    tableaux = insert_by_class([g.value(p) for p in range(a, b + 1)])
    law_anchor = g.left_law.anchor if g.axis is not Axis.POS else g.right_law.anchor
    if law_anchor not in tableaux:
        raise ValueError("window too small: no law-class values present")

    t1_rows = tableaux[law_anchor]
    row_vals = t1_rows[0]
    if g.axis is Axis.NEG:
        p0 = b - len(row_vals) + 1
        left_anchor = row_vals[0].shift(p0)
        first_row = stably_decreasing(
            Axis.NEG, row_vals, edge=b, left_law=left_anchor
        )
    else:
        left_anchor = row_vals[0].shift(a)
        right_anchor = row_vals[-1].shift(a + len(row_vals) - 1)
        first_row = stably_decreasing(
            Axis.ALL, row_vals, edge=a,
            left_law=left_anchor, right_law=right_anchor,
        )

    lower_rows = t1_rows[1:]
    finite = tuple(
        Tableau(anchor, tableaux[anchor])
        for anchor in sorted(
            (a for a in tableaux if a != law_anchor),
            key=lambda a: str(FieldElem(a, 0)),
        )
    )
    rest: list[Tableau] = []
    if lower_rows:
        rest.append(Tableau(law_anchor, lower_rows))
    rest.extend(finite)
    underline = seq_of(rest) if rest else ()
    return InfiniteRSResult(g.axis, first_row, lower_rows, finite, underline)


def _stable_margin(g: StablyDecreasingSeq) -> int:
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
    w_lo = g.edge - len(g.window) + 1 if g.axis is Axis.NEG else g.edge
    same = [e.offset for e in g.window if e.anchor == left.anchor]
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


def rs_infinite(g: StablyDecreasingSeq) -> InfiniteRSResult:
    """Insert an infinite stably decreasing sequence.

    NEG and ALL inputs are handled directly by inserting once a window
    large enough that further growth provably only extends the first row
    (see _stable_margin).  A POS input is computed through its mirror and
    the pieces are mirrored back.
    """
    if g.axis is Axis.POS:
        m = rs_infinite(star_seq(g))
        row = star_seq(m.first_row)
        underline = tuple(u.negate() for u in reversed(m.underline))
        return InfiniteRSResult(
            Axis.POS, row, m.lower_rows, m.finite_tableaux, underline, mirrored=True
        )
    if g.axis is Axis.ALL and g.left_law.anchor != g.right_law.anchor:
        raise ValueError("the two tails lie in different integrality classes")
    return _extract(g, _stable_margin(g))


def partition_from_row(
    result: InfiniteRSResult, h_minus, r: int | None = None
) -> tuple[int, ...]:
    """Deviations of a NEG first row from its far-left law, read from
    the domain end inward; the law anchor is h_minus plus the number of
    displaced elements."""
    h = elem(h_minus)
    if r is None:
        r = result.r
    row = result.first_row
    if row.axis is not Axis.NEG:
        raise ValueError("expected the first row of a NEG-axis result")
    anchor = h.shift(r)
    if row.left_law.anchor != anchor.anchor:
        raise ValueError(
            f"row tail class {row.left_law} does not match the class of {h}"
        )
    if row.left_law != anchor:
        raise ValueError(
            f"row tail law {row.left_law} is not {h} shifted by {r}"
        )
    out = []
    n = len(row.window)
    for i in range(n):
        p = row.edge - i
        w = row.window[n - 1 - i]
        expected = anchor.shift(-p)
        if w.anchor != expected.anchor:
            raise ValueError(f"row value {w} is not in the class of {h}")
        out.append(expected.offset - w.offset)
    return as_partition(out)


def block_ideal(block: EventuallyConstantSeq) -> tuple:
    """The four annihilator statistics (r, g, X, Y) of one block."""
    return _ideal_of(block, rs_infinite(plus_rho(block)))


def _ideal_of(block: EventuallyConstantSeq, res: InfiniteRSResult) -> tuple:
    """(r, g, X, Y) of block read off res = rs_infinite(plus_rho(block))."""
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
    if row.left_law.anchor != row.right_law.anchor:
        raise ValueError("two-sided block with tails in different classes")
    gdeg = row.left_law.offset - row.right_law.offset
    if gdeg < 0:
        raise AssertionError(
            f"negative degree {gdeg} extracted from a two-sided block"
        )
    return (res.r, gdeg, (), ())
