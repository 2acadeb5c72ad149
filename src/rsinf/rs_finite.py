"""Insertion of finite sequences, the shifted variant, and interchanges."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ._insertion_py import insert_one
from ._kernel import insert_sequence
from .core import (
    FieldElem, Tableau, TableauFamily, _class_key, _class_order, _int, _unchecked,
    _unchecked_tableau, elems,
)


def rho_shift(values) -> tuple[FieldElem, ...]:
    """Subtract each entry's position: (f(1) - 1, f(2) - 2, ...)."""
    # each anchor was checked when its entry was built
    return tuple([_unchecked(e.anchor, e.offset - i) for i, e in enumerate(elems(values), 1)])


def rs(values) -> TableauFamily:
    """Insert the sequence, one tableau per integrality class.  Each box
    holds an input entry of its value, and a tableau's anchor is the
    first one seen in its class."""
    vals = elems(values)
    codes, m, anchors = _codes(vals)
    # one class's entries of one offset share one code and are equal, so
    # any of them fills its box
    entry = dict(zip(codes, vals)).__getitem__
    # kernel rows over one class's entries are a tableau by construction
    return TableauFamily(tuple([
        _unchecked_tableau(anchor, tuple([tuple(map(entry, row)) for row in rows]))
        for anchor, rows in zip(anchors, _class_rows(codes, m))
    ]))


@dataclass(frozen=True)
class InsertionStep:
    """State after inserting one more entry.

    ``positions`` mirrors the family shape and holds, for each box, the
    1-based input position of the entry currently occupying that box.
    """

    family: TableauFamily
    positions: tuple[tuple[tuple[int, ...], ...], ...]


def rs_trace(values) -> tuple[InsertionStep, ...]:
    """All intermediate states of rs, one per input entry.  The word is
    coded once, so each tableau carries the first anchor seen in its
    class, as in rs, and a step rebuilds only the class of the entry it
    inserts."""
    vals = elems(values)
    n = len(vals)
    codes, m, anchors = _codes(vals)
    # the family's class order, fixed once: class indices sorted as
    # TableauFamily sorts their anchors
    order = sorted(range(m), key=lambda c: _class_order(anchors[c]))
    rows, tabs, where = [[] for _ in anchors], [None] * m, [None] * m
    live: list = []
    steps = []
    for pos, (e, code) in enumerate(zip(vals, codes), start=1):
        # entry pos of n with offset x is packed into the one int key
        # (n - pos) - x * n: the pair key (-x, -pos) in lexicographic
        # order.  A row keeps its keys ascending, so its offsets strictly
        # decrease, and the newer of two equal offsets has the smaller key
        # and bumps the older; key % n is n - pos, so the key decodes to
        # its entry and position
        c = code % m
        if c == len(live):  # the first entry of its class
            live = [d for d in order if d <= c]
        insert_one(rows[c], n - pos - e.offset * n)
        tabs[c] = _unchecked_tableau(
            anchors[c], tuple([tuple([vals[n - 1 - k % n] for k in row]) for row in rows[c]])
        )
        where[c] = tuple([tuple([n - k % n for k in row]) for row in rows[c]])
        # tableaux given in the family's order keep it, and so do positions
        steps.append(InsertionStep(
            TableauFamily(tuple([tabs[d] for d in live])), tuple([where[d] for d in live])
        ))
    return tuple(steps)


def j(values) -> TableauFamily:
    """Insert the position-shifted sequence."""
    return rs(rho_shift(values))


def seq_of(tableaux) -> tuple[FieldElem, ...]:
    """Read a family back into a sequence, row by row.

    Rows are taken shortest first, ties by smaller first entry, and
    tableaux are read one after another in family order.
    """
    if isinstance(tableaux, Tableau):
        tabs: tuple[Tableau, ...] = (tableaux,)
    else:
        tabs = tuple(tableaux)
        for t in tabs:
            if not isinstance(t, Tableau):
                raise TypeError(f"seq_of reads tableaux, not {type(t).__name__}")
    out: list[FieldElem] = []
    for t in tabs:
        # shorter rows first, then smaller first entry; rows that tie on
        # both are read bottom to top, which is what reinsertion undoes
        order = sorted(
            range(len(t.rows)),
            key=lambda ri: (len(t.rows[ri]), t.rows[ri][0].offset, -ri),
        )
        for ri in order:
            out.extend(t.rows[ri])
    return tuple(out)


def _codes(vals) -> tuple[tuple[int, ...], int, list]:
    """Group the entries by integrality class (core._class_key), classes
    in order of first appearance: one int code per entry, the number m of
    classes, and each class's first anchor seen.  The entry e of the
    class with index c gets e.offset * m + c, so two codes share a class
    exactly when they agree mod m, and inside a class they order as the
    offsets do.  A run of entries with one anchor object is looked up
    once, and by the object's id in front of its key, so each distinct
    anchor object is keyed at most once; the entries keep their anchors
    alive, so no id is reused during the call."""
    index: dict = {}
    by_id: dict = {}
    anchors: list = []
    classes = []
    last = c = None
    for e in vals:
        if e.anchor is not last:
            last = e.anchor
            c = by_id.get(id(last))
            if c is None:
                c = by_id[id(last)] = index.setdefault(_class_key(last), len(anchors))
                if c == len(anchors):
                    anchors.append(last)
        classes.append(c)
    m = len(anchors)
    return tuple([e.offset * m + c for e, c in zip(vals, classes)]), m, anchors


def _rho(w: tuple[int, ...], m: int, k: int = 0) -> tuple[int, ...]:
    """The codes of rho_shift of the code word w, of m classes, shifted
    by k: the entry at 1-based position p moves by k - p."""
    return tuple([c + m * (k - p) for p, c in enumerate(w, 1)])


def _class_rows(w: tuple[int, ...], m: int) -> list:
    """Each class's insertion rows of the code word w, of m classes, in
    class index order: one pass groups the codes, and each class is
    inserted once.  Inside a class codes order as the offsets do, so code
    rows are equal exactly when offset rows are."""
    if m == 1:
        return [insert_sequence(w)]
    by_class: list = [[] for _ in range(m)]
    for c in w:
        by_class[c % m].append(c)
    return list(map(insert_sequence, by_class))


def _same_insertion(a: tuple[int, ...], b: tuple[int, ...], m: int) -> bool:
    """Whether the code words a and b, of m classes, have equal insertions.
    Insertion only moves entries within their class's tableau, so
    unequal sorted codes answer False with no kernel call."""
    return sorted(a) == sorted(b) and _class_rows(a, m) == _class_rows(b, m)


def _admissible_here(w: tuple[int, ...], m: int, i: int) -> bool:
    """Whether positions i, i+1 (1-based) of the code word w, of m
    classes, admit a plain interchange: entries of two classes always
    do, and entries of one class need a neighbour of their class that
    lies between them (Knuth's relations, decreasing form)."""
    a, b = w[i - 1], w[i]
    if (a - b) % m:
        return True
    if i + 1 < len(w):
        c = w[i + 1]
        if (c - a) % m == 0 and (b > c >= a or a > c >= b):
            return True
    if i >= 2:
        d = w[i - 2]
        if (d - a) % m == 0 and (b >= d > a or a >= d > b):
            return True
    return False


def admissible(values, i: int, shifted: bool = False) -> bool:
    """Whether positions i, i+1 (1-based) admit an interchange.  A
    shifted move on f is a plain move at the same position on
    rho_shift(f), whose codes _rho reads off those of f."""
    f, i = elems(values), _int(i, "the interchange position i")
    if not 1 <= i <= len(f) - 1:
        raise ValueError(f"interchange position {i} out of range for length {len(f)}")
    w, m, _ = _codes(f)
    return _admissible_here(_rho(w, m) if shifted else w, m, i)


def apply_interchange(values, i: int, shifted: bool = False) -> tuple[FieldElem, ...]:
    """Swap positions i, i+1; the shifted variant conjugates the swap
    through the position shift, so the two entries move by one as well."""
    f, i = elems(values), _int(i, "the interchange position i")
    if not admissible(f, i, shifted=shifted):
        raise ValueError(f"positions {i}, {i + 1} do not admit an interchange")
    pair = (f[i].shift(-1), f[i - 1].shift(1)) if shifted else (f[i], f[i - 1])
    return f[: i - 1] + pair + f[i + 1 :]


@dataclass(frozen=True)
class InterchangePath:
    """Interchange positions to apply in order, each with its variant flag."""

    steps: tuple[tuple[int, bool], ...]

    @property
    def positions(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.steps)

    def replay(self, values) -> tuple[FieldElem, ...]:
        cur = elems(values)
        for i, sh in self.steps:
            cur = apply_interchange(cur, i, shifted=sh)
        return cur


# The most words connected's search keeps.  A word of n distinct entries
# of one class is joined to f^shape words (hook length formula): at most
# 69,498 for n = 14, but 16,336,320 for n = 18, where an unbounded search
# ran for minutes.  This bound searches every such class of up to 14
# entries whole and refuses an 18-entry search within seconds.
_CONNECTED_MAX_STATES = 100_000


def connected(f, g, shifted: bool = False) -> InterchangePath | None:
    """A shortest interchange path from f to g, or None if there is none.

    Two words are joined by interchanges exactly when their insertions
    agree (Knuth 1970), so unequal insertions answer None without a
    search.  Both words are coded in one _codes pass, so their codes
    share one class order, and _same_insertion compares them: insertion
    keeps each class's multiset of entries, so unequal multisets answer
    None with no insertion, and no tableau is built.  A shifted move on
    f is a plain move at the same position on rho_shift(f), so the
    shifted variant compares and searches the codes of the shifted
    words.  The breadth-first search tries positions in increasing
    order, which fixes the path among the shortest ones.  A search that
    would keep more than _CONNECTED_MAX_STATES words raises ValueError.
    """
    start, goal = elems(f), elems(g)
    if len(start) != len(goal):
        return None
    if start == goal:
        return InterchangePath(())
    # the search keys visited words by code tuples and decides each move
    # on them, so no state hashes a FieldElem or its anchor
    n = len(start)
    codes, m, _ = _codes(start + goal)
    first, target = codes[:n], codes[n:]
    if shifted:
        first, target = _rho(first, m), _rho(target, m)
    if not _same_insertion(first, target, m):
        return None
    prev: dict = {first: None}
    queue = deque([first])
    while queue:
        cur = queue.popleft()
        for i in range(1, n):
            if not _admissible_here(cur, m, i):
                continue
            nxt = cur[: i - 1] + (cur[i], cur[i - 1]) + cur[i + 1 :]
            if nxt in prev:
                continue
            prev[nxt] = (cur, i)
            if nxt == target:
                steps = []
                node = nxt
                while prev[node] is not None:
                    node, pos = prev[node]
                    steps.append((pos, shifted))
                return InterchangePath(tuple(reversed(steps)))
            if len(prev) > _CONNECTED_MAX_STATES:
                raise ValueError(
                    f"the words are joined by interchanges, but a shortest path was not "
                    f"found within the limit of {_CONNECTED_MAX_STATES} searched words "
                    f"(rsinf.rs_finite._CONNECTED_MAX_STATES)"
                )
            queue.append(nxt)
    raise AssertionError(f"equal insertions but no interchange path: {f} -> {g}")


def joseph_equal(f, fprime, k: int | None = None) -> bool:
    """Whether j(f) equals j(fprime + k); when k is omitted, whether some
    integer k makes them equal.

    j only rearranges the entries of rho_shift, so equal results have
    equal entries class by class.  That fixes the one k that can work:
    the largest shifted entry of f in the class of f's first entry minus
    the largest shifted entry of fprime in that class.  Both words are
    coded in one _codes pass, so f's first class has index 0 and its
    codes are offset * m, and _same_insertion compares the shifted
    codes: unequal multisets answer False with no insertion, and no
    tableau is built.
    """
    a, b = elems(f), elems(fprime)
    if k is not None:
        k = _int(k, "the shift k")
    elif len(a) != len(b):
        return False
    codes, m, _ = _codes(a + b)
    ja, jb = _rho(codes[: len(a)], m), codes[len(a) :]
    if k is None:
        kb = [c for c in _rho(jb, m) if c % m == 0]
        if not kb:  # fprime misses the class of f[0], or both words are empty
            return not a
        k = (max([c for c in ja if c % m == 0]) - max(kb)) // m
    return _same_insertion(ja, _rho(jb, m, k), m)
