"""Ground field elements, integral comparison, and decreasing tableaux.

Values live in a field extending the rationals with free symbols.  Every
value we handle is an anchor plus an integer offset, where the anchor is
either a rational in [0, 1) or a named symbol (possibly negated).  Two
values are comparable exactly when they share an anchor, i.e. when their
difference is an integer.  That partial order is all the combinatorics
downstream ever uses.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Union

Anchor = Union[Fraction, str]

# The anchor of every integer-class element built here.  Sharing one object
# lets tuple and dataclass equality take their identity shortcut instead of
# running Fraction.__eq__.
_ZERO = Fraction(0)


@dataclass(frozen=True)
class FieldElem:
    """An element anchor + offset with offset an integer.

    Rational anchors are kept in [0, 1) so that equal values always have
    equal representations.  Symbolic anchors are the symbol name, with a
    leading "-" marking the negated symbol; the name carries no numeric
    content.
    """

    anchor: Anchor
    offset: int

    def __post_init__(self):
        # Every element passes here, so the checks avoid Fraction arithmetic:
        # a Fraction's denominator is positive, which makes the range test
        # exact on numerator and denominator.  The shared integer anchor and
        # the exact-type tests come first; subclasses of Fraction, str and
        # int still pass.
        anchor, offset = self.anchor, self.offset
        if anchor is _ZERO:
            pass
        elif type(anchor) is Fraction or (
            not isinstance(anchor, str) and isinstance(anchor, Fraction)
        ):
            if not 0 <= anchor.numerator < anchor.denominator:
                raise ValueError(f"rational anchor {anchor} not reduced into [0,1)")
        elif isinstance(anchor, str):
            if not _SYMBOL_RE.fullmatch(anchor):
                raise ValueError(f"bad symbol name {anchor!r}")
        else:
            raise TypeError(f"anchor must be Fraction or str, got {type(anchor)!r}")
        if type(offset) is not int:
            if isinstance(offset, bool) or not isinstance(offset, int):
                raise TypeError(f"offset must be int, got {offset!r}")
            # an int subclass's own arithmetic never reaches the unchecked
            # paths (shift, negate, rho_shift), which trust int + int
            object.__setattr__(self, "offset", int(offset))

    def __eq__(self, other):
        # offsets first, then identity, then the class keys: comparing
        # (anchor, offset) tuples would run Fraction.__eq__ on a symbol and
        # a rational
        if other.__class__ is not self.__class__:
            return NotImplemented
        a, b = self.anchor, other.anchor
        return self.offset == other.offset and (a is b or _class_key(a) == _class_key(b))

    @property
    def is_rational(self) -> bool:
        return isinstance(self.anchor, Fraction)

    def shift(self, k: int) -> "FieldElem":
        if type(k) is not int:
            k = _int(k, "the shift k")
        # the anchor was checked when self was built, and int + int is an int
        return _unchecked(self.anchor, self.offset + k)

    def negate(self) -> "FieldElem":
        """-(anchor + offset), without Fraction arithmetic: a rational
        anchor a = num/den in (0, 1) gives -(a + o) = (1 - a) + (-o - 1),
        and 1 - a = (den - num)/den is again reduced and in (0, 1)."""
        # a flipped symbol is again a symbol name, and the offsets are ints
        anchor = self.anchor
        if anchor is _ZERO:
            return _unchecked(_ZERO, -self.offset)
        if isinstance(anchor, str):
            flipped = anchor[1:] if anchor.startswith("-") else "-" + anchor
            return _unchecked(flipped, -self.offset)
        num, den = anchor.numerator, anchor.denominator
        if num == 0:
            return _unchecked(_ZERO, -self.offset)
        return _unchecked(_rational_anchor(den - num, den), -self.offset - 1)

    def __str__(self) -> str:
        try:
            if isinstance(self.anchor, Fraction):
                # num/den is reduced, and adding an integer keeps it so
                num, den = self.anchor.numerator, self.anchor.denominator
                num += self.offset * den
                return str(num) if den == 1 else f"{num}/{den}"
            if self.offset > 0:
                return f"{self.anchor}+{self.offset}"
            if self.offset < 0:
                return f"{self.anchor}{self.offset}"
            return str(self.anchor)
        except ValueError:
            # past Python's limit on the digits of a decimal integer
            limit = sys.get_int_max_str_digits()
            raise ValueError(f"an entry of the answer has more than {limit} digits") from None

    def __repr__(self) -> str:
        """str(self); past the digit limit, the anchor and the sign and
        bit length of each integer too long to print, so that a
        traceback or an assertion message showing the element never
        fails."""
        try:
            return str(self)
        except ValueError:
            anchor = self.anchor
            if not isinstance(anchor, str):
                num, den = anchor.numerator, anchor.denominator
                anchor = "0" if den == 1 else f"{_int_repr(num)}/{_int_repr(den)}"
            return f"FieldElem({anchor}, offset={_int_repr(self.offset)})"


# the unchecked constructors' two calls, looked up once
_new, _set = object.__new__, object.__setattr__


def _unchecked(anchor: Anchor, offset: int) -> FieldElem:
    """FieldElem(anchor, offset) without __post_init__'s checks, for a
    caller that holds a checked anchor, or one valid by construction, and
    an int offset."""
    out = _new(FieldElem)
    # object.__setattr__ writes past the frozen __setattr__, as the
    # generated __init__ does.  Filling out.__dict__ instead would build
    # the instance dict, and every later attribute read of the element
    # would take the slower dict lookup.
    _set(out, "anchor", anchor)
    _set(out, "offset", offset)
    return out


def _int_repr(n: int) -> str:
    """str(n), or its sign and bit length past the digit limit."""
    try:
        return str(n)
    except ValueError:
        return f"{'-' if n < 0 else ''}<{n.bit_length()}-bit int>"


@lru_cache(maxsize=1024)
def _rational_anchor(num: int, den: int) -> Fraction:
    """The anchor num/den, for num/den reduced with 0 < num < den.

    Every element of a class built through here holds one anchor object,
    so identity shortcuts replace Fraction.__eq__ and __hash__.  The
    bound keeps a stream of distinct denominators from growing the cache;
    an anchor rebuilt after eviction is equal, only not identical.
    """
    return Fraction(num, den)


def _from_ratio(num: int, den: int) -> FieldElem:
    """num/den, given in lowest terms with den > 0, as a FieldElem."""
    # lowest terms: the remainder is coprime to den, so it is nonzero
    # unless den is 1, and the anchor num/den is reduced in (0, 1)
    if den == 1:
        return _unchecked(_ZERO, num)
    floor, num = divmod(num, den)
    return _unchecked(_rational_anchor(num, den), floor)


def from_rational(q) -> FieldElem:
    if type(q) is int:
        return FieldElem(_ZERO, q)
    if not isinstance(q, Fraction):
        q = Fraction(q)
    return _from_ratio(q.numerator, q.denominator)


def elem(x) -> FieldElem:
    """Coerce an int, Fraction, literal string, or FieldElem to FieldElem."""
    if isinstance(x, FieldElem):
        return x
    # str before the Fraction test, which goes through the ABC machinery
    if isinstance(x, str):
        return parse_elem(x)
    if isinstance(x, bool):
        raise TypeError("bool is not a field element")
    if isinstance(x, (int, Fraction)):
        return from_rational(x)
    raise TypeError(f"cannot coerce {x!r} to a field element")


def elems(values) -> tuple[FieldElem, ...]:
    """Coerce each of the values with elem.  A string is one literal, not
    a sequence of them, so a str, bytes or bytearray raises TypeError."""
    if isinstance(values, (str, bytes, bytearray)):
        raise TypeError(f"a sequence of field elements must not be a {type(values).__name__}")
    # one copy (none for a tuple), and exact FieldElems are already
    # coerced: the type scan runs in C, elem only on a mixed sequence
    values = tuple(values)
    if set(map(type, values)) == {FieldElem}:
        return values
    return tuple(map(elem, values))


def _int(value, name: str, kind: str = "an integer") -> int:
    """value as a plain int: an int subclass gives its int value, so its
    own arithmetic never reaches the caller, and a float, a string or a
    bool is refused, not truncated.  The error says `name` must be `kind`."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be {kind}, not {value!r}")
    return int(value)


# Symbol names and literals are ASCII: \d and \w would also match the
# digits and letters of other scripts.
_SYMBOL_RE = re.compile(r"-?[A-Za-z_][A-Za-z_0-9]*")
_INT_RE = re.compile(r"[+-]?[0-9]+")
_FRAC_RE = re.compile(r"([+-]?[0-9]+)/([+-]?[0-9]+)")
_SYM_RE = re.compile(rf"({_SYMBOL_RE.pattern})([+-][0-9]+)?")


def _digits(text: str, what: str) -> int:
    """int(text) for a string of ASCII digits, optionally signed; past
    Python's limit on the digits of a decimal integer, the ValueError
    names `what` and the limit."""
    try:
        return int(text)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"{what} has more than {limit} digits") from None


def _parse_int(text: str, what: str) -> int:
    """Read an ASCII integer literal, ignoring whitespace around it as
    parse_elem does; the error names the field `what`."""
    s = text.strip()
    if not _INT_RE.fullmatch(s):
        raise ValueError(f"{what} must be an integer, not {text!r}")
    return _digits(s, what)


# Literals of at most _MEMO_MAX_LEN characters are read once per process:
# the entries of a weight repeat, within one sequence and across calls.
# The length bound limits what the memo holds to _MEMO_SIZE short strings
# and their elements, and keeps every memoized integer far below the
# 640-digit floor of sys.set_int_max_str_digits, so no digit-limit check is
# ever skipped.  Elements are immutable, so callers may share them.  A kept
# element keeps its anchor object: once _rational_anchor has evicted that
# anchor, a kept element and one built afresh are equal, only not the same
# object.
_MEMO_MAX_LEN = 32
_MEMO_SIZE = 4096


def parse_elem(text: str) -> FieldElem:
    """Parse a literal: INT, INT/INT, SYM, SYM+INT, or SYM-INT.

    Symbols may carry a leading minus ("-a+3"), matching what negate()
    prints.  Whitespace around the literal is ignored.  A literal that
    is not a str raises TypeError.
    """
    # exactly str: a subclass may redefine the hash, equality or strip
    # that the memo and the reader rely on
    if type(text) is str and len(text) <= _MEMO_MAX_LEN:
        return _read_memo(text)
    return _read_elem(text)


def _read_elem(text: str) -> FieldElem:
    """parse_elem without the memo."""
    if not isinstance(text, str):
        raise TypeError(f"an element literal must be a str, not {type(text).__name__}")
    s = text.strip()
    what = "an integer in an element literal"
    # _digits gives an int, and a matched symbol is a valid anchor
    if _INT_RE.fullmatch(s):
        return _unchecked(_ZERO, _digits(s, what))
    m = _FRAC_RE.fullmatch(s)
    if m:
        num, den = _digits(m.group(1), what), _digits(m.group(2), what)
        if den == 0:
            raise ValueError(f"zero denominator in literal {text!r}")
        g = gcd(num, den) if den > 0 else -gcd(num, den)
        return _from_ratio(num // g, den // g)
    m = _SYM_RE.fullmatch(s)
    if m:
        return _unchecked(m.group(1), _digits(m.group(2) or "0", what))
    raise ValueError(f"malformed element literal {text!r}")


# lru_cache stores no call that raises
_read_memo = lru_cache(maxsize=_MEMO_SIZE)(_read_elem)


def _json_int(text: str) -> int:
    return _digits(text, "an integer in the document")


def _decode_json(text: str):
    """Decode a JSON document.  An integer past Python's digit limit and
    a document nested past its recursion limit raise a ValueError that
    says so."""
    try:
        return json.loads(text, parse_int=_json_int)
    except RecursionError:
        raise ValueError("the document nests too deeply") from None


def parse_entry(value, what: str) -> FieldElem:
    """Parse one document entry: a literal string or an integer.

    JSON null, true, false, floats, lists and objects are not entries.
    """
    if isinstance(value, str):
        return parse_elem(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return from_rational(value)
    try:
        shown = json.dumps(value, default=repr)
    except (RecursionError, ValueError):
        # nested too deeply to print, or holding itself
        shown = f"a {type(value).__name__}"
    raise ValueError(f"{what} must be a string or an integer, not {shown}")


def parse_elems(values, what: str) -> tuple[FieldElem, ...]:
    """Parse a document's list of entries; a string is not a list."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{what} must be a list, not {type(values).__name__}")
    label = f"an entry of {what}"
    return tuple([parse_entry(v, label) for v in values])


_REQUIRED = object()


def _field(doc, name: str, shape: str, kind: type = object, default=_REQUIRED):
    """Read field `name` of a decoded JSON document.

    `shape` says what a well-formed container holds ("a spec document is
    an object with a 'regions' list"), naming the field and the document;
    it is the ValueError raised when `doc` is not an object, lacks `name`
    and no default is given, or holds a `name` that is not a `kind`.
    """
    if not isinstance(doc, dict) or (name not in doc and default is _REQUIRED):
        raise ValueError(shape)
    value = doc.get(name, default)
    if not isinstance(value, kind):
        raise ValueError(shape)
    return value


def _class_key(anchor: Anchor):
    """The key of the anchor's integrality class: the symbol itself, or a
    rational anchor's (numerator, denominator), reduced with a positive
    denominator.  Two anchors are one class exactly when their keys are
    equal: a symbol never equals a tuple, and no Fraction is hashed or
    compared.  Every class-identity test goes through this key."""
    return anchor if isinstance(anchor, str) else (anchor.numerator, anchor.denominator)


def _class_name(anchor: Anchor) -> str:
    """The printed name of a checked anchor's class, as FieldElem prints
    anchor + 0, with no check run; past the digit limit, FieldElem's
    ValueError.  _class_key, not this, is the key to hash: a name may not
    print."""
    return str(_unchecked(anchor, 0))


def _class_order(anchor: Anchor) -> tuple:
    """The sort key of a checked anchor's class: (0, its printed name),
    or (1, numerator, denominator) for a rational anchor whose name is
    past the digit limit.  Equal keys are one class."""
    try:
        return 0, _class_name(anchor)
    except ValueError:
        return 1, anchor.numerator, anchor.denominator


def as_partition(parts: Iterable[int]) -> tuple[int, ...]:
    """Normalize to a partition: weakly decreasing nonnegative ints, no trailing zeros.

    Parts must be ints; a float or bool is refused, not truncated.
    """
    p = tuple([_int(x, "a partition part", "an int") for x in parts])
    for i in range(len(p) - 1):
        if p[i] < p[i + 1]:
            raise ValueError(f"not weakly decreasing: {p}")
    if p and p[-1] < 0:
        raise ValueError(f"negative part in {p}")
    while p and p[-1] == 0:
        p = p[:-1]
    return p


@dataclass(frozen=True)
class Tableau:
    """Rows of values from one integrality class.

    Rows strictly decrease left to right, columns never increase top to
    bottom, and row lengths weakly decrease.  All entries share the
    tableau's anchor.
    """

    anchor: Anchor
    rows: tuple[tuple[FieldElem, ...], ...]

    def __post_init__(self):
        """Check the anchor as FieldElem does, coerce each row with elems,
        then check the shape."""
        anchor = self.anchor
        FieldElem(anchor, 0)
        key = _class_key(anchor)
        _set(self, "rows", tuple(map(elems, self.rows)))
        for row in self.rows:
            if not row:
                raise ValueError("empty tableau row")
            for e in row:
                if e.anchor is not anchor and _class_key(e.anchor) != key:
                    raise ValueError(f"entry {e} not in class of anchor {anchor}")
        for r in range(len(self.rows) - 1):
            if len(self.rows[r]) < len(self.rows[r + 1]):
                raise ValueError("row lengths must weakly decrease")
        for row in self.rows:
            for c in range(len(row) - 1):
                if row[c].offset <= row[c + 1].offset:
                    raise ValueError(f"row not strictly decreasing at {row[c]}, {row[c+1]}")
        for r in range(len(self.rows) - 1):
            upper, lower = self.rows[r], self.rows[r + 1]
            for c in range(len(lower)):
                if upper[c].offset < lower[c].offset:
                    raise ValueError("column increases downward")

    @classmethod
    def from_offsets(cls, anchor, rows: Iterable[Iterable[int]]) -> "Tableau":
        if isinstance(anchor, (int, Fraction)):
            fe = from_rational(anchor)
            if fe.offset != 0:
                raise ValueError(f"anchor {anchor} is not reduced; put the integer part in the offsets")
            anchor = fe.anchor
        return cls(anchor, tuple(tuple(FieldElem(anchor, o) for o in row) for row in rows))

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(row) for row in self.rows)

    def offsets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(e.offset for e in row) for row in self.rows)

    def size(self) -> int:
        return sum(len(row) for row in self.rows)


def _unchecked_tableau(anchor: Anchor, rows: tuple) -> Tableau:
    """Tableau(anchor, rows) without __post_init__'s checks, for rows the
    kernel built over the entries of one class, which hold the tableau
    shape by construction; user input goes through Tableau itself."""
    out = _new(Tableau)
    # as in _unchecked
    _set(out, "anchor", anchor)
    _set(out, "rows", rows)
    return out


@dataclass(frozen=True)
class TableauFamily:
    """Tableaux with pairwise distinct anchors, kept in a canonical order.

    Construction order does not matter: tableaux are sorted by the printed
    form of their anchor (_class_order), so two families with the same
    per-class content compare equal.
    """

    tableaux: tuple[Tableau, ...]

    def __post_init__(self):
        # the order key names its class, so sorting by it puts equal
        # anchors side by side, and no anchor is hashed; each anchor was
        # checked when its tableau was built
        tabs = tuple(self.tableaux)
        for t in tabs:
            if not isinstance(t, Tableau):
                raise TypeError(f"a family holds tableaux, not {type(t).__name__}")
        keys = [_class_order(t.anchor) for t in tabs]
        order = sorted(range(len(keys)), key=keys.__getitem__)
        dup = next((tabs[a].anchor for a, b in zip(order, order[1:]) if keys[a] == keys[b]), None)
        if dup is not None:
            # the repr of the class's zero prints its name, or past the
            # digit limit the bit lengths of its anchor
            raise ValueError(f"the family has two tableaux of class {_unchecked(dup, 0)!r}")
        object.__setattr__(self, "tableaux", tuple(tabs[i] for i in order))

    def __iter__(self):
        return iter(self.tableaux)

    def __len__(self):
        return len(self.tableaux)

    def __getitem__(self, i):
        return self.tableaux[i]

    def size(self) -> int:
        return sum(t.size() for t in self.tableaux)
