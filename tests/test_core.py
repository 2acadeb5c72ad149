import ast
import dataclasses
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    Comparison,
    compare_z,
    floor_from_rational,
    fraction_fieldelem_check,
    fraction_negate,
    negate,
    shift_by_int,
)
from rsinf import core
from rsinf.core import (
    FieldElem,
    Tableau,
    TableauFamily,
    as_partition,
    elem,
    elems,
    from_rational,
    parse_elem,
    parse_elems,
    parse_entry,
    same_anchor,
)
from rsinf.classifier import omega
from rsinf.cls import basic_level, cls_level, cls_params, gamma, member, q_union_level
from rsinf.rs_finite import (
    admissible, apply_interchange, connected, j, joseph_equal, rho_shift, rs, rs_trace,
)
from rsinf.rs_infinite import (
    Axis,
    EventuallyConstantSeq,
    StablyDecreasingSeq,
    block_ideal,
    eventually_constant,
    ins,
    partition_from_row,
    plus_rho,
    rs_infinite,
    stably_decreasing,
)


def test_rational_anchors_are_reduced():
    assert from_rational(Fraction(7, 2)) == FieldElem(Fraction(1, 2), 3)
    assert from_rational(-3) == FieldElem(Fraction(0), -3)
    assert from_rational(Fraction(-1, 2)) == FieldElem(Fraction(1, 2), -1)
    with pytest.raises(ValueError):
        FieldElem(Fraction(3, 2), 0)


def test_elem_coercions():
    assert elem(5) == FieldElem(Fraction(0), 5)
    assert elem("a-3") == FieldElem("a", -3)
    assert elem(elem(1)) == elem(1)
    with pytest.raises(TypeError):
        elem(True)
    with pytest.raises(TypeError):
        elem(1.5)


@pytest.mark.parametrize(
    "text,anchor,offset",
    [
        ("3", Fraction(0), 3),
        ("-4", Fraction(0), -4),
        ("1/2", Fraction(1, 2), 0),
        ("-1/2", Fraction(1, 2), -1),
        ("a", "a", 0),
        ("a+2", "a", 2),
        ("a-3", "a", -3),
        ("-a+1", "-a", 1),
        (" 7 ", Fraction(0), 7),
    ],
)
def test_parse_elem(text, anchor, offset):
    assert parse_elem(text) == FieldElem(anchor, offset)


# '٣' is ARABIC-INDIC DIGIT THREE and '１/２' uses FULLWIDTH digits: literals
# are ASCII, so neither is read as a number
@pytest.mark.parametrize(
    "text", ["", "a+", "1/0", "2x", "a b", "++3", "٣", "a+٣", "１/２"]
)
def test_parse_elem_rejects(text):
    with pytest.raises(ValueError):
        parse_elem(text)


def test_document_entries_are_strings_or_integers():
    assert parse_entry("a-3", "'tail'") == FieldElem("a", -3)
    assert parse_entry(-4, "'tail'") == FieldElem(Fraction(0), -4)
    assert parse_elems(["1/2", 3], "'values'") == (
        FieldElem(Fraction(1, 2), 0),
        FieldElem(Fraction(0), 3),
    )
    # JSON null, true and false are not read as the symbols None, True, False
    for value, shown in ((None, "null"), (True, "true"), (False, "false"),
                         (1.5, "1.5"), ([1], "[1]"), ({}, "{}")):
        with pytest.raises(ValueError) as exc:
            parse_entry(value, "'tail'")
        assert str(exc.value) == f"'tail' must be a string or an integer, not {shown}"
        with pytest.raises(ValueError, match="an entry of 'exceptions' must be"):
            parse_elems(["1", value], "'exceptions'")


def test_str_forms():
    assert str(FieldElem("a", -3)) == "a-3"
    assert str(FieldElem("a", 2)) == "a+2"
    assert str(FieldElem("a", 0)) == "a"
    assert str(FieldElem(Fraction(1, 2), -1)) == "-1/2"
    assert str(FieldElem(Fraction(0), -4)) == "-4"


def test_repr_of_huge_elements_never_raises():
    # repr is str wherever str prints, so shown answers stay the same
    for e in (FieldElem("a", -3), elem("1/2"), elem(-4), FieldElem("-b", 10**4000)):
        assert repr(e) == str(e)
    huge = elem(-10**4299).shift(-10**4300)
    with pytest.raises(ValueError, match="more than"):
        str(huge)
    bits = (10**4300 + 10**4299).bit_length()
    assert repr(huge) == f"FieldElem(0, offset=-<{bits}-bit int>)"
    assert repr(FieldElem("-a", 10**5000)) == (
        f"FieldElem(-a, offset=<{(10**5000).bit_length()}-bit int>)"
    )
    den = 3**9500
    assert repr(FieldElem(Fraction(1, den), 2)) == (
        f"FieldElem(1/<{den.bit_length()}-bit int>, offset=2)"
    )
    # a container's repr, as an assertion message shows it
    assert repr((huge, elem(1))) == f"(FieldElem(0, offset=-<{bits}-bit int>), 1)"


def test_rational_str_matches_fraction_sum():
    # __str__ prints numerator + offset * denominator over the denominator
    # with int arithmetic; it must read exactly as the Fraction sum prints
    rng = random.Random(21)
    values = [Fraction(0), Fraction(-1), Fraction(1, 2), Fraction(-1, 2), Fraction(-7, 3)]
    for _ in range(2000):
        den = rng.choice((1, 2, 3, 7, 10, 2**40 + 15, rng.randint(1, 10**6)))
        values.append(Fraction(rng.randint(-(10**20), 10**20), den))
    for q in values:
        e = from_rational(q)
        assert str(e) == str(e.anchor + e.offset) == str(q), q
    assert any(q < 0 and q.denominator > 1 for q in values)
    assert str(FieldElem(Fraction(3, 7), -2)) == "-11/7"


@given(
    st.one_of(
        st.fractions(max_denominator=12),
        st.sampled_from(["a", "b", "-a", "x_1"]),
    ),
    st.integers(min_value=-50, max_value=50),
)
def test_print_parse_round_trip(anchor, k):
    if isinstance(anchor, Fraction):
        e = from_rational(anchor).shift(k)
    else:
        e = FieldElem(anchor, k)
    assert parse_elem(str(e)) == e


@given(st.integers(-30, 30), st.integers(-30, 30))
def test_shift_additive(j, k):
    e = FieldElem("a", 0)
    assert e.shift(j).shift(k) == e.shift(j + k)
    assert shift_by_int(e, j) == e.shift(j)


@given(
    st.one_of(st.fractions(max_denominator=9), st.sampled_from(["a", "-b"])),
    st.integers(-20, 20),
)
def test_negate_involution(anchor, k):
    e = elem(anchor).shift(k) if not isinstance(anchor, str) else FieldElem(anchor, k)
    assert negate(negate(e)) == e


def test_negate_values():
    assert negate(elem(3)) == elem(-3)
    assert negate(elem(Fraction(1, 2))) == elem(Fraction(-1, 2))
    assert negate(FieldElem("a", -3)) == FieldElem("-a", 3)


def test_compare_z():
    assert compare_z(elem(3), elem(1)) is Comparison.GREATER
    assert compare_z(elem(1), elem(3)) is Comparison.LESS
    assert compare_z(elem("a+1"), elem("a+1")) is Comparison.EQUAL
    assert compare_z(elem("a"), elem(0)) is Comparison.INCOMPARABLE
    assert compare_z(elem(Fraction(1, 2)), elem(0)) is Comparison.INCOMPARABLE


def test_as_partition():
    assert as_partition([3, 1, 0, 0]) == (3, 1)
    assert as_partition([]) == ()
    assert as_partition([0]) == ()
    with pytest.raises(ValueError):
        as_partition([1, 2])
    with pytest.raises(ValueError):
        as_partition([2, -1])


def test_as_partition_refuses_non_integer_parts():
    # a float part was truncated: [2.9, 1.5] read as (2, 1)
    with pytest.raises(TypeError, match="part must be an int, not 2.9"):
        as_partition([2.9, 1.5])
    with pytest.raises(TypeError, match="part must be an int, not 1.0"):
        as_partition([2, 1.0])
    with pytest.raises(TypeError, match="part must be an int, not True"):
        as_partition([2, True])
    with pytest.raises(TypeError, match="part must be an int, not '1'"):
        as_partition(["1"])


_LAWS = stably_decreasing(Axis.ALL, [], edge=0, left_law=0, right_law=0)
_NEG_ROW = rs_infinite(plus_rho(eventually_constant(Axis.NEG, [3], left_tail=0)))
_P = cls_params(0, 0, 0)

# every public integer argument, named as its error names it, and a call
# that passes v in its place and answers for v = 1
INTEGER_ARGUMENTS = [
    ("an entry of positions", lambda v: ins([v], [5], _LAWS)),
    ("edge", lambda v: eventually_constant(Axis.POS, [1, 2], edge=v, right_tail=0)),
    ("edge", lambda v: stably_decreasing(Axis.NEG, [1], edge=v, left_law=0)),
    ("edge", lambda v: EventuallyConstantSeq(Axis.NEG, (), v, elem(0))),
    ("edge", lambda v: StablyDecreasingSeq(Axis.ALL, (), v, elem(0), elem(0))),
    ("r", lambda v: partition_from_row(_NEG_ROW, 0, v)),
    ("the interchange position i", lambda v: admissible([2, "a", 3], v)),
    ("the interchange position i", lambda v: apply_interchange([2, "a", 3], v)),
    ("the shift k", lambda v: joseph_equal([1, 2], [0, 1], k=v)),
    ("a partition part", lambda v: as_partition([2, v])),
    ("r'", lambda v: cls_params(v, 0, 0)),
    ("r''", lambda v: cls_params(0, v, 0)),
    ("g", lambda v: cls_params(0, 0, v)),
    ("an entry of X", lambda v: cls_params(0, 0, 0, X=(2, v))),
    ("an entry of Y", lambda v: cls_params(0, 0, 0, Y=(v,))),
    ("the family index i", lambda v: basic_level("L", v, 3, 2)),
    ("the level", lambda v: basic_level("L", 1, v, 2)),
    ("the entry bound", lambda v: basic_level("Linf", 1, 3, v)),
    ("the level", lambda v: cls_level(_P, v, 2)),
    ("the entry bound", lambda v: cls_level(_P, 3, v)),
    ("the level", lambda v: gamma(_P, v)),
    ("the level", lambda v: member(_P, (0,), v)),
    ("an entry of the weight", lambda v: member(_P, (2, v, 0))),
    ("r", lambda v: q_union_level(v, 0, (), (), 3, 2)),
    ("the level", lambda v: q_union_level(0, 0, (), (), v, 2)),
    ("the entry bound", lambda v: q_union_level(0, 0, (), (), 3, v)),
    # -1.5 answered a tail value, and -2.5 failed as an offset of 2.5
    ("the position p", lambda v: eventually_constant(Axis.POS, [3], right_tail=0).value(v)),
    ("the position p", lambda v: _LAWS.value(v)),
]


@pytest.mark.parametrize("name, call", INTEGER_ARGUMENTS, ids=[n for n, _ in INTEGER_ARGUMENTS])
def test_integer_arguments_refuse_what_is_not_an_int(name, call):
    # 1.5 would truncate and True would answer as 1: neither is an int,
    # and neither is the string "1"
    call(1)
    for v in (1.5, True, "1"):
        with pytest.raises(TypeError) as exc:
            call(v)
        assert str(exc.value).startswith(f"{name} must be "), str(exc.value)
        assert str(exc.value).endswith(f", not {v!r}"), str(exc.value)


def test_every_int_call_keeps_what_it_returns():
    """core._int returns the plain int that the caller computes with.  A
    call that is a whole statement, or only compared, checks the
    argument and keeps the caller's object, so an int subclass's own
    arithmetic reaches the computation: twelve such calls gave wrong
    answers for eight public calls."""
    dropped = []
    for path in sorted(Path(core.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Expr, ast.Compare)):
                for child in ast.iter_child_nodes(node):
                    func = getattr(child, "func", None)
                    if getattr(func, "id", getattr(func, "attr", None)) == "_int":
                        dropped.append(f"{path.name}:{child.lineno}")
    assert dropped == []


def _answer(call):
    try:
        return call()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("lying, plain", [
    (lambda: cls_level(cls_params(_Odd(5), 0, 0), 3, 1), lambda: cls_level(cls_params(5, 0, 0), 3, 1)),
    (lambda: cls_level(cls_params(0, 0, 1), _Odd(3), 2), lambda: cls_level(cls_params(0, 0, 1), 3, 2)),
    (lambda: basic_level("R", _Odd(1), 3, 9), lambda: basic_level("R", 1, 3, 9)),
    (lambda: q_union_level(_Odd(1), 0, (), (), 3, 1), lambda: q_union_level(1, 0, (), (), 3, 1)),
    (lambda: member(cls_params(0, 0, 1), tuple(map(_Odd, (2, 1, 0)))),
     lambda: member(cls_params(0, 0, 1), (2, 1, 0))),
    (lambda: admissible([3, 1, 2], _Odd(2)), lambda: admissible([3, 1, 2], 2)),
    (lambda: apply_interchange([3, 1, 2], _Odd(2)), lambda: apply_interchange([3, 1, 2], 2)),
    (lambda: joseph_equal([1, 2], [0, 1], k=_Odd(1)), lambda: joseph_equal([1, 2], [0, 1], k=1)),
], ids=["r'", "level", "index", "r", "weight", "admissible", "apply_interchange", "shift"])
def test_lying_int_arguments_answer_as_plain_ones(lying, plain):
    # an int subclass's own sums and differences reached each of these
    # calls: where they give 0, the calls answered three weights where
    # r' = 5 is refused, {(0, 0, 0)}, an extra (1, 0, 0), the empty set,
    # True, True, (2, 1, 3) and False, without an error
    assert _answer(lying) == _answer(plain)


def test_bool_offsets_are_refused():
    # FieldElem(Fraction(0), True) used to build and print 1
    for anchor in (Fraction(0), Fraction(1, 2), "a"):
        for flag in (True, False):
            with pytest.raises(TypeError) as exc:
                FieldElem(anchor, flag)
            assert str(exc.value) == f"offset must be int, got {flag!r}"
    with pytest.raises(TypeError, match="offset must be int, got True"):
        Tableau.from_offsets(0, [[True]])


def test_tableau_validation():
    t = Tableau.from_offsets(0, [[2, 1], [2]])
    assert t.shape == (2, 1)
    assert t.size() == 3
    # rows must strictly decrease
    with pytest.raises(ValueError):
        Tableau.from_offsets(0, [[1, 1]])
    # columns must not increase downward
    with pytest.raises(ValueError):
        Tableau.from_offsets(0, [[1], [2]])
    # row lengths must weakly decrease
    with pytest.raises(ValueError):
        Tableau.from_offsets(0, [[2], [2, 1]])
    with pytest.raises(ValueError):
        Tableau.from_offsets(0, [[]])
    # entries must share the anchor
    with pytest.raises(ValueError):
        Tableau("a", ((elem(1),),))


def test_tableau_from_offsets_does_not_truncate():
    # [[1.7, 0.2]] used to give offsets ((1, 0),)
    with pytest.raises(TypeError, match="offset must be int, got 1.7"):
        Tableau.from_offsets(0, [[1.7, 0.2]])
    with pytest.raises(TypeError, match="offset must be int, got '3'"):
        Tableau.from_offsets("a", [["3"]])


def test_tableau_reports_its_first_fault():
    # the row is not strictly decreasing and the second row is in another
    # class: the class of every entry is checked first
    with pytest.raises(ValueError, match="not in class of anchor 0"):
        Tableau(Fraction(0), ((elem(1), elem(1)), (elem("a"),)))
    # row lengths are checked before row order, row order before columns
    with pytest.raises(ValueError, match="row lengths must weakly decrease"):
        Tableau.from_offsets(0, [[1], [3, 3]])
    with pytest.raises(ValueError, match="row not strictly decreasing"):
        Tableau.from_offsets(0, [[1, 1], [2]])


def test_tableau_from_offsets_requires_reduced_anchor():
    with pytest.raises(ValueError):
        Tableau.from_offsets(Fraction(3, 2), [[0]])
    t = Tableau.from_offsets(Fraction(1, 2), [[0]])
    assert t.rows[0][0] == elem(Fraction(1, 2))


def test_family_order_is_canonical():
    ta = Tableau.from_offsets("a", [[1]])
    t0 = Tableau.from_offsets(0, [[5]])
    assert TableauFamily((ta, t0)) == TableauFamily((t0, ta))
    assert [t.anchor for t in TableauFamily((ta, t0))] == [Fraction(0), "a"]
    with pytest.raises(ValueError):
        TableauFamily((ta, Tableau.from_offsets("a", [[2]])))


def test_families_order_classes_whose_names_do_not_print():
    """A family sorts its classes by printed name, and a class whose name
    is past the digit limit after every printable one, by (numerator,
    denominator); rs, j, rs_trace and rs_infinite print nothing, and
    used to raise on such an entry that classify read."""
    tiny, tinier = Fraction(1, 10**5000), Fraction(1, 10**5001)
    word = [tinier, tiny + 1, "a", 3, Fraction(1, 2), tiny]
    fam = rs(word)
    assert [t.anchor for t in fam] == [Fraction(0), Fraction(1, 2), "a", tiny, tinier]
    assert fam == TableauFamily(fam.tableaux[::-1])
    assert fam[3].offsets() == ((1, 0),)
    assert len(j(word)) == 5 and rs_trace(word)[-1].family == fam
    block = stably_decreasing(Axis.NEG, [tiny + 1, tiny + 3, 5, 7], left_law=tiny + 6)
    assert rs_infinite(block).r == 3
    with pytest.raises(ValueError, match=r"^the family has two tableaux of class "
                       r"FieldElem\(1/<16610-bit int>, offset=0\)$"):
        TableauFamily((rs([tiny])[0], rs([tiny + 2])[0]))


def test_family_size_and_access():
    fam = TableauFamily(
        (Tableau.from_offsets(0, [[2, 1]]), Tableau.from_offsets("a", [[0]]))
    )
    assert len(fam) == 2
    assert fam.size() == 3
    assert fam[0].anchor == Fraction(0)


class _Third(Fraction):
    """A Fraction subclass: FieldElem accepts it as a rational anchor."""


class _Name(str):
    pass


class _Offset(int):
    pass


def _fieldelem_corpus(rng):
    """(anchor, offset) pairs around every branch of the FieldElem check."""
    big = 2**64 + 3
    rationals = [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(60)]
    rationals += [
        Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2),
        Fraction(big - 1, big), Fraction(big, big - 1), Fraction(-1, big),
        Fraction(1, big), _Third(1, 3), _Third(4, 3), _Third(-1, 3), _Third(0),
    ]
    symbols = [
        "a", "-a", "x_1", "_", "_9", "A", "-Zz", "b", "", "-", "--a", "1a", "a-",
        "a+1", "a b", " a", "a\n", "é", "٣", "a٣", "ｘ", _Name("a"), _Name("1"),
    ]
    others = [None, 1.5, 0.0, 0, 3, big, -big, True, [0], (0,), {}, b"a", 1j]
    offsets = [0, 1, -1, 7, big, -big, _Offset(2), True, False, 1.0, 2.5, None,
               "3", [1], Fraction(1), Fraction(3, 2)]
    corpus = [(a, o) for a in rationals + symbols + others for o in offsets]
    corpus += [
        (rng.choice(rationals + symbols + others), rng.randint(-big, big))
        for _ in range(500)
    ]
    return corpus


def _outcome(fn, *args):
    try:
        fn(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return None


def test_fieldelem_check_matches_the_fraction_check():
    corpus = _fieldelem_corpus(random.Random(20261018))
    built = 0
    for anchor, offset in corpus:
        expected = _outcome(fraction_fieldelem_check, anchor, offset)
        got = _outcome(FieldElem, anchor, offset)
        if expected is None and isinstance(offset, bool):
            # the one intended difference: bool offsets are refused now
            assert got == (TypeError, f"offset must be int, got {offset!r}")
            continue
        assert got == expected, (anchor, offset)
        built += expected is None
    assert 0 < built < len(corpus)


def test_from_rational_matches_floor_and_subtract():
    rng = random.Random(7)
    big = 2**70 + 1
    values = [rng.randint(-50, 50) for _ in range(100)]
    values += [Fraction(rng.randint(-60, 60), rng.randint(1, 9)) for _ in range(200)]
    values += [0, -1, big, -big, Fraction(big, 3), Fraction(-big, big - 1),
               Fraction(8, 4), Fraction(-9, 3), _Third(7, 3), _Third(6, 3),
               _Offset(5), True, False, 2.5, -0.75, 3.0, "5/3", "-4", "x", None]
    for q in values:
        expected = _outcome(floor_from_rational, q)
        assert _outcome(from_rational, q) == expected, q
        if expected is None:
            e, ref = from_rational(q), floor_from_rational(q)
            assert e == ref and hash(e) == hash(ref), q
            assert type(e.offset) is int and type(e.anchor) is Fraction, q


def test_integer_elements_share_one_anchor():
    built = [
        elem(3), elem(-2**70), elem(Fraction(8, 4)), elem("5"), elem(" -4 "),
        parse_elem("+6"), parse_elem("6/3"), parse_elem("-9/-3"),
        parse_entry(4, "'tail'"), parse_entry("4", "'tail'"),
        from_rational(0), from_rational(Fraction(-7)), from_rational(2.0),
        negate(elem(3)), negate(elem(Fraction(-3, 3))), elem(3).shift(-5),
        shift_by_int(elem(0), 2), Tableau.from_offsets(0, [[1]]).rows[0][0],
        Tableau.from_offsets(Fraction(0), [[1]]).rows[0][0],
    ]
    built += [e for t in rs(["3", 1, elem(2), "a"]) for row in t.rows for e in row
              if t.anchor == 0]
    for e in built:
        assert e.anchor is core._ZERO, e
    # an element built by hand keeps its own anchor and still equals the
    # shared one
    user = FieldElem(Fraction(0), 3)
    assert user.anchor is not core._ZERO
    assert user == elem(3) and hash(user) == hash(elem(3))
    assert compare_z(user, elem(2)) is Comparison.GREATER
    assert len({user, elem(3), parse_elem("3")}) == 1
    fam = rs([user, "1", 2, FieldElem(Fraction(0), 5), "a", elem(4)])
    assert [t.anchor for t in fam] == [Fraction(0), "a"]
    assert fam == rs(["3", "1", "2", "5", "a", "4"])
    assert Tableau(Fraction(0), ((user, elem(1)),)).offsets() == ((3, 1),)


def _negate_corpus(rng):
    """Elements with rational anchors of denominator up to 97 (some of
    them Fraction subclasses) and offsets out to +-2**70, plus symbols."""
    big = 2**70
    offsets = [0, 1, -1, big, -big, big - 1, 1 - big, _Offset(5)]
    offsets += [rng.randint(-big, big) for _ in range(20)]
    offsets += [rng.randint(-100, 100) for _ in range(20)]
    anchors = [core._ZERO, Fraction(0), _Third(0), _Third(1, 3), _Third(2, 3),
               Fraction(1, 97), Fraction(96, 97), "a", "-a", _Name("b")]
    for _ in range(150):
        den = rng.randint(1, 97)
        anchors.append(Fraction(rng.randrange(den), den))
    return [FieldElem(a, rng.choice(offsets)) for a in anchors for _ in range(6)]


def test_negate_matches_fraction_arithmetic():
    corpus = _negate_corpus(random.Random(97))
    for e in corpus:
        got, want = e.negate(), fraction_negate(e)
        assert got == want and hash(got) == hash(want), e
        assert type(got.offset) is int, e
        assert got.negate() == e, e
    assert sum(isinstance(e.anchor, _Third) for e in corpus) == 18


def test_integer_negate_gives_the_shared_anchor():
    for anchor in (core._ZERO, Fraction(0), _Third(0)):
        for offset in (0, 3, -2**70):
            assert FieldElem(anchor, offset).negate().anchor is core._ZERO


def test_negate_matches_the_checked_constructor(monkeypatch):
    """negate builds its answer unchecked; the answer equals the element
    the checking constructor builds, and negating again gives back an
    equal element: on rationals whose anchors are distinct objects, on
    symbols and on negated symbols."""
    rng = random.Random(61)
    corpus = []
    for _ in range(200):
        den = rng.randint(1, 30)
        corpus.append(FieldElem(Fraction(rng.randrange(den), den), rng.randint(-50, 50)))
    corpus += [FieldElem(name, rng.randint(-50, 50))
               for name in ("a", "-a", "x_1", "-Zz", _Name("b")) for _ in range(10)]
    corpus += [FieldElem(core._ZERO, k) for k in (0, 1, -7, 2**70)]
    wants = []
    for e in corpus:
        if isinstance(e.anchor, str):
            name = e.anchor[1:] if e.anchor.startswith("-") else "-" + e.anchor
            wants.append(FieldElem(name, -e.offset))
        else:
            q = -(e.anchor + e.offset)
            floor = q.numerator // q.denominator
            wants.append(FieldElem(Fraction(q - floor), floor))
    checks = [0]
    check = FieldElem.__post_init__

    def counted(self):
        checks[0] += 1
        check(self)

    monkeypatch.setattr(FieldElem, "__post_init__", counted)
    for e, want in zip(corpus, wants):
        got = e.negate()
        assert type(got) is FieldElem and type(got.offset) is int, e
        assert got == want and hash(got) == hash(want) and repr(got) == repr(want), e
        assert got.negate() == e, e
        with pytest.raises(dataclasses.FrozenInstanceError):
            got.offset = 0
    assert checks[0] == 0
    assert sum(e.anchor.startswith("-") for e in corpus if not e.is_rational) == 20


def test_shift_by_an_int_matches_the_constructor():
    rng = random.Random(11)
    for e in _negate_corpus(rng)[::7]:
        for k in (0, 1, -1, 2**70, rng.randint(-10**6, 10**6)):
            got, want = e.shift(k), FieldElem(e.anchor, e.offset + k)
            assert type(got) is FieldElem and got.anchor is e.anchor
            assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
    e = elem("a+2")
    assert e.shift(_Offset(3)) == elem("a+5")

    class Halving(int):
        def __radd__(self, other):
            return other + self / 2

    # an int subclass's own arithmetic never reaches the offset
    assert type(e.shift(Halving(3)).offset) is int and e.shift(Halving(3)) == elem("a+5")


class _Odd(int):
    """An int whose own arithmetic gives no int."""

    def __add__(self, other):
        return 0.5

    def __sub__(self, other):
        return 0.25

    __radd__, __rsub__ = __add__, __sub__

    def __neg__(self):
        return "x"


def test_int_subclass_offsets_and_edges_are_kept_as_ints():
    # the unchecked paths did the subclass's arithmetic: 0.5, 'x' and 0.25
    e = FieldElem("a", _Odd(3))
    assert type(e.offset) is int
    assert e.shift(1) == elem("a+4") and type(e.shift(1).offset) is int
    assert e.negate() == elem("-a-3") and type(e.negate().offset) is int
    assert rho_shift([e]) == (elem("a+2"),)
    # block_ideal raised "'float' object cannot be interpreted as an integer"
    block = eventually_constant(Axis.NEG, [], edge=_Odd(-1), left_tail=0)
    assert type(block.edge) is int and block_ideal(block) == (0, 0, (), ())
    assert block.value(_Odd(-1)) == elem(0)


# a bool too: elem(3).shift(True) answered 4, and elem("1/2").shift(True) 3/2
@pytest.mark.parametrize("k", [1.5, "1", None, True, False])
def test_shift_refuses_non_integers(k):
    for e in (elem(3), elem("1/2"), elem("a")):
        with pytest.raises(TypeError, match=f"^the shift k must be an integer, not {k!r}$"):
            e.shift(k)


def test_same_anchor(monkeypatch):
    calls = [0]
    fraction_eq = Fraction.__eq__

    def counted(self, other):
        calls[0] += 1
        return fraction_eq(self, other)

    monkeypatch.setattr(Fraction, "__eq__", counted)
    half, other_half = Fraction(1, 2), Fraction(1, 2)
    assert half is not other_half and same_anchor(half, other_half)
    assert same_anchor(_Third(1, 2), half) and not same_anchor(half, Fraction(1, 3))
    assert not same_anchor(half, "a") and not same_anchor("a", half)
    assert not same_anchor("a", Fraction(0)) and not same_anchor(Fraction(0), "a")
    assert same_anchor(Fraction(0), core._ZERO) and same_anchor(_Third(0), core._ZERO)
    assert same_anchor("a", _Name("a")) and not same_anchor("a", "-a")
    assert not same_anchor(Fraction(1, 2), core._ZERO)
    seen = calls[0]
    assert half == other_half and calls[0] == seen + 1  # the counter sees __eq__
    monkeypatch.undo()
    assert seen == 0
    # elements compare through the same test, offsets first
    assert FieldElem("a", 0) != FieldElem(core._ZERO, 0)
    assert FieldElem(Fraction(0), 2) == elem(2) and elem(2) != elem(3)


def test_rational_classes_share_one_anchor():
    # a literal kept in the memo keeps the anchor it was built with, which
    # an eviction from _rational_anchor may since have replaced
    core._read_memo.cache_clear()
    half = from_rational(Fraction(7, 2)).anchor
    built = [
        parse_elem("7/2"), parse_elem("-1/2"), parse_elem("3/-2"), parse_elem("10/4"),
        elem("1/2"), elem(Fraction(-5, 2)), from_rational(_Third(1, 2)),
        from_rational(0.5), parse_entry("9/2", "'tail'"), parse_elem("1/2").negate(),
        elem("5/2").shift(-4), elem("1/2").shift(_Offset(2)),
        Tableau.from_offsets(Fraction(1, 2), [[1]]).rows[0][0],
    ]
    built += [e for t in rs(["1/2", 3, "5/2", "a", "-3/2"]) for row in t.rows for e in row
              if t.anchor == Fraction(1, 2)]
    for e in built:
        assert e.anchor is half, e
    assert type(half) is Fraction and half == Fraction(1, 2)
    third = parse_elem("1/3").anchor
    assert parse_elem("2/3").negate().anchor is third
    assert elem(Fraction(4, 3)).anchor is third is from_rational(Fraction(-5, 3)).anchor
    assert parse_elem("2/3").anchor is parse_elem("1/3").negate().anchor is not third


def test_shared_anchors_match_fraction_arithmetic():
    rng = random.Random(35)
    for _ in range(400):
        den = rng.randint(1, 40)
        q = Fraction(rng.randint(-200, 200), den)
        for e, ref in (
            (from_rational(q), floor_from_rational(q)),
            (parse_elem(f"{q.numerator * 3}/{q.denominator * 3}"), floor_from_rational(q)),
            (from_rational(q).negate(), fraction_negate(floor_from_rational(q))),
            (from_rational(q).shift(5), floor_from_rational(q + 5)),
        ):
            assert e == ref and hash(e) == hash(ref), q
            assert e.anchor == ref.anchor and hash(e.anchor) == hash(ref.anchor), q


def test_rs_hashes_each_anchor_object_at_most_once(monkeypatch):
    word = ["1/2", 3, "2/3", "-1/2", "1/2", 0, "5/3", 4, "7/2", "2/3", -1, "1/2"] * 5
    core._read_memo.cache_clear()  # as in test_rational_classes_share_one_anchor
    vals = [elem(v) for v in word]
    anchors = {id(e.anchor) for e in vals}
    assert len(anchors) == 3
    calls = [0]
    fraction_hash = Fraction.__hash__

    def counted(self):
        calls[0] += 1
        return fraction_hash(self)

    monkeypatch.setattr(Fraction, "__hash__", counted)
    fam = rs(word)
    seen = calls[0]
    hash(Fraction(1, 5))
    assert calls[0] == seen + 1  # the counter sees Fraction hashing
    monkeypatch.undo()
    assert seen <= len(anchors)
    assert [str(t.anchor) for t in fam] == ["0", "1/2", "2/3"]
    assert fam.size() == len(word)


def test_rational_anchor_cache_is_bounded():
    bound = core._rational_anchor.cache_info().maxsize
    assert bound is not None and bound < 5000
    for den in range(2, 5002):
        e = parse_elem(f"{den + 1}/{den}")
        assert e.offset == 1 and e.anchor == Fraction(1, den)
        assert core._rational_anchor.cache_info().currsize <= bound
    # an anchor rebuilt after eviction is equal, only not the same object
    assert parse_elem("1/2") == FieldElem(Fraction(1, 2), 0)


def test_sequence_arguments_refuse_a_string():
    """A string is one literal, not a sequence of them: "345" is not the
    word (3, 4, 5), and bytes are not a word of character codes."""
    for call in (lambda: rs("345"), lambda: connected("12", "21"), lambda: omega("12", 0)):
        with pytest.raises(TypeError, match="must not be a str"):
            call()
    with pytest.raises(TypeError, match="must not be a bytes"):
        rs(b"345")
    assert rs(["3", "4", "5"]) == rs([3, 4, 5])


class _Elem(FieldElem):
    pass


def test_elems_passes_a_tuple_of_elements_through():
    run = (elem(1), elem("a-2"), elem("1/2"), elem(1))
    assert elems(run) is run
    assert elems(()) == ()
    # anything else is coerced one entry at a time, as before
    sub = _Elem("b", 4)
    mixed = (3, "a-2", Fraction(7, 2), sub, elem(0), _Name("c"))
    got = elems(mixed)
    assert got == (elem(3), FieldElem("a", -2), FieldElem(Fraction(1, 2), 3), sub,
                   elem(0), FieldElem("c", 0))
    assert got[3] is sub and type(got) is tuple
    assert elems(iter(run)) == elems(list(run)) == run and elems(list(run)) is not run
    assert elems((sub,)) == (sub,)
    for value in ("12", b"12", bytearray(b"12")):
        with pytest.raises(TypeError, match="must not be a"):
            elems(value)
    with pytest.raises(TypeError, match="cannot coerce"):
        elems((elem(1), 1.5))


def test_elems_scans_any_sequence_of_elements_without_elem(monkeypatch):
    """A list or an iterator of exact elements is copied into a tuple once
    and kept entry for entry; elem runs only on a sequence holding
    something else, once per entry."""
    run = [elem(1), elem("a-2"), elem("1/2"), elem(1)]
    calls = []
    real = core.elem
    monkeypatch.setattr(core, "elem", lambda x: calls.append(x) or real(x))
    for values in (run, iter(run), tuple(run), (e for e in run)):
        got = elems(values)
        assert type(got) is tuple and all(a is b for a, b in zip(got, run, strict=True))
    assert calls == []
    assert elems([*run, 3]) == (*run, elem(3)) and len(calls) == 5
    calls.clear()
    sub = _Elem("b", 4)
    assert elems([sub, run[0]])[0] is sub and len(calls) == 2
    for value in ("12", b"12", bytearray(b"12")):
        with pytest.raises(TypeError, match="must not be a"):
            elems(value)


def test_elem_equality_with_another_type_is_not_implemented():
    """FieldElem.__eq__ leaves a non-element to the other operand: an
    element never equals the int or the literal it was built from."""
    three = elem(3)
    assert three.__eq__(3) is NotImplemented
    assert three.__eq__("3") is NotImplemented
    assert not three == 3 and three != 3 and 3 != three
    assert three != "3" and three != Fraction(3)
    assert three == from_rational(3)


@pytest.mark.parametrize("value", [3, b"3", None, ["3"], 1.5], ids=repr)
def test_parse_elem_refuses_non_strings(value):
    before = core._read_memo.cache_info()
    with pytest.raises(TypeError) as exc:
        parse_elem(value)
    assert str(exc.value) == f"an element literal must be a str, not {type(value).__name__}"
    assert core._read_memo.cache_info() == before


def _literal_corpus(seed: int, n: int) -> list[str]:
    """Seeded literals of every form: signed and space-padded integers,
    reducible fractions with either sign on either part, and symbols,
    negated or not, with offsets."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        kind = rng.randrange(3)
        if kind == 0:
            text = f"{rng.choice(['', '+', '-'])}{rng.randint(0, 10**rng.randint(1, 12))}"
        elif kind == 1:
            k, den = rng.randint(1, 6), rng.randint(1, 12)
            num = rng.randint(-40, 40) * k
            den *= k * rng.choice([1, -1])
            text = f"{num}/{den}"
        else:
            name = rng.choice(["-", ""]) + rng.choice(["a", "b", "x_1", "Zeta"])
            k = rng.randint(-50, 50)
            text = name if k == 0 else f"{name}{k:+d}"
        out.append(" " * rng.randint(0, 2) + text + " " * rng.randint(0, 2))
    return out


def test_literal_memo_matches_the_reader():
    corpus = _literal_corpus(47, 600)
    for _ in range(2):
        for text in corpus:
            got, want = parse_elem(text), core._read_elem(text)
            assert type(got) is FieldElem and type(got.offset) is int, text
            # the reader builds unchecked; the element is one the check accepts
            fraction_fieldelem_check(got.anchor, got.offset)
            assert FieldElem(got.anchor, got.offset) == got, text
            assert got == want and str(got) == str(want), text
            assert type(got.anchor) is type(want.anchor), text
    for text in ["", "1/0", "x y", "1/2/3", "٣"]:
        with pytest.raises(ValueError) as ref:
            core._read_elem(text)
        for _ in range(3):
            before = core._read_memo.cache_info().currsize
            with pytest.raises(ValueError) as exc:
                parse_elem(text)
            assert str(exc.value) == str(ref.value), text
            assert core._read_memo.cache_info().currsize == before, text


def test_literal_memo_is_bounded():
    info = core._read_memo.cache_info()
    assert info.maxsize == core._MEMO_SIZE and core._MEMO_MAX_LEN == 32
    for i in range(info.maxsize + 500):
        assert parse_elem(f"q{i}-7") == FieldElem(f"q{i}", -7)
    assert core._read_memo.cache_info().currsize <= info.maxsize
    # literals past the length bound are read without the memo: a huge
    # symbol name and an integer of 600 digits are never kept
    name, digits = "s" * 10_000, "9" * 600
    for _ in range(2):
        before = core._read_memo.cache_info()
        assert parse_elem(name + "+3") == FieldElem(name, 3)
        assert parse_elem("-" + digits) == FieldElem(Fraction(0), -int(digits))
        assert core._read_memo.cache_info() == before
    # the bound is inclusive, and a str subclass is never a key
    before = core._read_memo.cache_info()
    for text in ("7" * core._MEMO_MAX_LEN, "7" * (core._MEMO_MAX_LEN + 1), _Name("a+1")):
        assert parse_elem(text) == core._read_elem(text)
    after = core._read_memo.cache_info()
    assert after.hits + after.misses == before.hits + before.misses + 1



@pytest.mark.parametrize("build, message", [
    (lambda: Tableau(1.5, ()), "anchor must be Fraction or str, got <class 'float'>"),
    (lambda: Tableau(1.5, ((elem(1),),)), "anchor must be Fraction or str, got <class 'float'>"),
    (lambda: Tableau(Fraction(0), ((1.5,),)), "cannot coerce 1.5"),
    (lambda: Tableau("a", ("a",)), "must not be a str"),
    (lambda: TableauFamily((1, 2)), "a family holds tableaux, not int"),
], ids=["float-anchor", "float-anchor-with-rows", "float-entry", "str-row", "int-tableaux"])
def test_tableau_and_family_refuse_a_wrong_type_at_construction(build, message):
    """A tableau checks its anchor as FieldElem does and coerces its rows
    with elems, and a family holds tableaux only: each wrong type is a
    TypeError when it is built, never an AttributeError."""
    with pytest.raises(TypeError, match=re.escape(message)):
        build()


def test_tableau_coerces_its_rows():
    """Rows of raw values are coerced with elems, as regions and
    sequences coerce theirs; the anchor is checked as FieldElem does."""
    t = Tableau(Fraction(0), ((3, 2),))
    assert t == Tableau.from_offsets(0, [[3, 2]]) and t.rows == ((elem(3), elem(2)),)
    assert Tableau("a", [["a+1", "a"]]).rows == ((FieldElem("a", 1), FieldElem("a", 0)),)
    with pytest.raises(ValueError, match="not in class of anchor a"):
        Tableau("a", ((3,),))
    with pytest.raises(ValueError, match="not reduced"):
        Tableau(Fraction(3, 2), ())
