from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rsinf.core import (
    Comparison,
    FieldElem,
    Tableau,
    TableauFamily,
    as_partition,
    compare_z,
    elem,
    from_rational,
    ge_z,
    gt_z,
    negate,
    parse_elem,
    parse_elems,
    parse_entry,
    same_class,
    shift_by_int,
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


@pytest.mark.parametrize("text", ["", "a+", "1/0", "2x", "a b", "++3"])
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
    assert gt_z(elem("a+1"), elem("a")) and not gt_z(elem("a"), elem("a"))
    assert ge_z(elem("a"), elem("a")) and not ge_z(elem("a"), elem(0))
    assert same_class(elem(Fraction(3, 2)), elem(Fraction(1, 2)))


def test_as_partition():
    assert as_partition([3, 1, 0, 0]) == (3, 1)
    assert as_partition([]) == ()
    assert as_partition([0]) == ()
    with pytest.raises(ValueError):
        as_partition([1, 2])
    with pytest.raises(ValueError):
        as_partition([2, -1])


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


def test_family_size_and_access():
    fam = TableauFamily(
        (Tableau.from_offsets(0, [[2, 1]]), Tableau.from_offsets("a", [[0]]))
    )
    assert len(fam) == 2
    assert fam.size() == 3
    assert fam[0].anchor == Fraction(0)
