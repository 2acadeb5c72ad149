"""Every public callable, and the constructor of every dataclass they
read, called with hostile arguments: raw ints, bools, floats, strings,
bytes, None, empty tuples, subclasses, the wrong sequence form and
offsets of +-10^18.  Each call answers, or raises TypeError or ValueError
(LevelError is a ValueError); any other exception, an AttributeError,
KeyError or IndexError above all, fails the sweep.

Words have at most 7 entries, so that every finite insertion and
interchange search ends at once.  Every other argument may be +-10^18:
elements, the sequences and specs that block_ideal and classify read,
the law gaps of rs_infinite, the positions and sequences of ins, and the
levels, entry bounds and parameters of the level sets and of gamma and
member.  Where the answer grows with such a value, the call refuses
past its limit before building anything: rs_infinite past
_RS_INF_MAX_R displaced entries, ins past _INS_MAX_ENTRIES window
entries, and cls_level, q_union_level, cls.basic_level and gamma past
_LEVEL_MAX_ENTRIES entries.

Every call is made a second time with each int in its arguments
replaced by a Liar, an int whose own arithmetic and order lie, and
must answer or raise exactly as the first: the package computes with
the plain int that core._int returns, never with the caller's object.
"""

import json
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rsinf
from rsinf import (
    Axis,
    ClsParams,
    EventuallyConstantSeq,
    FieldElem,
    Finite,
    InfiniteRSResult,
    InsertionStep,
    InterchangePath,
    Omega,
    OmegaStar,
    StablyDecreasingSeq,
    Tableau,
    TableauFamily,
    WeightSpec,
    Zeta,
    elem,
    eventually_constant,
    omega,
    plus_rho,
    rs,
    rs_infinite,
    stably_decreasing,
)
from rsinf.classifier import spec_to_json
from rsinf.cls import basic_level

BIG = 10**18
# a list nested past the recursion limit, and a list that holds itself
DEEP, LOOP = [], []
for _ in range(100_000):
    DEEP = [DEEP]
LOOP.append(LOOP)


class MyInt(int):
    pass


class Liar(int):
    """An int whose own arithmetic and order lie: every sum, difference,
    product and negation is 0, and every order comparison is false."""

    def _zero(self, *other):
        return 0

    def _false(self, other):
        return False

    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = __neg__ = _zero
    __lt__ = __le__ = __gt__ = __ge__ = _false


def lie(value):
    """value with each int in it replaced by a Liar of the same value,
    inside lists and tuples and in the fields of a ClsParams too."""
    if type(value) is int:
        return Liar(value)
    if type(value) in (list, tuple):
        return type(value)(map(lie, value))
    if isinstance(value, ClsParams):
        return type(value)(*map(lie, (value.r1, value.r2, value.g, value.X, value.Y)))
    return value


class MyStr(str):
    pass


class MyTuple(tuple):
    pass


class MyElem(FieldElem):
    pass


class MyTableau(Tableau):
    pass


class MyFamily(TableauFamily):
    pass


class MyConstantSeq(EventuallyConstantSeq):
    pass


class MyDecreasingSeq(StablyDecreasingSeq):
    pass


class MyFinite(Finite):
    pass


class MyOmega(Omega):
    pass


class MyOmegaStar(OmegaStar):
    pass


class MyZeta(Zeta):
    pass


class MySpec(WeightSpec):
    pass


class MyParams(ClsParams):
    pass


# values that are no argument of any call, and odd ones that are
SCALARS = [
    0, 1, -1, 3, True, False, 1.5, -0.0, math.nan, math.inf, "", " ", "a", "3", "x y",
    "1/0", "-a+2", "1/2", "٣", b"3", bytearray(b"1"), None, (), [], {}, set(),
    BIG, -BIG, Fraction(1, 2), Fraction(-7, 3), MyInt(2), MyStr("b"), MyTuple((1,)),
    1j, object(), Axis.NEG, elem(0), MyElem("a", 1),
]
hostile = st.sampled_from(SCALARS)
# the same without +-10^18, for arguments whose answer grows with them
tame = st.sampled_from([v for v in SCALARS if not (isinstance(v, int) and abs(v) >= BIG)])

LITERALS = ["a", "-a+1", "b-2", "1/2", "-3/2", "2/3", "0", " 4 "]


def values(big: bool):
    """An argument that elem reads: ints, literals and elements, some of
    them subclasses, and +-10^18 when big."""
    out = [st.integers(-4, 4), st.sampled_from(LITERALS),
           st.sampled_from([elem(0), elem("a"), elem("1/2"), MyElem("b", -1), MyInt(3)])]
    if big:
        out.append(st.sampled_from([BIG, -BIG, elem(BIG), elem("a").shift(-BIG)]))
    return st.one_of(out)


def words(big: bool = True, size: int = 7):
    """A finite word of at most `size` entries, or something that is not one."""
    entries = st.one_of(values(big), hostile) if big else values(big)
    return st.one_of(
        st.lists(values(big), max_size=size).map(tuple),
        st.lists(entries, max_size=size),
        hostile,
    )


@st.composite
def sequence_calls(draw, tail: str, big: bool):
    """The arguments of a call to eventually_constant (tail "tail") or
    stably_decreasing (tail "law") that builds a sequence: any axis, at
    most 5 window entries, the tails the axis needs, which may lie in
    different classes, and a far edge when big."""
    axis = draw(st.sampled_from(list(Axis)))
    kwargs = {"edge": draw(st.integers(-5, 5) | (st.sampled_from([BIG, -BIG]) if big
                                                    else st.nothing()))}
    if axis is not Axis.POS:
        kwargs[f"left_{tail}"] = draw(values(big))
    if axis is not Axis.NEG:
        kwargs[f"right_{tail}"] = draw(values(big))
    return (axis, draw(st.lists(values(big), max_size=5))), kwargs


def sequences(factory, big: bool):
    """A sequence that factory (eventually_constant or stably_decreasing) builds."""
    tail = "tail" if factory is eventually_constant else "law"
    return sequence_calls(tail, big).map(lambda c: factory(*c[0], **c[1]))


def constructor_calls(tail: str):
    """The positional arguments of a sequence constructor, as a canonical
    sequence holds them."""
    def positional(call):
        (axis, window), kwargs = call
        return (axis, window, kwargs["edge"], kwargs.get(f"left_{tail}"),
                kwargs.get(f"right_{tail}")), {}
    return sequence_calls(tail, True).map(positional)


def blocks(big: bool):
    """Either sequence form, a subclass of either, or no sequence."""
    raw = sequences(eventually_constant, big)
    shifted = sequences(stably_decreasing, big)
    return st.one_of(
        raw, shifted, hostile,
        raw.map(lambda s: MyConstantSeq(s.axis, s.window, s.edge, s.left_tail, s.right_tail)),
        shifted.map(lambda s: MyDecreasingSeq(s.axis, s.window, s.edge, s.left_law, s.right_law)),
    )


def runs():
    """A run of exceptions, or no run."""
    return st.one_of(st.lists(values(True), max_size=3).map(tuple), hostile)


def stretches():
    """A constant stretch, or no value."""
    return st.one_of(values(True), hostile)


# each region kind and a subclass of it, with its fields in order: a run
# of exceptions (r) or one constant stretch (s)
REGION_KINDS = [(Finite, "r"), (Omega, "rs"), (OmegaStar, "sr"), (Zeta, "srs"),
                (MyFinite, "r"), (MyOmega, "rs"), (MyOmegaStar, "sr"), (MyZeta, "srs")]


@st.composite
def regions(draw):
    """A region of any kind or subclass of one, with valid values."""
    kind, fields = draw(st.sampled_from(REGION_KINDS))
    return kind(*(draw(st.lists(values(True), max_size=3)) if f == "r" else draw(values(True))
                  for f in fields))


@st.composite
def specs(draw):
    """A spec of 1 to 4 regions, which may be a WeightSpec subclass."""
    rs_ = draw(st.lists(regions(), min_size=1, max_size=4))
    if all(isinstance(r, Finite) for r in rs_):
        rs_.append(omega((), draw(values(True))))
    return draw(st.sampled_from([WeightSpec, MySpec]))(tuple(rs_))


def spec_args():
    return st.one_of(specs(), hostile, st.lists(regions(), max_size=2))


@st.composite
def documents(draw):
    """A spec document, one field of one region replaced by a hostile
    value or deleted, or no document at all."""
    doc = spec_to_json(draw(specs()))
    junk = st.sampled_from([None, 1.5, True, [], {}, "x y", [None], ["1/0"], 7, "omega"])
    if draw(st.booleans()):
        region = draw(st.sampled_from(doc["regions"]))
        field = draw(st.sampled_from(sorted(region)))
        if draw(st.booleans()):
            del region[field]
        else:
            region[field] = draw(junk)
    return doc


def spec_documents():
    return st.one_of(
        documents(), documents().map(json.dumps), hostile, st.text(max_size=8),
        st.sampled_from(['{"regions": 5}', "[]", "null", "{", '{"regions": [7]}', "[" * 100_000,
                         {"regions": [{"type": "omega", "tail": DEEP}]},
                         {"regions": [{"type": "finite", "values": [LOOP]}]}]),
    )


def families():
    fams = st.lists(values(True), max_size=7).map(rs)
    return st.one_of(
        fams, fams.filter(len).map(lambda f: f[0]), hostile,
        st.lists(fams.filter(len).map(lambda f: f[0]), max_size=3),
        fams.map(lambda f: MyFamily(f.tableaux)),
        fams.filter(len).map(lambda f: MyTableau(f[0].anchor, f[0].rows)),
        st.lists(hostile, max_size=3),
    )


def _result(g):
    """rs_infinite of g, or g itself when g is refused."""
    try:
        return rs_infinite(g)
    except (TypeError, ValueError):
        return g


def results():
    return st.one_of(
        sequences(stably_decreasing, False).map(_result),
        sequences(eventually_constant, False).map(plus_rho).map(_result),
        hostile,
        st.builds(InfiniteRSResult, hostile, hostile, hostile, hostile, hostile),
        st.just(InfiniteRSResult(Axis.NEG, elem(0), (), (), ())),
    )


def partitions(big: bool = False):
    """A partition, a list that need not be one, or no list."""
    part = st.integers(-1, 3) | st.sampled_from([BIG]) if big else st.integers(-1, 3)
    return st.one_of(st.lists(part, max_size=3).map(lambda p: sorted(p, reverse=True)),
                     st.lists(part, max_size=3), hostile)


@st.composite
def insertions(draw):
    """Arguments of an ins call that may answer: up to 3 increasing
    positions, near a stably decreasing sequence or +-10^18 away from it,
    and as many values."""
    pos = sorted(draw(st.sets(st.integers(-6, 6) | st.sampled_from([BIG, -BIG]), max_size=3)))
    vals = draw(st.lists(values(True), min_size=len(pos), max_size=len(pos)))
    return (pos, vals, draw(sequences(stably_decreasing, True))), {}


@st.composite
def row_reads(draw):
    """Arguments of a partition_from_row call that may answer: a NEG
    result and the class element its first row's law says."""
    g = draw(sequences(stably_decreasing, False).filter(lambda g: g.axis is Axis.NEG))
    try:
        result = rs_infinite(g)
    except ValueError:
        return (g, 0), {}
    h = result.first_row.left_law.shift(-result.r)
    return (result, draw(st.sampled_from([h, str(h), h.shift(1)])),
            draw(st.sampled_from([None, result.r]))), {}


@st.composite
def weights(draw):
    """Arguments of a member call that may answer: small parameters and a
    weakly decreasing weight of at most 6 entries."""
    vec = sorted(draw(st.lists(st.integers(-2, 6), min_size=1, max_size=6)), reverse=True)
    return (draw(params().filter(lambda p: isinstance(p, ClsParams))), vec), {}


def params(big: bool = False):
    """ClsParams of entries of at most 3 (or 10^18 when big), a subclass,
    or no parameters at all."""
    num = st.integers(0, 3) | (st.just(BIG) if big else st.nothing())
    part = st.lists(num.filter(bool), max_size=2).map(lambda p: tuple(sorted(p, reverse=True)))
    good = st.builds(ClsParams, num, num, num, part, part)
    return st.one_of(good, good.map(lambda p: MyParams(p.r1, p.r2, p.g, p.X, p.Y)), tame)


# a far level or bound makes a level set past its limit
far = st.sampled_from([BIG, 10**9])
levels = st.one_of(st.integers(-1, 6), far, hostile)
bounds = st.one_of(st.integers(-1, 4), far, hostile)
small = st.one_of(st.integers(-2, 8), tame)
flags = st.one_of(st.booleans(), hostile)


def args(*strategies, **kw):
    """Positional and keyword arguments drawn from the strategies."""
    return st.tuples(st.tuples(*strategies), st.fixed_dictionaries({}, optional=kw))


@st.composite
def pairs(draw):
    """Two words for connected and joseph_equal; the second is often a
    rearrangement of the first, so that the interchange search runs."""
    f = draw(words())
    if isinstance(f, (list, tuple)) and draw(st.booleans()):
        return f, draw(st.permutations(f))
    return f, draw(words())


def _args_of(pair_strategy, *rest):
    """A pair of words followed by arguments drawn from the rest."""
    return st.tuples(pair_strategy, st.tuples(*rest)).map(lambda t: (t[0] + t[1], {}))


def sequence_kwargs(tail: str, big: bool):
    """Keyword arguments of a sequence factory, each of them hostile or left out."""
    side = st.one_of(values(big), hostile, st.none())
    return {"edge": st.one_of(st.integers(-5, 5), hostile, st.none()),
            f"left_{tail}": side, f"right_{tail}": side}


# name -> strategy of (args, kwargs); a class's entry calls its constructor
SWEEP = {
    "Axis": args(st.one_of(st.sampled_from(["neg", "pos", "all", "NEG"]), hostile)),
    "ClsParams": args(small, small, small, partitions(True), partitions(True)),
    "EventuallyConstantSeq": args(st.one_of(st.sampled_from(list(Axis)), hostile),
                                  words(), small, stretches(), stretches())
    | constructor_calls("tail"),
    "FieldElem": args(st.one_of(st.sampled_from(["a", "-b", "a b", "1a", Fraction(1, 3),
                                                 Fraction(4, 3), Fraction(-1, 2)]), hostile),
                      st.one_of(st.integers(-4, 4), hostile)),
    "Finite": args(runs()),
    "InfiniteRSResult": args(hostile, hostile, hostile, hostile, hostile),
    "InsertionStep": args(families(), hostile),
    "InterchangePath": args(st.one_of(st.lists(st.tuples(small, flags), max_size=3), hostile)),
    "LevelError": args(hostile),
    "Omega": args(runs(), stretches()),
    "OmegaStar": args(stretches(), runs()),
    "ProperIdeal": args(hostile, hostile, hostile, hostile),
    "StablyDecreasingSeq": args(st.one_of(st.sampled_from(list(Axis)), hostile),
                                words(), small, stretches(), stretches())
    | constructor_calls("law"),
    "Tableau": args(st.one_of(st.sampled_from(["a", Fraction(0), Fraction(1, 2)]), hostile),
                    st.one_of(st.lists(words(), max_size=3), hostile)),
    "TableauFamily": args(families()),
    "Valid": args(),
    "WeightSpec": args(st.one_of(st.lists(regions(), max_size=3), hostile,
                                 st.lists(st.one_of(regions(), hostile), max_size=3))),
    "ZeroAnnihilator": args(hostile),
    "ZeroIdeal": args(hostile),
    "Zeta": args(stretches(), runs(), stretches()),
    "admissible": args(words(), small, flags),
    "apply_interchange": args(words(), small, flags),
    "block_ideal": args(blocks(True)),
    "classify": args(spec_args()),
    "cls_level": args(params(True), levels, bounds),
    "cls_params": args(small, small, small, X=partitions(True), Y=partitions(True)),
    "connected": _args_of(pairs(), flags),
    "elem": args(st.one_of(values(True), hostile)),
    "eventually_constant": args(st.one_of(st.sampled_from(list(Axis)), hostile), words(),
                                **sequence_kwargs("tail", True))
    | sequence_calls("tail", True),
    "finite": st.tuples(st.lists(st.one_of(values(True), hostile), max_size=3).map(tuple),
                        st.just({})),
    "gamma": args(params(True), levels),
    "ins": args(st.one_of(st.lists(st.integers(-6, 6) | st.sampled_from([BIG, -BIG]),
                                   max_size=3).map(sorted),
                          st.lists(st.one_of(small, hostile), max_size=3), hostile),
                st.one_of(st.lists(values(True), max_size=3), hostile),
                blocks(True))
    | insertions(),
    "j": args(words()),
    "joseph_equal": _args_of(pairs(), st.one_of(st.none(), st.integers(-3, 3),
                                                st.sampled_from([BIG, -BIG]), hostile)),
    "member": args(params(True), words(), st.one_of(st.none(), levels)) | weights(),
    "omega": args(runs(), stretches()),
    "omega_star": args(stretches(), runs()),
    "parse_elem": args(st.one_of(st.sampled_from(LITERALS + ["9" * 5000, "a+", "1/-2"]),
                                 st.text(max_size=8), hostile)),
    "parse_spec": args(spec_documents()),
    "partition_from_row": args(results(), st.one_of(values(True), hostile),
                               st.one_of(st.none(), small, st.sampled_from([BIG])))
    | row_reads(),
    "plus_rho": args(blocks(True)),
    "q_union_level": args(st.one_of(st.integers(0, 4), hostile), st.one_of(st.integers(0, 3), hostile),
                          partitions(True), partitions(True), levels, bounds)
    | args(st.integers(0, 4), st.integers(0, 3), partitions(), partitions(), st.integers(1, 6),
           st.integers(0, 4)),
    "rho_shift": args(words()),
    "rs": args(words()),
    "rs_infinite": args(blocks(True)) | args(sequences(eventually_constant, True).map(plus_rho)),
    "rs_trace": args(words()),
    "segment": args(spec_args()),
    "seq_of": args(families()),
    "stably_decreasing": args(st.one_of(st.sampled_from(list(Axis)), hostile), words(False),
                              **sequence_kwargs("law", False))
    | sequence_calls("law", False),
    "star_seq": args(blocks(True)),
    "star_spec": args(spec_args()),
    "validate": args(spec_args()),
    "weight_spec": st.tuples(st.lists(st.one_of(regions(), hostile), max_size=3).map(tuple),
                             st.just({})),
    "zeta": args(stretches(), runs(), stretches()),
}


def test_the_sweep_covers_every_public_callable():
    """A name added to rsinf.__all__ fails here until the sweep calls it."""
    public = {name for name in rsinf.__all__ if callable(getattr(rsinf, name))}
    assert public == set(SWEEP)


def test_the_suite_draws_repeatable_examples():
    """tests/conftest.py's profile is the default: the same examples on
    every run, no example database and no deadline."""
    assert settings.default.derandomize is True
    assert settings.default.database is None
    assert settings.default.deadline is None


@pytest.mark.parametrize("name", sorted(SWEEP))
@settings(max_examples=60)
@given(data=st.data())
def test_hostile_arguments_answer_or_raise_a_clean_error(name, data):
    call, kwargs = data.draw(SWEEP[name], label="arguments")
    try:
        getattr(rsinf, name)(*call, **kwargs)
    except (TypeError, ValueError):
        pass


def _outcome(call, args, kwargs):
    """What call(*args, **kwargs) answers, or the type and message of
    the TypeError or ValueError it raises; a message that names the type
    of a Liar argument names int instead."""
    try:
        return call(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        return type(exc), re.sub(rf"\b({__name__}\.)?Liar\b", "int", str(exc))


# an exception class answers an exception, which equals only itself
@pytest.mark.parametrize("name", sorted(set(SWEEP) - {"LevelError"}))
@settings(max_examples=30)
@given(data=st.data())
def test_lying_int_arguments_answer_as_plain_ones(name, data):
    """An int subclass's own arithmetic never reaches the computation:
    Liar(5) as r' gave three weights where 5 is refused, and Liar(2) as
    an interchange position admitted a move that 2 does not."""
    call, kwargs = data.draw(SWEEP[name], label="arguments")
    plain = _outcome(getattr(rsinf, name), call, kwargs)
    lying = _outcome(getattr(rsinf, name), lie(call), {k: lie(v) for k, v in kwargs.items()})
    assert lying == plain


@settings(max_examples=60)
@given(data=st.data())
def test_basic_level_answers_or_raises_a_clean_error(data):
    """cls.basic_level, which rsinf does not export, swept as the rest,
    with plain and with lying ints."""
    kind = data.draw(st.one_of(st.sampled_from(["T", "L", "R", "E", "Linf", "Rinf", "Einf"]),
                               hostile), label="kind")
    i, n, bound = data.draw(st.tuples(st.one_of(st.integers(-2, 8), hostile), levels, bounds),
                            label="i, level, bound")
    plain = _outcome(basic_level, (kind, i, n, bound), {})
    assert _outcome(basic_level, (kind, *map(lie, (i, n, bound))), {}) == plain
