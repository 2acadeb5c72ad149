"""Properties of the tailed-sequence geometry shared by EventuallyConstantSeq
and StablyDecreasingSeq, checked against definitions read straight from
the fields: values, canonical forms, the star mirror, plus_rho and ins."""

import random
from fractions import Fraction

import pytest

from helpers import raw_value, weave_value
from rsinf.core import FieldElem
from rsinf.rs_infinite import (
    Axis,
    EventuallyConstantSeq,
    StablyDecreasingSeq,
    eventually_constant,
    ins,
    plus_rho,
    stably_decreasing,
    star_seq,
)

AXES = (Axis.NEG, Axis.POS, Axis.ALL)
KINDS = (EventuallyConstantSeq, StablyDecreasingSeq)
SPAN = range(-15, 16)
# integer, fraction and symbol classes, including a negated symbol
_ANCHORS = (Fraction(0), Fraction(1, 2), "a", "-b")


def _canonical(x):
    """Rebuild x through the canonicalizing constructor of its class."""
    if isinstance(x, EventuallyConstantSeq):
        return eventually_constant(
            x.axis, x.window, edge=x.edge, left_tail=x.left_tail, right_tail=x.right_tail
        )
    return stably_decreasing(
        x.axis, x.window, edge=x.edge, left_law=x.left_law, right_law=x.right_law
    )


def _tails(x):
    if isinstance(x, EventuallyConstantSeq):
        return x.left_tail, x.right_tail
    return x.left_law, x.right_law


def _tail_at(x, tail, p):
    return tail if isinstance(x, EventuallyConstantSeq) else tail.shift(-p)


def _rand_seq(rng, kind, axis):
    """A sequence with random fields, random edge and one or two value
    classes (so that window entries often equal tail values); built raw
    or canonical at random."""
    anchors = rng.sample(_ANCHORS, rng.randint(1, 2))

    def value():
        return FieldElem(rng.choice(anchors), rng.randint(-4, 4))

    window = tuple(value() for _ in range(rng.randint(0, 5)))
    edge = rng.randint(-5, 5)
    left = value() if axis is not Axis.POS else None
    right = value() if axis is not Axis.NEG else None
    x = kind(axis, window, edge, left, right)
    return _canonical(x) if rng.random() < 0.5 else x


def _cases(seed, count, kinds=KINDS):
    rng = random.Random(seed)
    for _ in range(count):
        for kind in kinds:
            for axis in AXES:
                yield rng, _rand_seq(rng, kind, axis)


def _values(x, span=SPAN, read=None):
    """{p: x.value(p)} (or read(x, p)) over span, with None where p is
    outside the domain."""
    out = {}
    for p in span:
        try:
            out[p] = read(x, p) if read else x.value(p)
        except ValueError:
            out[p] = None
    return out


def test_value_matches_the_field_definition():
    for _, x in _cases(1, 150):
        assert _values(x) == _values(x, read=raw_value), x


def test_canonical_form_is_idempotent_and_absorbs_tail_padding():
    for rng, x in _cases(2, 150):
        c = _canonical(x)
        assert _canonical(c) == c
        assert type(c) is type(x) and _values(c) == _values(x)
        # pad the window with the tail values it would have read anyway
        k = rng.randint(1, 3)
        first = x.edge - len(x.window) + 1 if x.axis is Axis.NEG else x.edge
        last = first + len(x.window) - 1
        window, edge = list(x.window), x.edge
        left, right = _tails(x)
        if x.axis is not Axis.POS:
            window[:0] = [_tail_at(x, left, p) for p in range(first - k, first)]
            if x.axis is Axis.ALL:
                edge -= k
        if x.axis is not Axis.NEG:
            window += [_tail_at(x, right, p) for p in range(last + 1, last + 1 + k)]
        padded = type(x)(x.axis, tuple(window), edge, left, right)
        assert _values(padded) == _values(x)
        assert _canonical(padded) == c


def test_star_seq_mirrors_values_and_is_an_involution():
    mirror_axis = {Axis.NEG: Axis.POS, Axis.POS: Axis.NEG, Axis.ALL: Axis.ALL}
    for _, x in _cases(3, 150):
        m = star_seq(x)
        assert type(m) is type(x) and m.axis is mirror_axis[x.axis]
        assert m == _canonical(m)
        for p in SPAN:
            got, want = _values(m, [-p])[-p], _values(x, [p])[p]
            assert got == (want.negate() if want is not None else None), (x, p)
        assert star_seq(m) == _canonical(x)


def test_star_seq_rejects_other_types():
    with pytest.raises(TypeError, match="cannot mirror tuple"):
        star_seq(())


def test_plus_rho_shifts_each_value_by_minus_its_position():
    for _, b in _cases(4, 300, kinds=(EventuallyConstantSeq,)):
        g = plus_rho(b)
        assert isinstance(g, StablyDecreasingSeq) and g.axis is b.axis
        assert g == _canonical(g)
        want = {p: (v.shift(-p) if v is not None else None) for p, v in _values(b).items()}
        assert _values(g) == want, b


def _rand_positions(rng):
    return sorted(rng.sample(range(-8, 9), rng.randint(0, 3)))


def test_ins_matches_the_weave_oracle():
    woven = 0
    for rng, f2 in _cases(5, 300, kinds=(StablyDecreasingSeq,)):
        pos = _rand_positions(rng)
        anchors = [t.anchor for t in _tails(f2) if t is not None] + ["c"]
        vals = [FieldElem(rng.choice(anchors), rng.randint(-4, 4)) for _ in pos]
        if not pos:
            assert ins(pos, vals, f2) is f2
            continue
        # every position must lie in f2's domain
        if f2.axis is Axis.NEG and pos[-1] > f2.edge:
            with pytest.raises(ValueError, match=f"^insertion position {pos[-1]} is past the domain end"):
                ins(pos, vals, f2)
            continue
        if f2.axis is Axis.POS and pos[0] < f2.edge:
            with pytest.raises(ValueError, match=f"^insertion position {pos[0]} is below the domain start"):
                ins(pos, vals, f2)
            continue
        # the woven sequence keeps the anchored end of the axis, and the
        # oracle reads every entry of it inside f2's domain
        if f2.axis is Axis.NEG:
            domain = range(-30, f2.edge + 1)
        elif f2.axis is Axis.POS:
            domain = range(f2.edge, 31)
        else:
            domain = range(-30, 31)
        want = {p: weave_value(pos, vals, f2, p) for p in domain}
        out = ins(pos, vals, f2)
        woven += 1
        assert out.axis is f2.axis and out == _canonical(out)
        for p in SPAN:
            assert _values(out, [p])[p] == want.get(p), (f2, pos, vals, p)
    assert woven > 300, woven
