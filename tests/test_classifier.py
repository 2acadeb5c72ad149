import enum
import importlib
import json
import random
import sys
from fractions import Fraction

import pytest

from helpers import ideal_of, unchecked_tableau_sites
from rsinf.classifier import (
    _cuts,
    Finite,
    Omega,
    OmegaStar,
    ProperIdeal,
    Valid,
    WeightSpec,
    Zeta,
    ZeroAnnihilator,
    ZeroIdeal,
    classify,
    finite,
    ideal_to_json,
    omega,
    omega_star,
    parse_spec,
    segment,
    spec_to_json,
    star_spec,
    validate,
    weight_spec,
    zeta,
)
from rsinf.core import FieldElem, Tableau, TableauFamily, elem
from rsinf.rs_finite import rs
from rsinf.rs_infinite import Axis, block_ideal, eventually_constant, plus_rho, rs_infinite


def test_region_factories_coerce():
    r = omega(["a-1", 2], 0)
    assert r.exceptions == (FieldElem("a", -1), elem(2))
    assert r.tail == elem(0)
    assert zeta(1, [], 0).left_tail == elem(1)
    assert finite(3, "b").values == (elem(3), FieldElem("b", 0))


def test_regions_coerce_their_values():
    """A region built with raw values holds elements, as the factories
    build it, so star_spec, validate and classify read it alike."""
    raw = WeightSpec((Omega((1, 2, 0, 5), elem(0)),))
    assert raw == weight_spec(omega([1, 2, 0, 5], 0))
    assert star_spec(raw) == weight_spec(omega_star(0, [-5, 0, -2, -1]))
    assert classify(raw) == ProperIdeal(2, 0, (3, 1), ())
    raw = WeightSpec((Omega((elem(1),), 0),))
    assert validate(raw) == Valid()
    assert classify(raw) == ProperIdeal(0, 0, (1,), ())
    assert Zeta("a", ["1/2", 3], 0) == zeta("a", ["1/2", 3], 0)
    assert Zeta("a", ["1/2", 3], 0).exceptions == (elem("1/2"), elem(3))
    assert Finite([1, "b"]) == finite(1, "b") and OmegaStar(2, ()).tail == elem(2)
    # a bad value raises elem's error when the region is built
    with pytest.raises(TypeError, match="cannot coerce"):
        Omega((1.5,), 0)
    with pytest.raises(TypeError, match="bool"):
        OmegaStar(True, ())
    with pytest.raises(ValueError, match="zero denominator"):
        Finite(("1/0",))
    with pytest.raises(ValueError, match="malformed"):
        Zeta(0, (), "a b")
    with pytest.raises(TypeError, match="must not be a str"):
        Omega("12", 0)


def test_spec_needs_an_infinite_region():
    with pytest.raises(ValueError):
        weight_spec(finite(1, 2))
    with pytest.raises(ValueError):
        WeightSpec(())
    assert weight_spec(omega([], 0)).regions == (Omega((), elem(0)),)


def test_validate_tail_classes():
    assert validate(weight_spec(omega([], 0), omega_star(1, []))) == Valid()
    v = validate(weight_spec(omega([], 0), omega_star("a", [])))
    assert isinstance(v, ZeroAnnihilator)
    assert "integrality classes" in v.reason
    v = validate(weight_spec(zeta(0, [], "a")))
    assert isinstance(v, ZeroAnnihilator)
    # the reason names a class past the digit limit by its bit lengths,
    # where it raised "an entry of the answer has more than 4300 digits"
    v = validate(weight_spec(omega([], 0), omega_star(Fraction(1, 10**5000), [])))
    assert v.reason == ("infinite tails fall in different integrality classes: "
                        "0, FieldElem(1/<16610-bit int>, offset=0)")


def test_segment_geometry():
    head, middles, tail = segment(
        weight_spec(omega([5], 0), zeta(0, ["a"], -3), omega_star(-3, [7]))
    )
    assert head.axis is Axis.POS
    assert head.window == (elem(5),)
    assert head.right_tail == elem(0)
    # the zeta restates both neighbouring tails, so there are four constant
    # stretches here and three gaps between them
    assert [m.axis for m in middles] == [Axis.ALL, Axis.ALL, Axis.ALL]
    assert middles[0].window == ()
    assert middles[0].left_tail == elem(0) and middles[0].right_tail == elem(0)
    assert middles[1].window == (FieldElem("a", 0),)
    assert middles[1].left_tail == elem(0) and middles[1].right_tail == elem(-3)
    assert middles[2].window == ()
    assert middles[2].left_tail == elem(-3) and middles[2].right_tail == elem(-3)
    assert tail.axis is Axis.NEG
    assert tail.window == (elem(7),)
    assert tail.left_tail == elem(-3)
    # a spec that starts and ends on a stretch has an empty head and tail
    head, middles, tail = segment(weight_spec(zeta(0, [], 0)))
    assert (head.axis, head.window, head.right_tail, head.edge) == (Axis.POS, (), elem(0), 1)
    assert [(m.axis, m.window, m.left_tail, m.right_tail, m.edge) for m in middles] == [
        (Axis.ALL, (), elem(0), elem(0), 0)
    ]
    assert (tail.axis, tail.window, tail.left_tail, tail.edge) == (Axis.NEG, (), elem(0), -1)
    # finite regions at both ends join the head and the tail
    head, middles, tail = segment(
        weight_spec(finite(1, "a"), zeta(0, [2], -1), finite(5))
    )
    assert (head.axis, head.window, head.right_tail, head.edge) == (
        Axis.POS, (elem(1), FieldElem("a", 0)), elem(0), 1
    )
    assert [(m.axis, m.window, m.left_tail, m.right_tail, m.edge) for m in middles] == [
        (Axis.ALL, (elem(2),), elem(0), elem(-1), 1)
    ]
    assert (tail.axis, tail.window, tail.left_tail, tail.edge) == (Axis.NEG, (elem(5),), elem(-1), -1)


def test_classify_zero_on_mixed_tails():
    out = classify(weight_spec(omega([], 0), omega([], "a")))
    assert isinstance(out, ZeroIdeal)
    assert "classes" in out.reason


def test_classify_single_stretch_has_no_degree():
    assert classify(weight_spec(omega([], 3))) == ProperIdeal(0, 0, (), ())
    assert classify(weight_spec(zeta(0, [], 0))) == ProperIdeal(0, 0, (), ())


def test_classify_symbol_exception_between_tails():
    out = classify(weight_spec(zeta(0, ["a"], -3)))
    assert out == ProperIdeal(1, 4, (), ())


def test_classify_step():
    assert classify(weight_spec(zeta(1, [], 0))) == ProperIdeal(0, 1, (), ())
    assert classify(
        weight_spec(omega_star(1, [1, 1]), omega([0], 0))
    ) == ProperIdeal(0, 1, (), ())


def test_classify_finite_support():
    assert classify(weight_spec(omega([2, 2], 0))) == ProperIdeal(0, 0, (2, 2), ())
    # dips below the tail on the left end land in Y; bumps above it would
    # count toward r instead
    assert classify(weight_spec(omega_star(0, [-2, -2]))) == ProperIdeal(
        0, 0, (), (2, 2)
    )
    assert classify(weight_spec(omega_star(0, [2, 2]))) == ProperIdeal(2, 0, (), ())


def test_star_spec_swaps_sides():
    s = weight_spec(omega([2, 2], 0), omega_star(0, [3]))
    out = classify(s)
    mirrored = classify(star_spec(s))
    assert isinstance(out, ProperIdeal) and isinstance(mirrored, ProperIdeal)
    assert (mirrored.r, mirrored.g) == (out.r, out.g)
    assert (mirrored.X, mirrored.Y) == (out.Y, out.X)


def test_star_spec_region_shapes():
    s = weight_spec(finite(1, "a"), zeta(0, [2], -1), omega(["b"], 5))
    m = star_spec(s)
    assert [type(r) for r in m.regions] == [OmegaStar, Zeta, Finite]
    assert m.regions[0].tail == elem(-5)
    assert m.regions[0].exceptions == (FieldElem("-b", 0),)
    assert m.regions[1] == Zeta(elem(1), (elem(-2),), elem(0))
    assert m.regions[2].values == (FieldElem("-a", 0), elem(-1))
    assert star_spec(m) == s


def test_parse_spec_round_trip():
    s = weight_spec(omega(["a-1", 2], 0), finite(7), zeta(0, [], -2))
    doc = spec_to_json(s)
    assert parse_spec(doc) == s
    assert parse_spec(json.dumps(doc)) == s
    # numbers inside the lists are read by their text
    doc = {"regions": [{"type": "omega", "exceptions": [2, 2], "tail": 0}]}
    assert parse_spec(doc) == weight_spec(omega([2, 2], 0))


def test_parse_spec_errors():
    with pytest.raises(ValueError, match="'regions'"):
        parse_spec({"tails": []})
    with pytest.raises(ValueError, match="'type'"):
        parse_spec({"regions": [{"values": []}]})
    with pytest.raises(ValueError, match="unknown region type"):
        parse_spec({"regions": [{"type": "ray", "tail": "0"}]})
    # a missing tail is named, with the type of the region that lacks it
    with pytest.raises(ValueError, match="a region of type 'omega' needs a 'tail' field"):
        parse_spec({"regions": [{"type": "omega"}]})
    # a string where a list belongs is not read character by character
    with pytest.raises(ValueError, match="'exceptions' must be a list"):
        parse_spec({"regions": [{"type": "omega", "exceptions": "55", "tail": "0"}]})
    with pytest.raises(ValueError, match="'exceptions' must be a list"):
        parse_spec({"regions": [{"type": "zeta", "left_tail": 0, "exceptions": "5", "right_tail": 0}]})
    with pytest.raises(ValueError, match="'values' must be a list"):
        parse_spec({"regions": [{"type": "finite", "values": "55"}]})


def test_ideal_to_json():
    assert ideal_to_json(ProperIdeal(1, 2, (3,), ())) == {
        "ideal": {"r": 1, "g": 2, "X": [3], "Y": []}
    }
    z = ideal_to_json(ZeroIdeal("because"))
    assert z == {"ideal": "zero", "reason": "because"}


def _random_spec(rng):
    """1-4 regions of every kind over integers, halves and symbols, with
    empty runs among them; the tails mostly share one class, so proper
    and zero ideals both occur."""
    anchors = [Fraction(0), Fraction(1, 2), "a", "-a"]
    tail_anchor = rng.choice(anchors)

    def run():
        return tuple(
            FieldElem(rng.choice(anchors), rng.randint(-4, 4))
            for _ in range(rng.randint(0, 3))
        )

    def tail():
        anchor = tail_anchor if rng.random() < 0.85 else rng.choice(anchors)
        return FieldElem(anchor, rng.randint(-4, 4))

    kinds = [
        lambda: Finite(run()),
        lambda: Omega(run(), tail()),
        lambda: OmegaStar(tail(), run()),
        lambda: Zeta(tail(), run(), tail()),
    ]
    while True:
        regions = tuple(rng.choice(kinds)() for _ in range(rng.randint(1, 4)))
        if not all(isinstance(r, Finite) for r in regions):
            return WeightSpec(regions)


_MIRROR_AXIS = {Axis.POS: Axis.NEG, Axis.ALL: Axis.ALL, Axis.NEG: Axis.POS}


def _negated(tail):
    return None if tail is None else tail.negate()


def test_spec_properties_over_all_region_kinds():
    rng = random.Random(20240505)
    seen = set()
    for _ in range(600):
        s = _random_spec(rng)
        seen.update(type(r) for r in s.regions)
        assert parse_spec(spec_to_json(s)) == s
        m = star_spec(s)
        assert star_spec(m) == s
        # every window and every stretch of the mirror is the spec's,
        # reversed and negated
        assert [(c.axis, c.window, c.left_tail, c.right_tail) for c in _cuts(m)] == [
            (_MIRROR_AXIS[c.axis], tuple(v.negate() for v in reversed(c.window)),
             _negated(c.right_tail), _negated(c.left_tail))
            for c in reversed(list(_cuts(s)))
        ]
        out, mirrored = classify(s), classify(m)
        if isinstance(out, ZeroIdeal):
            assert isinstance(mirrored, ZeroIdeal)
        else:
            assert isinstance(mirrored, ProperIdeal)
            assert (mirrored.r, mirrored.g) == (out.r, out.g)
            assert (mirrored.X, mirrored.Y) == (out.Y, out.X)
    assert seen == {Finite, Omega, OmegaStar, Zeta}


def test_classify_adds_up_the_blocks_of_segment():
    """classify reads the raw cuts of one pass over the regions; each
    gives the answer of segment's canonical block and of the full
    insertion, and the answers add up to classify's."""
    rng = random.Random(20240611)
    proper = 0
    for _ in range(400):
        s = _random_spec(rng)
        out = classify(s)
        if isinstance(out, ZeroIdeal):
            continue
        proper += 1
        head, middles, tail = segment(s)
        blocks = (head, *middles, tail)
        stats = [block_ideal(b) for b in blocks]
        assert [block_ideal(c) for c in _cuts(s)] == stats, s
        assert stats == [ideal_of(b, rs_infinite(plus_rho(b))) for b in blocks], s
        rs_, gs, xs, ys = zip(*stats)
        assert out == ProperIdeal(sum(rs_), sum(gs), xs[0], ys[-1]), s
    assert proper > 200


def test_classify_calls_block_ideal_once_per_block(monkeypatch):
    # the benchmark's tracer counts blocks at this seam
    spec = weight_spec(omega([5, 0], 0), finite(2), omega_star(0, [3, "a"]))
    calls = []
    inner = block_ideal

    def counted(block):
        calls.append(block.axis)
        return inner(block)

    monkeypatch.setattr(importlib.import_module("rsinf.classifier"), "block_ideal", counted)
    out = classify(spec)
    assert calls == [Axis.POS, Axis.ALL, Axis.NEG]
    monkeypatch.undo()
    assert out == classify(spec) == ProperIdeal(3, 1, (5,), ())


def test_classify_cuts_the_spec_once(monkeypatch):
    """classify validates and classifies from one pass of _cuts."""
    classifier = importlib.import_module("rsinf.classifier")
    specs = [_random_spec(random.Random(f"one-pass-{i}")) for i in range(40)]
    calls = []
    inner = classifier._cuts

    def counted(spec):
        calls.append(spec)
        return inner(spec)

    monkeypatch.setattr(classifier, "_cuts", counted)
    outs = [classify(s) for s in specs]
    assert calls == specs
    monkeypatch.undo()
    assert {type(o) for o in outs} == {ProperIdeal, ZeroIdeal}
    assert outs == [classify(s) for s in specs]


def test_classify_makes_no_enum_hash_call(monkeypatch):
    # the axis tables are looked up by every sequence built, so Axis keeps
    # the identity hash instead of the Python-level Enum.__hash__
    specs = [_random_spec(random.Random(f"enum-hash-{i}")) for i in range(40)]
    calls = [0]
    enum_hash = enum.Enum.__hash__

    def counted(self):
        calls[0] += 1
        return enum_hash(self)

    monkeypatch.setattr(enum.Enum, "__hash__", counted)
    outs = [classify(s) for s in specs]
    seen = calls[0]

    class Probe(enum.Enum):
        X = 1

    hash(Probe.X)
    assert calls[0] == seen + 1  # the counter sees Enum.__hash__
    monkeypatch.undo()
    assert seen == 0
    assert {type(o) for o in outs} == {ProperIdeal, ZeroIdeal}
    assert {hash(a) for a in Axis} == {object.__hash__(a) for a in Axis}


def test_classify_inserts_nothing(monkeypatch):
    """classify reads each block off row 1 of the law class: it makes no
    finite insertion, no kernel call and no tableau, however far apart
    the tails lie."""
    ri = importlib.import_module("rsinf.rs_infinite")
    rf = importlib.import_module("rsinf.rs_finite")
    specs = [_random_spec(random.Random(f"no-insertion-{i}")) for i in range(200)]
    specs.append(parse_spec(
        {"regions": [{"type": "zeta", "left_tail": "0", "exceptions": ["3"], "right_tail": "90"}]}
    ))
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    # every tableau and family built anywhere runs its class's __post_init__,
    # or the unchecked tableau constructor through some module's binding
    for owner, name, label in ((ri, "rs", "rs"), (ri, "seq_of", "seq_of"),
                               (Tableau, "__post_init__", "Tableau"),
                               (TableauFamily, "__post_init__", "TableauFamily"),
                               (rf, "insert_sequence", "insert_sequence"),
                               *unchecked_tableau_sites("Tableau")):
        monkeypatch.setattr(owner, name, counted(label, getattr(owner, name)))
    outs = [classify(s) for s in specs]
    seen = list(calls)
    # the counters see the insertion rs_infinite makes
    rs_infinite(plus_rho(eventually_constant(Axis.NEG, [3, 1], left_tail=0)))
    assert {"rs", "seq_of", "Tableau", "TableauFamily", "insert_sequence"} <= set(calls)
    monkeypatch.undo()
    assert seen == []
    assert outs[-1] == ProperIdeal(90, 0, (), ())
    assert any(isinstance(o, ProperIdeal) and o.r > 0 for o in outs[:-1])


# integer tails, symbol exceptions next to them and inside the windows
_INT_AND_SYMBOL_DOC = {"regions": [
    {"type": "omega", "exceptions": ["a", "3", "-b+2", "0"], "tail": "1"},
    {"type": "finite", "values": ["2", "b", "-1"]},
    {"type": "zeta", "left_tail": "4", "exceptions": ["a-1", "7", "-2"], "right_tail": "-3"},
    {"type": "omega_star", "tail": "2", "exceptions": ["5", "a+4", "-6"]},
]}


def test_integer_and_symbol_specs_make_no_fraction_calls(monkeypatch):
    spec = parse_spec(_INT_AND_SYMBOL_DOC)
    word = [v for c in _cuts(spec) for v in c.window]
    calls = dict.fromkeys(("__new__", "__add__", "__neg__", "__eq__"), 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        fn = Fraction.__dict__[name]
        if name == "__new__":
            fn = staticmethod(counting(name, fn.__func__))
        else:
            fn = counting(name, fn)
        monkeypatch.setattr(Fraction, name, fn)
    out = classify(spec)
    mirrored = classify(star_spec(spec))
    head, middles, tail = segment(spec)
    blocks = [block_ideal(b) for b in (head, *middles, tail)]
    fam = rs(word)
    seen = dict(calls)
    # the wrappers do count Fraction work
    assert -(Fraction(1, 2) + 1) == Fraction(-3, 2)
    assert all(calls.values())
    monkeypatch.undo()
    assert seen == dict.fromkeys(calls, 0)
    assert out == ProperIdeal(15, 9, (4,), (10,))
    assert mirrored == ProperIdeal(15, 9, (10,), (4,))
    assert sum(b[0] for b in blocks) == 15
    assert sorted(str(t.anchor) for t in fam) == ["-b", "0", "a", "b"]


def test_region_subclasses_answer_as_their_base():
    """A subclass of each region kind inherits its base's type name,
    mirror and stretches: classify, validate, star_spec and spec_to_json
    answer as they do for the base, and its values are coerced."""
    bases = [Finite((elem(1), elem("a"))), Omega((elem(3),), elem(0)),
             OmegaStar(elem(0), (elem(2), elem("b"))), Zeta(elem(0), (elem(1),), elem(0))]
    for base in bases:
        kind = type(base)
        sub_kind = type(f"My{kind.__name__}", (kind,), {})
        raw = [str(v) if isinstance(v, FieldElem) else tuple(map(str, v))
               for v in map(base.__dict__.get, kind.__dataclass_fields__)]
        sub = sub_kind(*raw)
        assert sub.__dict__ == base.__dict__
        for rest in ((Omega((), elem(0)),), (Zeta(elem(0), (elem(4),), elem("a")),)):
            spec, sub_spec = WeightSpec((base, *rest)), WeightSpec((sub, *rest))
            assert classify(sub_spec) == classify(spec)
            assert validate(sub_spec) == validate(spec)
            assert star_spec(sub_spec) == star_spec(spec)
            assert spec_to_json(sub_spec) == spec_to_json(spec)
    # something that is no region is refused by name, not by a KeyError
    with pytest.raises(TypeError, match="int is not a region type"):
        classify(WeightSpec((3,)))


def test_weight_spec_refuses_a_non_region():
    """A spec stores its regions as a tuple and refuses anything that is
    not a region with a TypeError when it is built."""
    with pytest.raises(TypeError, match="int is not a region type"):
        weight_spec(5)
    with pytest.raises(TypeError, match="str is not a region type"):
        WeightSpec("omega")
    with pytest.raises(TypeError, match="tuple is not a region type"):
        weight_spec(omega([], 0), ((), 0))
    spec = WeightSpec([omega([1], 0), finite(2)])
    assert spec.regions == (omega([1], 0), finite(2))
    assert spec == weight_spec(omega([1], 0), finite(2))
    assert classify(spec) == ProperIdeal(1, 0, (1,), ())


@pytest.mark.parametrize("call", [
    lambda v: classify(v), lambda v: validate(v), lambda v: star_spec(v),
    lambda v: segment(v), lambda v: spec_to_json(v),
], ids=["classify", "validate", "star_spec", "segment", "spec_to_json"])
def test_spec_functions_refuse_a_non_spec(call):
    """Each function of a spec refuses anything else with one TypeError,
    where each used to raise AttributeError on 'regions'."""
    for value, kind in ((5, "int"), ([omega([], 0)], "list"), (None, "NoneType")):
        with pytest.raises(TypeError, match=f"^a spec must be a WeightSpec, not {kind}$"):
            call(value)


def test_parse_spec_names_an_integer_past_the_digit_limit():
    """parse_spec decodes JSON text as the CLI does: an integer past
    Python's digit limit used to raise Python's own "Exceeds the limit"
    message, where rsinf classify named the document's integer."""
    limit = sys.get_int_max_str_digits()
    text = '{"regions": [{"type": "omega", "exceptions": [%s], "tail": "0"}]}' % ("9" * (limit + 1))
    with pytest.raises(ValueError, match=f"^an integer in the document has more than {limit} digits$"):
        parse_spec(text)


def test_parse_spec_refuses_a_document_nested_too_deeply():
    """A JSON text nested past the recursion limit, and an entry too deep
    or too circular to print in the error, are ValueErrors; the first
    was a RecursionError, as the second was."""
    with pytest.raises(ValueError, match="^the document nests too deeply$"):
        parse_spec("[" * 100_000)
    deep, loop = [], []
    for _ in range(100_000):
        deep = [deep]
    loop.append(loop)
    with pytest.raises(ValueError, match="^'tail' must be a string or an integer, not a list$"):
        parse_spec({"regions": [{"type": "omega", "tail": deep}]})
    with pytest.raises(ValueError, match="^an entry of 'values' must be a string or an integer, "
                                         "not a list$"):
        parse_spec({"regions": [{"type": "finite", "values": [loop]}]})
    with pytest.raises(ValueError, match=r"^'tail' must be a string or an integer, not \[1\]$"):
        parse_spec({"regions": [{"type": "omega", "tail": [1]}]})
