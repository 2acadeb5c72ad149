import importlib
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from helpers import explicit_extract, ideal_of, rand_block, rand_block_doc, rand_entry, stable_margin
from rsinf.classifier import _Cut, classify, ideal_to_json, parse_spec
from rsinf.core import FieldElem, elem, parse_elem
from rsinf.rs_infinite import (
    Axis,
    EventuallyConstantSeq,
    InfiniteRSResult,
    StablyDecreasingSeq,
    block_ideal,
    eventually_constant,
    ins,
    partition_from_row,
    plus_rho,
    rs_infinite,
    stably_decreasing,
    star_seq,
)


def test_axis_tail_requirements():
    with pytest.raises(ValueError):
        EventuallyConstantSeq(Axis.NEG, (), -1, None, elem(0))
    with pytest.raises(ValueError):
        EventuallyConstantSeq(Axis.POS, (), 1, elem(0), None)
    with pytest.raises(ValueError):
        EventuallyConstantSeq(Axis.ALL, (), 1, elem(0), None)
    blk = eventually_constant(Axis.NEG, [3], left_tail=0)
    assert blk.left_tail == elem(0) and blk.right_tail is None
    # the canonicalizing constructors check the tails before reading them
    for build, tail in ((eventually_constant, "tail"), (stably_decreasing, "law")):
        with pytest.raises(ValueError, match=f"^a NEG sequence has exactly a left {tail}$"):
            build(Axis.NEG, [1])
        with pytest.raises(ValueError, match=f"^a POS sequence has exactly a right {tail}$"):
            build(Axis.POS, [1])
        with pytest.raises(ValueError, match=f"^an ALL sequence has both {tail}s$"):
            build(Axis.ALL, [1], **{f"left_{tail}": 0})
        # an axis is an Axis, not its value, and an edge is an int: True
        # was stored, and 0.5 failed later as an offset of 3.5
        with pytest.raises(TypeError, match="^axis must be an Axis, not 'neg'$"):
            build("neg", [1], **{f"left_{tail}": 0})
        for edge in (True, 0.5):
            with pytest.raises(TypeError, match=f"^edge must be an integer, not {edge}$"):
                build(Axis.POS, [1, 2], edge=edge, **{f"right_{tail}": 0})
    with pytest.raises(TypeError, match="^axis must be an Axis, not 'neg'$"):
        EventuallyConstantSeq("neg", (), -1, elem(0))


def test_window_canonicalization():
    blk = eventually_constant(Axis.NEG, [0, 0, 3], left_tail=0)
    assert blk.window == (elem(3),)
    blk = eventually_constant(Axis.POS, [3, 0, 0], right_tail=0)
    assert blk.window == (elem(3),)
    blk = eventually_constant(
        Axis.ALL, [1, 5, 0], edge=2, left_tail=1, right_tail=0
    )
    assert blk.window == (elem(5),) and blk.edge == 3
    # an all-tail two-sided window with equal tails collapses entirely
    blk = eventually_constant(Axis.ALL, [7, 7], edge=4, left_tail=7, right_tail=7)
    assert blk.window == () and blk.edge == 0


def test_value_domains():
    blk = eventually_constant(Axis.NEG, [3], left_tail=0)
    assert blk.value(-1) == elem(3)
    assert blk.value(-9) == elem(0)
    with pytest.raises(ValueError):
        blk.value(0)
    pos = eventually_constant(Axis.POS, [3], right_tail=0)
    assert pos.value(1) == elem(3)
    assert pos.value(9) == elem(0)
    with pytest.raises(ValueError):
        pos.value(0)


def test_plus_rho():
    blk = eventually_constant(Axis.NEG, [-1], left_tail=0)
    g = plus_rho(blk)
    assert g.axis is Axis.NEG
    assert g.left_law == elem(0)
    assert g.value(-1) == elem(0)   # -1 shifted by -(-1)
    assert g.value(-4) == elem(4)   # law: 0 - p
    # laws drop by one per step
    pos = plus_rho(eventually_constant(Axis.POS, [], right_tail=2))
    assert pos.value(3) == elem(-1) and pos.value(4) == elem(-2)


def test_stably_decreasing_strips_law_conformant_ends():
    g = stably_decreasing(Axis.NEG, [3, 1, -5], edge=-1, left_law=0)
    # the 3 at position -3 is exactly the law value -p and is absorbed
    assert g.window == (elem(1), elem(-5))
    g2 = stably_decreasing(Axis.ALL, [3, 5, -1], edge=-3, left_law=0, right_law=-2)
    # 3 == 0-(-3) strips left, -1 == -2-(-1) strips right
    assert g2.window == (elem(5),) and g2.edge == -2


def test_star_seq_axis_swap_and_involution():
    rng = random.Random(21)
    for axis in (Axis.NEG, Axis.POS, Axis.ALL):
        for _ in range(30):
            blk = rand_block(rng, axis)
            mirrored = star_seq(blk)
            want = {Axis.NEG: Axis.POS, Axis.POS: Axis.NEG, Axis.ALL: Axis.ALL}
            assert mirrored.axis is want[axis]
            assert star_seq(mirrored) == blk
            g = plus_rho(blk)
            assert star_seq(star_seq(g)) == g


def test_star_seq_values_mirror():
    blk = eventually_constant(Axis.NEG, [4, -2], left_tail=1)
    m = star_seq(blk)
    assert m.axis is Axis.POS
    for p in (1, 2, 3, 8):
        assert m.value(p) == blk.value(-p).negate()


def test_ins_single_value_into_pure_law():
    f2 = stably_decreasing(Axis.ALL, [], edge=0, left_law=0, right_law=0)
    out = ins([0], ["b"], f2)
    assert out.window == (FieldElem("b", 0),)
    assert out.edge == 0
    assert out.left_law == elem(0) and out.right_law == elem(1)
    # full sequence reads ..., 2, 1, b, 0, -1, ...
    assert [str(out.value(p)) for p in range(-2, 3)] == ["2", "1", "b", "0", "-1"]


def test_ins_two_values_into_pure_law():
    f2 = stably_decreasing(Axis.ALL, [], edge=0, left_law=0, right_law=0)
    out = ins([-2, 1], ["b", "c"], f2)
    assert [str(out.value(p)) for p in range(-4, 4)] == [
        "4", "3", "b", "2", "1", "c", "0", "-1",
    ]


def test_ins_neg_appends_at_domain_end():
    f2 = stably_decreasing(Axis.NEG, [], edge=-1, left_law=0)
    out = ins([-1], ["u"], f2)
    assert out.axis is Axis.NEG
    assert [str(out.value(p)) for p in (-3, -2, -1)] == ["2", "1", "u"]
    assert out.left_law == elem(-1)


def test_ins_validation():
    f2 = stably_decreasing(Axis.NEG, [], edge=-1, left_law=0)
    with pytest.raises(ValueError):
        ins([0, -1], ["u", "v"], f2)  # not increasing
    with pytest.raises(ValueError):
        ins([-1], ["u", "v"], f2)  # length mismatch
    with pytest.raises(ValueError):
        ins([5], ["u"], f2)  # past the domain end
    assert ins([], [], f2) == f2
    # a position is an int: -1.5 was truncated to -1, and '-1' was read
    for pos in (-1.5, "-1"):
        with pytest.raises(TypeError, match=f"^an entry of positions must be an integer, not {pos!r}$"):
            ins([pos], [5], stably_decreasing(Axis.NEG, [], left_law=0))


def test_ins_refuses_a_position_one_past_the_domain():
    """The position next to the domain's edge, on either side, is outside
    the domain: the entry at the edge would have to come from it."""
    f2 = stably_decreasing(Axis.NEG, [], edge=-1, left_law=0)
    with pytest.raises(ValueError, match="^insertion position 0 is past the domain end -1$"):
        ins([-3, 0], ["u", "v"], f2)
    f2 = stably_decreasing(Axis.POS, [], edge=1, right_law=0)
    with pytest.raises(ValueError, match="^insertion position 0 is below the domain start 1$"):
        ins([0, 3], ["u", "v"], f2)


INS_LIMIT = r"more than \d+ entries \(rsinf\.rs_infinite\._INS_MAX_ENTRIES\)$"


def test_ins_refuses_a_window_past_its_limit(monkeypatch):
    ri = importlib.import_module("rsinf.rs_infinite")
    monkeypatch.setattr(ri, "_INS_MAX_ENTRIES", 10)
    f2 = stably_decreasing(Axis.NEG, [], left_law=0)
    # an insertion at -p reads the p + 1 positions from -p - 1 to the edge -1
    assert len(ins([-9], [5], f2).window) <= 10
    with pytest.raises(ValueError, match=INS_LIMIT):
        ins([-10], [5], f2)
    # the domain checks still come first
    with pytest.raises(ValueError, match="past the domain end"):
        ins([10**18], [5], f2)
    pos = stably_decreasing(Axis.POS, [], edge=1, right_law=0)
    with pytest.raises(ValueError, match="below the domain start"):
        ins([-10**18], [5], pos)


def test_far_insertions_and_edges_refuse_at_once():
    """Calls whose answer's window spans the gap to a far insertion or
    edge refuse instead of building it, in a child with a deadline, so a
    regression fails instead of running for minutes."""
    code = (
        "from rsinf import Axis, ins, stably_decreasing\n"
        "for f2, pos in (\n"
        "    (stably_decreasing(Axis.ALL, [5], edge=10**6, left_law=0, right_law=0), [0]),\n"
        "    (stably_decreasing(Axis.ALL, [5], edge=10**18, left_law=0, right_law=0), [0]),\n"
        "    (stably_decreasing(Axis.NEG, [], left_law=0), [-10**6]),\n"
        "):\n"
        "    try:\n"
        "        ins(pos, [1], f2)\n"
        "        print('answered')\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    pkg_dir = os.path.dirname(os.path.abspath(importlib.import_module("rsinf").__file__))
    env = {**os.environ, "PYTHONPATH": os.path.dirname(pkg_dir), "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=10)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 3
    for line in lines:
        assert re.search(INS_LIMIT, line), line


def test_rs_infinite_refuses_an_r_past_its_limit(monkeypatch):
    """r is counted before anything is listed, on ALL and, through the
    mirror, on POS; block_ideal still counts r at any size."""
    monkeypatch.setattr(importlib.import_module("rsinf.rs_infinite"), "_RS_INF_MAX_R", 3)
    limit = (r"^the block displaces r = 4 entries, more than the 3 rs_infinite lists "
             r"\(rsinf\.rs_infinite\._RS_INF_MAX_R\)$")
    three = eventually_constant(Axis.ALL, [], left_tail=0, right_tail=3)
    assert rs_infinite(plus_rho(three)).r == 3
    four = eventually_constant(Axis.ALL, [], left_tail=0, right_tail=4)
    pos = eventually_constant(Axis.POS, ["a", "a", "a", "a"], right_tail=0)
    for block in (four, pos):
        with pytest.raises(ValueError, match=limit):
            rs_infinite(plus_rho(block))
        assert block_ideal(block)[0] == 4


def test_neg_single_symbol_block():
    # one symbol at the end of an integer ramp: one displaced box
    blk = eventually_constant(Axis.NEG, ["a"], left_tail=-1)
    res = rs_infinite(plus_rho(blk))
    assert res.axis is Axis.NEG
    assert res.r == 1
    assert res.underline == (FieldElem("a", 1),)
    assert res.first_row.window == ()
    assert res.first_row.left_law == elem(0)
    assert len(res.finite_tableaux) == 1
    assert res.finite_tableaux[0].anchor == "a"
    assert res.lower_rows == ()
    assert partition_from_row(res, -1) == ()
    assert block_ideal(blk) == (1, 0, (), ())


def test_two_sided_step_down():
    blk = eventually_constant(Axis.ALL, [], edge=1, left_tail=1, right_tail=0)
    res = rs_infinite(plus_rho(blk))
    assert res.r == 0
    assert res.first_row.left_law == elem(1)
    assert res.first_row.right_law == elem(0)
    assert block_ideal(blk) == (0, 1, (), ())


def test_two_sided_step_up():
    blk = eventually_constant(Axis.ALL, [], edge=1, left_tail=0, right_tail=5)
    res = rs_infinite(plus_rho(blk))
    assert res.r == 5
    assert res.underline == tuple(elem(v) for v in (4, 3, 2, 1, 0))
    assert block_ideal(blk) == (5, 0, (), ())


def test_neg_finite_deviations_read_as_partition():
    blk = eventually_constant(Axis.NEG, [-2, -2], left_tail=0)
    assert block_ideal(blk) == (0, 0, (), (2, 2))
    pos = eventually_constant(Axis.POS, [2, 2], right_tail=0)
    assert block_ideal(pos) == (0, 0, (2, 2), ())


def test_pos_results_are_mirrored():
    blk = eventually_constant(Axis.POS, [2, 2], right_tail=0)
    res = rs_infinite(plus_rho(blk))
    assert res.mirrored is True
    assert res.axis is Axis.POS
    assert res.first_row.axis is Axis.POS


def test_two_sided_mixed_tail_classes_rejected():
    g = stably_decreasing(Axis.ALL, [], edge=0, left_law="a", right_law=0)
    with pytest.raises(ValueError):
        rs_infinite(g)


def test_partition_from_row_errors():
    blk = eventually_constant(Axis.NEG, [-2, -2], left_tail=0)
    res = rs_infinite(plus_rho(blk))
    with pytest.raises(ValueError, match="does not match the class"):
        partition_from_row(res, "a")
    with pytest.raises(ValueError, match="shifted by"):
        partition_from_row(res, 0, r=3)
    mirrored = rs_infinite(plus_rho(eventually_constant(Axis.POS, [1], right_tail=0)))
    with pytest.raises(ValueError, match="NEG-axis"):
        partition_from_row(mirrored, 0)


def test_rs_infinite_is_deterministic():
    rng = random.Random(4)
    for axis in (Axis.NEG, Axis.ALL, Axis.POS):
        for _ in range(10):
            blk = rand_block(rng, axis, max_exc=4)
            g = plus_rho(blk)
            assert rs_infinite(g) == rs_infinite(g)


def test_block_ideal_duality():
    rng = random.Random(6)
    for axis in (Axis.NEG, Axis.POS, Axis.ALL):
        for _ in range(25):
            blk = rand_block(rng, axis, max_exc=4)
            r, g, x, y = block_ideal(blk)
            rm, gm, xm, ym = block_ideal(star_seq(blk))
            assert (rm, gm) == (r, g)
            assert (xm, ym) == (y, x)


@pytest.mark.parametrize(
    "blk",
    [
        # a window entry far above the left law
        eventually_constant(Axis.NEG, [40], left_tail=0),
        eventually_constant(Axis.ALL, [40, -3], edge=2, left_tail=0, right_tail=0),
        # window entries below the right law
        eventually_constant(Axis.ALL, [-3, -6], edge=0, left_tail=1, right_tail=1),
        # an up-hill gap between the two laws, with and without a window
        eventually_constant(Axis.ALL, [], edge=1, left_tail=0, right_tail=30),
        eventually_constant(Axis.ALL, [7, "a"], edge=-4, left_tail=-5, right_tail=20),
        # empty windows
        eventually_constant(Axis.NEG, [], left_tail=3),
        eventually_constant(Axis.ALL, [], edge=1, left_tail=2, right_tail=-4),
        # symbol-class tails, with integer and same-class window entries
        eventually_constant(Axis.NEG, ["a+30", 5, "a-2"], left_tail="a"),
        eventually_constant(
            Axis.ALL, [3, "a-10", "a+12"], edge=-1, left_tail="a", right_tail="a+25"
        ),
    ],
)
def test_single_extraction_matches_a_much_larger_window(blk):
    g = plus_rho(blk)
    res = rs_infinite(g)
    margin = stable_margin(g)
    for m in (margin + 1, 2 * margin, 4 * margin + 50):
        assert explicit_extract(g, m) == res, m


def test_block_ideal_reads_a_block_in_one_call(monkeypatch):
    # a POS block used to be read by a second, inner block_ideal call
    ri = importlib.import_module("rsinf.rs_infinite")
    orig = ri.block_ideal
    calls = []

    def counted(block):
        calls.append(block)
        return orig(block)

    monkeypatch.setattr(ri, "block_ideal", counted)
    rng = random.Random(9)
    for axis in (Axis.NEG, Axis.ALL, Axis.POS):
        for _ in range(20):
            blk = rand_block(rng, axis)
            calls.clear()
            ri.block_ideal(blk)
            assert calls == [blk]


def test_rs_infinite_extracts_once(monkeypatch):
    ri = importlib.import_module("rsinf.rs_infinite")
    orig = ri._extract
    calls = []

    def counted(g):
        calls.append(g)
        return orig(g)

    monkeypatch.setattr(ri, "_extract", counted)
    rng = random.Random(8)
    for axis in (Axis.NEG, Axis.ALL, Axis.POS):
        for _ in range(20):
            g = plus_rho(rand_block(rng, axis))
            calls.clear()
            rs_infinite(g)
            assert calls == [star_seq(g) if axis is Axis.POS else g]


_CLASSES = ("", "1/2", "1/3", "a", "b")


def _rand_law_block(rng):
    """A NEG or ALL stably decreasing sequence: laws in an integer,
    fractional or symbol class, and a window of up to 60 entries mostly in
    the laws' class, with offsets up to +-30."""
    bound = rng.choice((3, 8, 30))
    law = rng.choice(_CLASSES)
    pool = (law, law, law, rng.choice(_CLASSES), rng.choice(_CLASSES))
    n = rng.randint(0, rng.choice((4, 12, 60)))
    window = [rand_entry(rng, rng.choice(pool), bound) for _ in range(n)]
    laws = {"left_law": rand_entry(rng, law, bound)}
    axis = rng.choice((Axis.NEG, Axis.ALL))
    if axis is Axis.ALL:
        laws["right_law"] = rand_entry(rng, law, bound)
    return stably_decreasing(axis, window, edge=rng.randint(-5, 5), **laws)


def test_implicit_head_matches_the_explicit_window_on_a_seeded_corpus():
    rng = random.Random(14)
    for _ in range(2000):
        g = _rand_law_block(rng)
        res = rs_infinite(g)
        margin = stable_margin(g)
        for m in (margin, margin + 1):
            assert explicit_extract(g, m) == res, (g, m)


@pytest.mark.parametrize("big", [10**6, 10**18])
def test_far_window_entries_give_the_near_answer(big):
    """Offsets far from the laws give the answers small ones give."""

    def ideal(region):
        return ideal_to_json(classify(parse_spec({"regions": [region]})))["ideal"]

    for b in (10, big):
        omega = ideal({"type": "omega_star", "tail": "0", "exceptions": [str(b), "3"]})
        assert omega == {"r": 2, "g": 0, "X": [], "Y": []}
        zeta = ideal({"type": "zeta", "left_tail": "0", "exceptions": [str(-b)], "right_tail": "0"})
        assert zeta == {"r": 1, "g": 1, "X": [], "Y": []}
        res = rs_infinite(plus_rho(eventually_constant(
            Axis.ALL, [-b], left_tail=0, right_tail=0
        )))
        assert res.first_row == stably_decreasing(Axis.ALL, (), left_law=0, right_law=-1)
        assert res.underline == (elem(-b - 1),)
        # a right tail far above the left one: row 1 drops b head entries
        zeta = ideal({"type": "zeta", "left_tail": "0", "exceptions": [], "right_tail": str(b)})
        assert zeta == {"r": b, "g": 0, "X": [], "Y": []}
        blk = eventually_constant(Axis.ALL, [], left_tail=0, right_tail=b)
        assert block_ideal(blk) == (b, 0, (), ())


def _answer(f, *args):
    """f(*args), or the type and message of the error it raises."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


def test_block_ideal_matches_the_full_insertion_on_a_seeded_corpus():
    """block_ideal reads row 1 alone; the oracle reads the statistics off
    the full insertion, POS through the mirror of the mirrored row."""
    rng = random.Random(16)
    seen = set()
    for _ in range(1500):
        doc = rand_block_doc(rng)
        blk = eventually_constant(
            Axis(doc["axis"]), doc["exceptions"], edge=rng.randint(-5, 5),
            left_tail=doc.get("left_tail"), right_tail=doc.get("right_tail"),
        )
        want = _answer(lambda: ideal_of(blk, rs_infinite(plus_rho(blk))))
        assert _answer(block_ideal, blk) == want, blk
        seen.add((blk.axis, want[0] is ValueError))
    assert seen == {(Axis.NEG, False), (Axis.POS, False), (Axis.ALL, False), (Axis.ALL, True)}


def _raw_block(rng, doc):
    """The block of doc built through the raw constructor, with copies of
    each tail left in the window at its tail-facing end, so it is not
    canonical.  Returns it with the canonical block."""
    axis = Axis(doc["axis"])
    left = elem(doc["left_tail"]) if "left_tail" in doc else None
    right = elem(doc["right_tail"]) if "right_tail" in doc else None
    window = [elem(v) for v in doc["exceptions"]]
    edge = rng.randint(-5, 5)
    canonical = eventually_constant(axis, window, edge=edge, left_tail=left, right_tail=right)
    a = rng.randint(1, 3) if left is not None else 0
    b = rng.randint(1, 3) if right is not None else 0
    # the NEG window ends at its edge, the others start there
    start = edge + a if axis is Axis.NEG else edge - a
    raw = EventuallyConstantSeq(
        axis, tuple([left] * a + window + [right] * b), start, left, right
    )
    return raw, canonical


def test_block_ideal_matches_the_full_insertion_on_non_canonical_blocks():
    """A non-canonical block, and the raw cut classify would pass for it,
    give the canonical block's answer; the windows hold entries of other
    classes too."""
    rng = random.Random(19)
    seen = set()
    for _ in range(1500):
        raw, canonical = _raw_block(rng, rand_block_doc(rng))
        assert raw != canonical and len(raw.window) > len(canonical.window)
        cut = _Cut(raw.axis, raw.window, raw.edge, raw.left_tail, raw.right_tail)
        want = _answer(lambda: ideal_of(raw, rs_infinite(plus_rho(raw))))
        assert _answer(block_ideal, raw) == want == _answer(block_ideal, canonical), raw
        assert _answer(block_ideal, cut) == want, cut
        seen.add((raw.axis, want[0] is ValueError))
    assert seen == {(Axis.NEG, False), (Axis.POS, False), (Axis.ALL, False), (Axis.ALL, True)}


def _far_blocks(big):
    """Blocks whose tails, or window entries and tail, lie big apart, in
    the integer class, the class of 1/2 and a symbol class."""
    half = FieldElem(Fraction(1, 2), 0)
    return [
        eventually_constant(Axis.NEG, [-big, 3], left_tail=0),
        eventually_constant(Axis.POS, [big, "a"], right_tail=0),
        eventually_constant(Axis.POS, [FieldElem(half.anchor, big)], right_tail=half),
        eventually_constant(Axis.ALL, [], left_tail=big, right_tail=0),
        eventually_constant(Axis.ALL, [5], left_tail=0, right_tail=big),
        eventually_constant(Axis.ALL, ["a-3"], left_tail=f"a+{big}", right_tail="a"),
    ]


def test_block_ideal_reads_only_ints(monkeypatch):
    """block_ideal answers without building a shifted, mirrored or
    canonical sequence, a first row, or a shifted or negated element."""
    rng = random.Random(21)
    big = 10**18
    far = _far_blocks(big)
    blocks = [raw for raw, _ in (_raw_block(rng, rand_block_doc(rng)) for _ in range(300))]
    blocks += [rand_block(rng, axis) for axis in Axis for _ in range(50)]
    want = [_answer(block_ideal, blk) for blk in blocks + far]
    assert {blk.axis for blk, w in zip(blocks, want) if type(w) is tuple} == set(Axis)

    def refuse(*args, **kwargs):
        raise AssertionError("block_ideal built a sequence or an element")

    ri = importlib.import_module("rsinf.rs_infinite")
    for name in ("plus_rho", "star_seq", "stably_decreasing", "partition_from_row"):
        monkeypatch.setattr(ri, name, refuse)
    monkeypatch.setattr(FieldElem, "shift", refuse)
    monkeypatch.setattr(FieldElem, "negate", refuse)
    assert [_answer(block_ideal, blk) for blk in blocks + far] == want
    # far tails answer in time linear in the window
    assert want[len(blocks):] == [
        (1, 0, (), (big,)),
        (1, 0, (big + 1,), ()),
        (0, 0, (big,), ()),
        (0, big, (), ()),
        (big, 0, (), ()),
        (1, big + 1, (), ()),
    ]


def test_sequences_coerce_their_values_when_built():
    """Both sequence classes coerce the window with elems and the tails
    with elem, as a classifier region does: a raw int window reads as
    the factory's, and a bad value is refused when the sequence is built."""
    raw = EventuallyConstantSeq(Axis.NEG, (3, 1), -1, 0, None)
    assert raw == eventually_constant(Axis.NEG, [3, 1], left_tail=0)
    assert type(raw.window) is tuple and raw.value(-1) == elem(1)
    assert type(raw.value(-1)) is FieldElem and type(raw.value(-7)) is FieldElem
    assert block_ideal(raw) == block_ideal(eventually_constant(Axis.NEG, [3, 1], left_tail=0))
    both = EventuallyConstantSeq(Axis.ALL, ["a", "1/2", 2], 0, "0", 5)
    assert both.window == (elem("a"), elem("1/2"), elem(2)) and both.value(9) == elem(5)
    laws = StablyDecreasingSeq(Axis.POS, [4, "a"], 1, None, 3)
    assert laws == stably_decreasing(Axis.POS, [4, "a"], edge=1, right_law=3)
    assert laws.value(1) == elem(4) and laws.value(5) == elem(-2)
    assert rs_infinite(laws) == rs_infinite(stably_decreasing(Axis.POS, [4, "a"], right_law=3))
    # a tuple of elements is kept as it is
    window = (elem(2), elem("b"))
    assert StablyDecreasingSeq(Axis.NEG, window, -1, elem(0), None).window is window
    for bad, error in (((1.5,), TypeError), ("12", TypeError), (("x y",), ValueError)):
        with pytest.raises(error):
            EventuallyConstantSeq(Axis.NEG, bad, -1, 0, None)
    with pytest.raises(ValueError):
        StablyDecreasingSeq(Axis.NEG, (), -1, "1/0", None)
    with pytest.raises(TypeError):
        EventuallyConstantSeq(Axis.POS, (), 1, None, True)


def test_rs_infinite_refuses_a_raw_block():
    """rs_infinite inserts a stably decreasing sequence; a block of raw
    values is a TypeError that names plus_rho, on every axis."""
    blocks = [eventually_constant(Axis.NEG, [3], left_tail=0),
              eventually_constant(Axis.POS, [3], right_tail=0),
              eventually_constant(Axis.ALL, [3], left_tail=0, right_tail=0)]
    for block in blocks:
        with pytest.raises(TypeError, match="not EventuallyConstantSeq; plus_rho"):
            rs_infinite(block)
        assert rs_infinite(plus_rho(block)).axis is block.axis
    with pytest.raises(TypeError, match="not tuple"):
        rs_infinite(())


def test_ins_refuses_a_raw_block():
    """ins weaves values into a stably decreasing sequence; a block of raw
    values used to answer, reading its constant tail 0 as a law, and is
    now a TypeError that names plus_rho, as rs_infinite's is."""
    block = eventually_constant(Axis.NEG, [3], left_tail=0)
    with pytest.raises(TypeError, match="^ins weaves into a StablyDecreasingSeq, not "
                                        "EventuallyConstantSeq; plus_rho"):
        ins([-1], [1], block)
    with pytest.raises(TypeError, match="not EventuallyConstantSeq; plus_rho"):
        ins([], [], block)
    with pytest.raises(TypeError, match="not int; plus_rho"):
        ins([-1], [1], 5)
    assert ins([-1], [1], plus_rho(block)).axis is Axis.NEG


@pytest.mark.parametrize("call, kind", [
    (lambda: block_ideal(plus_rho(eventually_constant(Axis.NEG, [3], left_tail=0))),
     "StablyDecreasingSeq"),
    (lambda: block_ideal(5), "int"),
    (lambda: block_ideal(None), "NoneType"),
    (lambda: plus_rho(stably_decreasing(Axis.NEG, [3], left_law=0)), "StablyDecreasingSeq"),
    (lambda: plus_rho(5), "int"),
], ids=["block_ideal-shifted", "block_ideal-int", "block_ideal-none",
        "plus_rho-shifted", "plus_rho-int"])
def test_raw_block_readers_refuse_the_wrong_sequence_form(call, kind):
    """block_ideal and plus_rho read a block of raw values; the shifted
    form, or anything else, is a TypeError naming what was given, where
    it used to be an AttributeError on left_tail or axis."""
    with pytest.raises(TypeError, match=f"an EventuallyConstantSeq, not {kind}$"):
        call()


@pytest.mark.parametrize("result, kind", [((), "tuple"), (5, "int"), (None, "NoneType")])
def test_partition_from_row_refuses_a_non_result(result, kind):
    """partition_from_row reads an InfiniteRSResult and its first row;
    anything else was an AttributeError, and is a TypeError naming what
    was given."""
    with pytest.raises(TypeError, match=f"reads an InfiniteRSResult, not {kind}$"):
        partition_from_row(result, 0)
    with pytest.raises(TypeError, match=f"^a first row is a StablyDecreasingSeq, not {kind}$"):
        partition_from_row(InfiniteRSResult(Axis.NEG, result, (), (), ()), 0)
