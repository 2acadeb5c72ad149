"""End-to-end guarantees of the package, one test per guarantee.

Run with -v to get one pass/fail line per check.  Randomized parts use
fixed seeds, so the whole file is deterministic.
"""

import itertools
import random
from fractions import Fraction

from helpers import (
    Comparison,
    compare_z,
    explicit_extract,
    normalize,
    rand_block,
    rand_family,
    stable_margin,
)

from rsinf.classifier import (
    ProperIdeal,
    ZeroIdeal,
    classify,
    finite,
    omega,
    omega_star,
    star_spec,
    weight_spec,
    zeta,
)
from rsinf.cls import LevelError, cls_level, cls_params, gamma, member
from rsinf.core import (
    FieldElem,
    Tableau,
    TableauFamily,
    elem,
    parse_elem,
)
from rsinf.rs_finite import (
    _admissible_here,
    _codes,
    admissible,
    apply_interchange,
    connected,
    j,
    joseph_equal,
    rho_shift,
    rs,
    rs_trace,
    seq_of,
)
from rsinf.rs_infinite import (
    Axis,
    block_ideal,
    eventually_constant,
    ins,
    plus_rho,
    rs_infinite,
    star_seq,
)


def test_a01_four_term_worked_example_with_full_trace():
    vals = tuple(parse_elem(t) for t in ("3", "4", "a", "5"))
    t_int = Tableau(Fraction(0), ((elem(2), elem(1)), (elem(2),)))
    t_sym = Tableau("a", ((FieldElem("a", -3),),))
    assert j(vals) == TableauFamily((t_int, t_sym))

    def snap(step):
        fam = [
            (str(FieldElem(t.anchor, 0)), [[str(v) for v in row] for row in t.rows])
            for t in step.family
        ]
        return fam, step.positions

    states = [snap(s) for s in rs_trace(rho_shift(vals))]
    assert states == [
        ([("0", [["2"]])], (((1,),),)),
        ([("0", [["2"], ["2"]])], (((2,), (1,)),)),
        ([("0", [["2"], ["2"]]), ("a", [["a-3"]])], (((2,), (1,)), ((3,),))),
        ([("0", [["2", "1"], ["2"]]), ("a", [["a-3"]])], (((2, 4), (1,)), ((3,),))),
    ]


def test_a02_one_free_entry_blocks_reduce_to_a_single_underline_value():
    for n in range(1, 7):
        for alpha in (parse_elem("a"), parse_elem("1/2")):
            blocks = (
                eventually_constant(
                    Axis.POS, [-1] * (n - 1) + [alpha], right_tail=0
                ),
                eventually_constant(
                    Axis.NEG, [alpha] + [0] * (n - 1), left_tail=-1
                ),
                eventually_constant(
                    Axis.ALL, [alpha], edge=n, left_tail=-1, right_tail=0
                ),
            )
            for blk in blocks:
                assert block_ideal(blk) == (1, 0, (), ()), (n, alpha, blk)


def test_a03_unit_step_inputs_have_rank_zero_and_degree_one():
    windows = [
        (1,) * ones + (0,) * (length - ones)
        for length in range(5)
        for ones in range(length + 1)
    ]
    for win in windows:
        for edge in range(-2, 3):
            blk = eventually_constant(
                Axis.ALL, win, edge=edge, left_tail=1, right_tail=0
            )
            assert block_ideal(blk) == (0, 1, (), ())
        assert classify(weight_spec(zeta(1, list(win), 0))) == ProperIdeal(
            0, 1, (), ()
        )
    for ones in range(3):
        for zeros in range(3):
            spec = weight_spec(omega_star(1, [1] * ones), omega([0] * zeros, 0))
            assert classify(spec) == ProperIdeal(0, 1, (), ())


def test_a04_finite_support_specs_add_up_their_end_ideals():
    assert classify(weight_spec(omega([2, 2], 0))) == ProperIdeal(0, 0, (2, 2), ())
    rng = random.Random(17)
    for _ in range(200):
        a = [rng.randint(0, 6) for _ in range(rng.randint(0, 5))]
        b = [rng.randint(0, 6) for _ in range(rng.randint(0, 5))]
        ra, ga, x, _ = block_ideal(eventually_constant(Axis.POS, a, right_tail=0))
        rb, gb, _, y = block_ideal(eventually_constant(Axis.NEG, b, left_tail=0))
        assert ga == 0 and gb == 0
        spec = weight_spec(omega(a, 0), omega_star(0, b))
        assert classify(spec) == ProperIdeal(ra + rb, 0, x, y), (a, b)


def _g_of(f):
    return tuple(v.shift(-(i + 1)) for i, v in enumerate(f))


def _components(rep):
    """Each rearrangement of rep mapped to the first-found member of its
    interchange component.  The class is coded once, one int per entry as
    connected codes it, and every move is decided on the codes."""
    codes, m, _ = _codes(rep)
    decode = dict(zip(codes, rep))
    comp = {}
    for start in set(itertools.permutations(codes)):
        if start in comp:
            continue
        comp[start] = start
        queue = [start]
        while queue:
            cur = queue.pop()
            for i in range(1, len(cur)):
                if _admissible_here(cur, m, i):
                    nxt = cur[: i - 1] + (cur[i], cur[i - 1]) + cur[i + 1 :]
                    if nxt not in comp:
                        comp[nxt] = start
                        queue.append(nxt)
    return {tuple(map(decode.get, w)): tuple(map(decode.get, c)) for w, c in comp.items()}


def test_a05_shifted_insertion_equality_is_interchange_reachability():
    # position-shifted pictures of every integer sequence of length <= 5
    # with entries 0..3, and of every such sequence with one symbolic
    # entry spliced in
    universe = set()
    for length in range(1, 6):
        for tup in itertools.product(range(4), repeat=length):
            universe.add(_g_of(tuple(elem(v) for v in tup)))
    for length in range(5):
        for tup in itertools.product(range(4), repeat=length):
            base = [elem(v) for v in tup]
            for cut in range(length + 1):
                universe.add(_g_of(tuple(base[:cut] + [elem("a")] + base[cut:])))

    groups = {}
    for gtup in universe:
        key = tuple(sorted((str(v.anchor), v.offset) for v in gtup))
        groups.setdefault(key, gtup)

    # moves and insertion both preserve the multiset of entries, so the
    # equivalence only needs checking within each rearrangement class
    for rep in groups.values():
        comp = _components(rep)
        by_rs = {}
        by_comp = {}
        for arr in comp:
            by_rs.setdefault(rs(arr), set()).add(arr)
            by_comp.setdefault(comp[arr], set()).add(arr)
        assert {frozenset(s) for s in by_rs.values()} == {
            frozenset(s) for s in by_comp.values()
        }, rep

    # the public pair interface, with explicit shifts
    rng = random.Random(3)
    for case in range(40):
        length = rng.randint(1, 5)
        f = [elem(rng.randint(0, 3)) for _ in range(length)]
        if rng.random() < 0.4:
            f[rng.randrange(length)] = FieldElem("a", rng.randint(0, 3))
        f = tuple(f)
        k = rng.randint(-4, 4)
        if case % 2 == 0:
            h = f
            for _ in range(rng.randint(0, 6)):
                opts = [i for i in range(1, length) if admissible(h, i, shifted=True)]
                if not opts:
                    break
                h = apply_interchange(h, rng.choice(opts), shifted=True)
            f2 = tuple(v.shift(-k) for v in h)
        else:
            f2 = tuple(elem(rng.randint(0, 3)) for _ in range(length))
        lhs = joseph_equal(f, f2, k=k)
        rhs = connected(f, tuple(v.shift(k) for v in f2), shifted=True) is not None
        assert lhs == rhs, (f, f2, k)


def test_a06_reading_then_reinserting_reproduces_tableaux():
    rng = random.Random(5)
    for _ in range(1000):
        fam = rand_family(rng)
        assert rs(seq_of(fam)) == fam


def _ccondi_positions(res, rng):
    """Random strictly separated positions whose values clear the whole
    underline, right to left, matching the weaving precondition."""
    row, underline = res.first_row, res.underline
    r = len(underline)
    shift = r if row.axis is Axis.NEG else 0
    if row.axis is Axis.NEG:
        i_r = row.edge - shift
    else:
        i_r = row.edge + len(row.window) + 1

    def clears(i):
        v = row.value(i + shift)
        return all(
            compare_z(v, u) in (Comparison.GREATER, Comparison.INCOMPARABLE)
            for u in underline
        )

    while not clears(i_r):
        i_r -= 1
    i_r -= rng.randint(0, 3)
    pos = [i_r]
    for _ in range(r - 1):
        pos.append(pos[-1] - 2 - rng.randint(0, 2))
    return tuple(reversed(pos))


def test_a07_window_margins_and_weaving_do_not_change_results():
    rng = random.Random(23)
    woven = 0
    for _ in range(200):
        axis = rng.choice((Axis.NEG, Axis.POS, Axis.ALL))
        blk = rand_block(rng, axis)
        g = plus_rho(blk)
        if axis is Axis.POS:
            g = star_seq(g)
        res = rs_infinite(g)
        base = stable_margin(g)
        # the explicit window at the proven margin, +1..+3 past it, twice
        # and four times it, and far out
        for extra in (0, 1, 2, 3, base, 3 * base, 50):
            assert explicit_extract(g, base + extra) == res, (blk, extra)
        if not res.underline:
            continue
        for _ in range(5):
            pos = _ccondi_positions(res, rng)
            assert rs_infinite(ins(pos, res.underline, res.first_row)) == res, (
                blk,
                pos,
            )
        woven += 1
    assert woven >= 50


def _rand_stream(rng, symbol_tails=False):
    """A constant-stretch skeleton: values cs[0..q] with exception lists
    es[0..q+1] around and between them."""
    count = rng.randint(1, 3)
    cs = []
    for _ in range(count):
        c = rng.randint(-4, 4)
        if symbol_tails and rng.random() < 0.15:
            cs.append(FieldElem("t", c))
        else:
            cs.append(c)
    es = []
    for _ in range(count + 1):
        exc = []
        for _ in range(rng.randint(0, 3)):
            if rng.random() < 0.2:
                exc.append(FieldElem("a", rng.randint(-2, 2)))
            else:
                exc.append(rng.randint(-4, 6))
        es.append(exc)
    return cs, es


def _shift_val(v, k):
    return v + k if isinstance(v, int) else v.shift(k)


def _shift_stream(stream, k):
    cs, es = stream
    return [_shift_val(c, k) for c in cs], [
        [_shift_val(v, k) for v in exc] for exc in es
    ]


def _write_omega(stream):
    cs, es = stream
    regions = [omega(es[i], cs[i]) for i in range(len(cs))]
    if es[-1]:
        regions.append(finite(*es[-1]))
    return weight_spec(*regions)


def _write_ostar(stream):
    cs, es = stream
    regions = [finite(*es[0])] if es[0] else []
    regions += [omega_star(cs[i], es[i + 1]) for i in range(len(cs))]
    return weight_spec(*regions)


def _write_zeta(stream):
    cs, es = stream
    regions = [omega(es[0], cs[0])]
    regions += [zeta(cs[i - 1], es[i], cs[i]) for i in range(1, len(cs))]
    regions.append(omega_star(cs[-1], es[-1]))
    return weight_spec(*regions)


def _write_padded(stream):
    cs, es = stream
    regions = [omega(list(es[0]) + [cs[0]], cs[0])]
    for i in range(1, len(cs)):
        regions.append(omega([cs[i - 1]] + list(es[i]) + [cs[i]], cs[i]))
    regions.append(finite(cs[-1], *es[-1]))
    return weight_spec(*regions)


def _ideal_key(out):
    if isinstance(out, ZeroIdeal):
        return "zero"
    return (out.r, out.g, out.X, out.Y)


def test_a08_classification_symmetries():
    rng = random.Random(31)

    # equal token streams written with different region types agree, and
    # both symmetries of the values hold
    for _ in range(500):
        stream = _rand_stream(rng, symbol_tails=True)
        base = _ideal_key(classify(_write_omega(stream)))
        k = rng.randint(-5, 5)
        assert _ideal_key(classify(_write_omega(_shift_stream(stream, k)))) == base
        for writer in (_write_ostar, _write_zeta, _write_padded):
            assert _ideal_key(classify(writer(stream))) == base, (stream, writer)
        out = classify(_write_omega(stream))
        flip = classify(star_spec(_write_omega(stream)))
        if isinstance(out, ZeroIdeal):
            assert isinstance(flip, ZeroIdeal)
        else:
            assert (flip.r, flip.g, flip.X, flip.Y) == (out.r, out.g, out.Y, out.X)

    # translating a block along the positions leaves its data alone
    for _ in range(500):
        axis = rng.choice((Axis.NEG, Axis.POS, Axis.ALL))
        blk = rand_block(rng, axis)
        moved = eventually_constant(
            blk.axis,
            blk.window,
            edge=blk.edge + rng.randint(-4, 4),
            left_tail=blk.left_tail,
            right_tail=blk.right_tail,
        )
        assert block_ideal(moved) == block_ideal(blk)


def test_a09_two_sided_blocks_never_have_negative_degree():
    rng = random.Random(41)
    for _ in range(500):
        blk = rand_block(rng, Axis.ALL)
        r, g, x, y = block_ideal(blk)
        assert r >= 0 and g >= 0
        assert x == () and y == ()


PARTS_UP_TO_FOUR = (
    (),
    (1,),
    (2,),
    (1, 1),
    (3,),
    (2, 1),
    (1, 1, 1),
    (4,),
    (3, 1),
    (2, 2),
    (2, 1, 1),
    (1, 1, 1, 1),
)


def _tail_weight(rng, r, y, n):
    """A weakly decreasing weight with r free entries around a plateau
    and the column drops of y below it."""
    s = len(y)
    c = (y[0] if y else 0) + rng.randint(0, 2)
    rt = rng.randint(0, r)
    tops = sorted((c + rng.randint(0, 3) for _ in range(rt)), reverse=True)
    low = c - (y[0] if y else 0)
    bottoms = sorted((rng.randint(0, low) for _ in range(r - rt)), reverse=True)
    drops = [c - part for part in reversed(y)]
    return normalize(tuple(tops + [c] * (n - r - s) + drops + bottoms))


def test_a10_level_set_oracles_for_parameters():
    params = [
        cls_params(r1, r2, g, x, y)
        for r1, r2, g in itertools.product(range(3), repeat=3)
        for x in PARTS_UP_TO_FOUR
        for y in PARTS_UP_TO_FOUR
    ]

    # (a) the distinguished doubled-level weight lies in its own level set
    checked = 0
    for n in (2, 3, 4):
        for p in params:
            try:
                w = gamma(p, n)
            except LevelError:
                continue
            assert member(p, w), (p, n, w)
            checked += 1
    assert checked > 9000

    rng = random.Random(7)
    defined = []
    for p in params:
        try:
            defined.append((p, gamma(p, 2)))
        except LevelError:
            continue
    for p, w in rng.sample(defined, 25):
        assert w in cls_level(p, 4, max(w))

    # (b) within the range a level can resolve, distinct parameters give
    # distinct level sets
    eligible_counts = []
    for n in (2, 3, 4):
        seen = {}
        eligible = 0
        for p in params:
            if max(p.r1 + len(p.X), p.r2 + len(p.Y)) + 2 > n:
                continue
            eligible += 1
            lv = cls_level(p, n, 6)
            assert lv not in seen, (n, p, seen.get(lv))
            seen[lv] = p
        eligible_counts.append(eligible)
    assert eligible_counts == [3, 108, 675]

    # (c) weights shaped like the tail data of one-sided blocks land in
    # the union over splits of the free entries
    done = 0
    while done < 50:
        blk = rand_block(rng, Axis.NEG, max_exc=2, lo=-4, hi=4)
        r, g0, x, y = block_ideal(blk)
        assert (g0, x) == (0, ())
        s = len(y)
        tested = False
        for n in (3, 4):
            if n < r + s:
                continue
            splits = [r1 for r1 in range(r + 1) if n > r1 and n > (r - r1) + s]
            if not splits:
                continue
            w = _tail_weight(rng, r, y, n)
            assert any(
                member(cls_params(r1, r - r1, 0, (), y), w) for r1 in splits
            ), (blk, n, w)
            tested = True
        if tested:
            done += 1
