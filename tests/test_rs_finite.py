import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rsinf.rs_finite as rs_finite_mod
from helpers import (
    bfs_connected, in_child, oracles, pairs_of, rand_family, setdefault_insert_by_class,
    unchecked_tableau_sites, walk,
)
from rsinf.classifier import Finite, Omega, ProperIdeal, WeightSpec, ZeroIdeal, Zeta, classify
from rsinf.core import FieldElem, Tableau, TableauFamily, elem, elems, parse_elem
from rsinf.rs_finite import (
    InterchangePath,
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
from rsinf.rs_infinite import Axis, eventually_constant, plus_rho, rs_infinite


def seq(text):
    return tuple(parse_elem(p) for p in text.split(",")) if text else ()


def test_rho_shift():
    assert rho_shift(seq("3,4,a,5")) == seq("2,2,a-3,1")


def test_rs_integer_example():
    fam = rs(seq("3,1,2"))
    assert fam == TableauFamily((Tableau.from_offsets(0, [[3, 2], [1]]),))


def test_rs_mixed_classes():
    fam = rs(seq("2,2,a-3,1"))
    want = TableauFamily(
        (
            Tableau.from_offsets(0, [[2, 1], [2]]),
            Tableau("a", ((FieldElem("a", -3),),)),
        )
    )
    assert fam == want


def test_rs_empty():
    assert rs(()) == TableauFamily(())


def test_j_worked_example():
    fam = j(seq("3,4,a,5"))
    assert fam[0] == Tableau.from_offsets(0, [[2, 1], [2]])
    assert fam[1] == Tableau("a", ((FieldElem("a", -3),),))


def test_trace_states_of_worked_example():
    steps = rs_trace(rho_shift(seq("3,4,a,5")))
    fams = [
        [t.offsets() for t in step.family] for step in steps
    ]
    assert fams == [
        [((2,),)],
        [((2,), (2,))],
        [((2,), (2,)), ((-3,),)],
        [((2, 1), (2,)), ((-3,),)],
    ]
    # positions mirror the family shape and hold 1-based input slots
    assert steps[0].positions == (((1,),),)
    assert steps[1].positions == (((2,), (1,)),)
    assert steps[2].positions == (((2,), (1,)), ((3,),))
    assert steps[3].positions == (((2, 4), (1,)), ((3,),))


@given(st.lists(st.integers(-6, 6), max_size=12))
@settings(max_examples=150, deadline=None)
def test_trace_ends_at_rs(values):
    steps = rs_trace(values)
    if values:
        assert steps[-1].family == rs(values)
    else:
        assert steps == ()


_TRACE_ANCHORS = (Fraction(0), Fraction(1, 2), "a")


@given(
    st.lists(
        st.tuples(st.sampled_from(_TRACE_ANCHORS), st.integers(-3, 3)), max_size=14
    )
)
@settings(max_examples=200, deadline=None)
def test_trace_steps_are_prefix_insertions(pairs):
    # step k is the insertion of the first k entries, and each box's
    # position names the input entry that sits in it
    vals = tuple(FieldElem(anchor, offset) for anchor, offset in pairs)
    steps = rs_trace(vals)
    assert len(steps) == len(vals)
    for k, step in enumerate(steps, start=1):
        assert step.family == rs(vals[:k])
        assert len(step.positions) == len(step.family)
        for tab, pos_rows in zip(step.family, step.positions):
            assert tuple(map(len, pos_rows)) == tab.shape
            for row, prow in zip(tab.rows, pos_rows):
                for entry, p in zip(row, prow):
                    assert 1 <= p <= k and vals[p - 1] == entry


def test_seq_of_paper_examples():
    t = Tableau.from_offsets("a", [[4, 2, 1], [4, 1], [4, 1], [3]])
    assert [str(e) for e in seq_of(t)] == [
        "a+3", "a+4", "a+1", "a+4", "a+1", "a+4", "a+2", "a+1",
    ]
    t1 = Tableau.from_offsets("a", [[7, -4], [-8]])
    t2 = Tableau.from_offsets("b", [[-4, -6], [-5]])
    assert [str(e) for e in seq_of((t1, t2))] == [
        "a-8", "a+7", "a-4", "b-5", "b-4", "b-6",
    ]


def test_seq_of_single_box():
    assert seq_of(Tableau.from_offsets("x", [[0]])) == (FieldElem("x", 0),)


def test_seq_of_accepts_family_and_iterable():
    fam = rs(seq("2,2,1"))
    assert seq_of(fam) == seq("2,2,1")
    assert seq_of(list(fam)) == seq("2,2,1")


def test_rs_of_seq_of_round_trip():
    rng = random.Random(5)
    for _ in range(300):
        fam = rand_family(rng)
        assert rs(seq_of(fam)) == fam


def test_admissible_fixtures():
    f = seq("0,5,3")
    assert admissible(f, 1) is True
    assert admissible(seq("0,a"), 1) is True
    assert admissible(seq("1,2"), 1) is False
    with pytest.raises(ValueError):
        admissible(f, 0)
    with pytest.raises(ValueError):
        admissible(f, 3)


def test_apply_interchange_plain():
    assert apply_interchange(seq("0,5,3"), 1) == seq("5,0,3")
    with pytest.raises(ValueError):
        apply_interchange(seq("1,2"), 1)


def test_shifted_interchange_preserves_j():
    rng = random.Random(8)
    done = 0
    while done < 60:
        n = rng.randint(2, 5)
        f = tuple(parse_elem(str(rng.randint(0, 4))) for _ in range(n))
        i = rng.randint(1, n - 1)
        if not admissible(f, i, shifted=True):
            continue
        g = apply_interchange(f, i, shifted=True)
        assert j(g) == j(f)
        done += 1


def test_plain_interchange_preserves_rs():
    rng = random.Random(9)
    done = 0
    while done < 60:
        n = rng.randint(2, 5)
        f = tuple(parse_elem(str(rng.randint(0, 4))) for _ in range(n))
        i = rng.randint(1, n - 1)
        if not admissible(f, i):
            continue
        assert rs(apply_interchange(f, i)) == rs(f)
        done += 1


def test_connected_simple_path():
    path = connected(seq("0,5,3"), seq("5,0,3"))
    assert path is not None
    assert path.positions == (1,)
    assert path.replay(seq("0,5,3")) == seq("5,0,3")


def test_connected_identity_and_failures():
    f = seq("1,2,3")
    path = connected(f, f)
    assert path == InterchangePath(())
    assert path.replay(f) == f
    assert connected(seq("1,2"), seq("2,1"), shifted=True) is None
    assert connected(seq("1,2"), seq("1,2,3")) is None


def test_connected_replay_round_trip():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(2, 5)
        f = tuple(parse_elem(str(rng.randint(0, 3))) for _ in range(n))
        # walk a few random shifted moves away, then find the way back
        g = f
        for _ in range(rng.randint(1, 4)):
            opts = [i for i in range(1, n) if admissible(g, i, shifted=True)]
            if not opts:
                break
            g = apply_interchange(g, rng.choice(opts), shifted=True)
        path = connected(f, g, shifted=True)
        assert path is not None
        assert path.replay(f) == g


def test_joseph_equal_fixtures():
    f, fp = seq("2,3"), seq("3,4")
    assert joseph_equal(f, fp, k=-1) is True
    assert joseph_equal(f, fp, k=1) is False
    assert joseph_equal(f, fp) is True
    assert joseph_equal(seq("3,4,a,5"), seq("4,5,a+1,6"), k=-1) is True
    assert joseph_equal(seq("1,2"), seq("1,2,3")) is False
    assert joseph_equal((), ()) is True


def test_joseph_search_spans_classes():
    # no integer shift aligns a symbol class with an integer class
    assert joseph_equal(seq("a"), seq("0")) is False


# small words mixing the integer class, the class of 1/2 and a symbol
# class, with repeated entries
LITERALS = ("0", "1", "2", "3", "1/2", "3/2", "-1/2", "a", "a+1", "a-1")


def rand_word(rng, n):
    return seq(",".join(rng.choice(LITERALS) for _ in range(n)))


# the integers and the classes of 1/2, a and -b
FOUR = (Fraction(0), Fraction(1, 2), "a", "-b")


@pytest.mark.parametrize("shifted", [False, True])
def test_admissible_matches_the_independent_oracle(shifted):
    """rsinf's move test and that of rsbench/oracles.py, which shares no
    code with rsinf, agree at every position of seeded words over up to
    four classes, and each admissible move lands where the oracle's does."""
    rng = random.Random(53 + shifted)
    seen = [0, 0]
    for _ in range(1500):
        n = rng.randint(2, 7)
        classes = rng.sample(FOUR, rng.randint(1, 4))
        f = tuple(FieldElem(rng.choice(classes), rng.randint(-3, 3)) for _ in range(n))
        w = pairs_of(f)
        for i in range(1, n):
            want = oracles.admissible(w, i, shifted)
            assert admissible(f, i, shifted=shifted) is want, (f, i)
            seen[want] += 1
            if want:
                got = apply_interchange(f, i, shifted=shifted)
                assert pairs_of(got) == tuple(oracles.interchange(w, i, shifted)), (f, i)
    # both answers occur often
    assert min(seen) > 1000, seen


@pytest.mark.parametrize("shifted", [False, True])
def test_connected_matches_breadth_first_oracle(shifted):
    rng = random.Random(41 + shifted)
    found = 0
    for case in range(300):
        f = rand_word(rng, rng.randint(1, 6))
        if case % 3 == 0:
            g = walk(rng, f, shifted)
        elif case % 3 == 1:
            g = tuple(rng.sample(f, len(f)))
        else:
            g = rand_word(rng, len(f))
        want = bfs_connected(f, g, shifted)
        assert connected(f, g, shifted=shifted) == want, (f, g)
        found += want is not None
    # both answers occur often
    assert 100 < found < 250


def test_joseph_equal_finds_the_one_shift():
    rng = random.Random(43)
    equal = 0
    for case in range(300):
        n = rng.randint(1, 6)
        f = rand_word(rng, n)
        k = rng.randint(-4, 4)
        if case % 2 == 0:
            # j(f) == j(g + k) exactly when g + k is reachable from f
            g = tuple(e.shift(-k) for e in walk(rng, f, True))
        else:
            g = rand_word(rng, n)
        got = joseph_equal(f, g)
        assert got == any(
            joseph_equal(f, g, k=c) for c in range(-2 * n - 8, 2 * n + 9)
        ), (f, g)
        equal += got
    assert 150 <= equal < 300


def test_connected_skips_the_search_when_insertions_differ(monkeypatch):
    calls = [0]
    orig = rs_finite_mod._admissible_here

    def counted(*args):
        calls[0] += 1
        return orig(*args)

    monkeypatch.setattr(rs_finite_mod, "_admissible_here", counted)
    for f, g, shifted in (
        ("1,2", "2,1", False),
        ("1,2", "2,1", True),
        ("3,1,2,0", "0,2,1,3", False),
        ("3,1,2,0", "0,2,1,3", True),
        ("a,1/2,1", "1/2,a+1,1", True),
    ):
        assert connected(seq(f), seq(g), shifted=shifted) is None
    assert calls[0] == 0
    # the counter sees the search when there is a path to find
    assert connected(seq("0,5,3"), seq("5,0,3")).positions == (1,)
    assert calls[0] > 0


@pytest.mark.parametrize("shifted", [False, True])
def test_connected_search_hashes_no_fraction(monkeypatch, shifted):
    """The insertion check keys classes by (numerator, denominator) and
    the search keys visited words by int codes: the whole call hashes no
    Fraction, equal anchors held by distinct objects share a code, and
    its paths are the oracle's."""
    rng = random.Random(47 + shifted)
    cases = []
    for case in range(200):
        f = rand_word(rng, rng.randint(2, 7))
        g = walk(rng, f, shifted)
        if case % 2:
            # the same values, each rational anchor a new Fraction object
            g = tuple(
                FieldElem(Fraction(e.anchor.numerator, e.anchor.denominator), e.offset)
                if e.is_rational else e
                for e in g
            )
        cases.append((f, g, bfs_connected(f, g, shifted)))

    def refuse(self, *other):
        raise AssertionError("Fraction.__hash__ or __eq__ called")

    monkeypatch.setattr(Fraction, "__hash__", refuse)
    monkeypatch.setattr(Fraction, "__eq__", refuse)
    searched = 0
    for f, g, want in cases:
        assert connected(f, g, shifted=shifted) == want, (f, g)
        searched += len(want.steps) > 1
    assert searched > 50


# the classes 0, 1/2, 1/3, a and -a
MIXED = (Fraction(0), Fraction(1, 2), Fraction(1, 3), "a", "-a")


def fresh(word):
    """The same values, each rational anchor a new Fraction object."""
    return tuple(
        FieldElem(Fraction(e.anchor.numerator, e.anchor.denominator), e.offset)
        if e.is_rational else e
        for e in word
    )


def mixed_pairs(rng, count):
    """Pairs of equal-length words over MIXED, no two rational entries
    sharing an anchor object; g is a walk of plain or shifted moves from
    f, a rearrangement of f, or a new word."""
    pairs = []
    for case in range(count):
        n = rng.randint(1, 6)
        f = fresh(FieldElem(rng.choice(MIXED), rng.randint(-2, 3)) for _ in range(n))
        if case % 3 == 0:
            g = walk(rng, f, case % 2 == 0)
        elif case % 3 == 1:
            g = tuple(rng.sample(f, n))
        else:
            g = tuple(FieldElem(rng.choice(MIXED), rng.randint(-2, 3)) for _ in range(n))
        pairs.append((f, fresh(g)))
    return pairs


PAIR_KINDS = ("walk", "rearranged", "rearranged-j", "one-class", "shift", "missing")


def _equality_corpus(rng):
    """Pairs (f, g) of equal-length words over MIXED, each tagged with
    how g was made: a walk of plain or shifted moves from f; a
    rearrangement of f, or one of rho_shift(f) shifted back, whose
    insertion (j when shifted) is not f's; f with one entry moved, so
    the multisets differ in that class only; a shift of f; or a word
    that misses the class of f[0]."""
    corpus = []
    while len(corpus) < 480:
        n = rng.randint(2, 6)
        f = fresh(FieldElem(rng.choice(MIXED), rng.randint(-2, 3)) for _ in range(n))
        kind = rng.choice(PAIR_KINDS)
        if kind == "walk":
            g = walk(rng, f, rng.random() < 0.5)
        elif kind == "rearranged":
            g = tuple(rng.sample(f, n))
            if oracles.insertion(pairs_of(g)) == oracles.insertion(pairs_of(f)):
                continue
        elif kind == "rearranged-j":
            g = tuple(e.shift(i) for i, e in enumerate(rng.sample(rho_shift(f), n), 1))
            if oracles.shifted_insertion(pairs_of(g)) == oracles.shifted_insertion(pairs_of(f)):
                continue
        elif kind == "one-class":
            i = rng.randrange(n)
            g = tuple(rng.sample(f[:i] + (f[i].shift(rng.choice((-1, 1))),) + f[i + 1 :], n))
        elif kind == "shift":
            g = tuple(e.shift(rng.randint(-3, 3)) for e in walk(rng, f, True))
        else:
            others = [a for a in MIXED if a != f[0].anchor]
            g = tuple(FieldElem(rng.choice(others), rng.randint(-2, 3)) for _ in range(n))
        corpus.append((kind, f, fresh(g)))
    return corpus


def test_equality_checks_match_the_oracles_on_mixed_classes():
    """connected (plain and shifted) and joseph_equal (k omitted and k
    given) answer as rsbench/oracles.py does on every kind of pair,
    also where the entry multisets differ in one class only or fprime
    misses the class of f[0]; every path found replays to g."""
    rng = random.Random(61)
    corpus = _equality_corpus(rng)
    hits = dict.fromkeys(("plain", "shifted", "found", "given"), 0)
    for kind, f, g in corpus:
        pf, pg = pairs_of(f), pairs_of(g)
        for shifted, insertion in ((False, oracles.insertion), (True, oracles.shifted_insertion)):
            path = connected(f, g, shifted=shifted)
            assert (path is not None) == (insertion(pf) == insertion(pg)), (kind, f, g, shifted)
            if path is not None:
                assert oracles.path_error(pf, pg, path.steps) is None, (kind, f, g, shifted)
                hits["shifted" if shifted else "plain"] += 1
        want = oracles.joseph_equal(pf, pg, None)
        assert joseph_equal(f, g) == want, (kind, f, g)
        hits["found"] += want
        for k in range(-3, 4):
            want = oracles.joseph_equal(pf, pg, k)
            assert joseph_equal(f, g, k=k) == want, (kind, f, g, k)
            hits["given"] += want
    kinds = [kind for kind, *_ in corpus]
    assert min(map(kinds.count, PAIR_KINDS)) > 30
    assert min(hits.values()) > 40, hits


def test_joseph_equal_groups_many_classes_in_one_pass():
    """20,000 entries, each in a class of its own, are grouped by class in
    one pass: a scan of the word per class took 1.4 s at 5,000 entries
    and grows with the square."""
    proc = in_child(
        "from rsinf import FieldElem, joseph_equal\n"
        "w = [FieldElem(f's{i}', i % 7) for i in range(20_000)]\n"
        "assert joseph_equal(w, [e.shift(3) for e in w]) is True\n"
        "assert joseph_equal(w, [e.shift(3) for e in w], k=-3) is True\n",
        timeout=10,
    )
    assert proc.returncode == 0, proc.stderr


def test_int_level_checks_match_the_tableaux():
    """connected answers None exactly when rs (j when shifted) of the two
    words differ, and joseph_equal(f, g, k) is j(f) == j(g + k)."""
    rng = random.Random(53)
    seen = {False: [0, 0], True: [0, 0]}
    joseph = [0, 0]
    for f, g in mixed_pairs(rng, 300):
        for shifted, insertion in ((False, rs), (True, j)):
            same = insertion(f) == insertion(g)
            assert (connected(f, g, shifted=shifted) is None) is not same, (f, g, shifted)
            seen[shifted][same] += 1
        for k in range(-3, 4):
            want = j(f) == j(tuple(e.shift(k) for e in g))
            assert joseph_equal(f, g, k=k) is want, (f, g, k)
            joseph[want] += 1
        assert joseph_equal(f, g) is any(
            joseph_equal(f, g, k=c) for c in range(-len(f) - 8, len(f) + 9)
        ), (f, g)
    # both answers occur for every check
    assert min(seen[False] + seen[True] + joseph) > 20


def _kernel_calls(x, y) -> int:
    """Kernel calls of one insertion comparison of the oracle words x and
    y: none when their entry multisets differ, since insertion keeps
    each class's entries, else one per class of each word."""
    if sorted(x) != sorted(y):
        return 0
    return len(oracles.by_class(x)) + len(oracles.by_class(y))


def _compared_words(f, g, k):
    """The oracle word pairs that connected (plain and shifted) and
    joseph_equal (k omitted and k given) compare on f != g of one length;
    k omitted compares nothing when g misses the class of f[0]."""
    pf, pg = pairs_of(f), pairs_of(g)
    jf, jg = oracles.rho(pf), oracles.rho(pg)
    compared = [(pf, pg), (jf, jg), (jf, oracles.shift(jg, k))]
    label = jf[0][0]
    kb = [o for c, o in jg if c == label]
    if kb:
        found = max(o for c, o in jf if c == label) - max(kb)
        compared.append((jf, oracles.shift(jg, found)))
    return compared


def test_connected_and_joseph_equal_build_no_tableau(monkeypatch):
    """With Tableau and TableauFamily construction refused, both checks
    still answer.  A comparison of two words whose entry multisets
    differ runs no kernel call, and any other runs exactly one per class
    of each word."""
    rng = random.Random(59)
    cases = []
    for f, g in mixed_pairs(rng, 120):
        if f == g:
            continue
        k = rng.randint(-2, 2)
        answers = (connected(f, g), connected(f, g, shifted=True),
                   joseph_equal(f, g), joseph_equal(f, g, k=k))
        calls = [_kernel_calls(x, y) for x, y in _compared_words(f, g, k)]
        cases.append((f, g, k, answers, sum(calls), calls.count(0)))

    def refuse(self):
        raise AssertionError("a tableau was built")

    calls = [0]
    kernel = rs_finite_mod.insert_sequence

    def counted(offsets):
        calls[0] += 1
        return kernel(offsets)

    monkeypatch.setattr(Tableau, "__post_init__", refuse)
    monkeypatch.setattr(TableauFamily, "__post_init__", refuse)
    for owner, name, _ in unchecked_tableau_sites():
        monkeypatch.setattr(owner, name, refuse)
    monkeypatch.setattr(rs_finite_mod, "insert_sequence", counted)
    for f, g, k, answers, kernel_calls, _ in cases:
        calls[0] = 0
        got = (connected(f, g), connected(f, g, shifted=True),
               joseph_equal(f, g), joseph_equal(f, g, k=k))
        assert got == answers, (f, g, k)
        assert calls[0] == kernel_calls, (f, g, k)
    assert len(cases) > 80
    assert sum(case[3][0] is not None for case in cases) > 10
    # both rules are met often: comparisons with and without the exit
    assert sum(case[5] for case in cases) > 100
    assert sum(case[4] > 0 for case in cases) > 40


def _same_grouping(vals):
    """rs inserts class by class as the one-lookup-per-entry oracle does,
    each tableau's anchor is the first one seen in its class, and the
    last step of rs_trace is rs."""
    family, want = rs(vals), setdefault_insert_by_class(vals)
    assert {t.anchor: t.rows for t in family} == want
    # the oracle keeps the first anchor object seen as each class's key
    first = {a: a for a in want}
    assert all(t.anchor is first[t.anchor] for t in family)
    if vals:
        assert rs_trace(vals)[-1].family == family


def test_rs_groups_alternating_classes():
    user = FieldElem(Fraction(0), 3)
    vals = tuple(elem(v) for v in [user, "a", 1, "a", FieldElem(Fraction(0), 5), "1/2"])
    _same_grouping(vals)
    # classes in order of first appearance, keyed by symbol or by
    # (numerator, denominator): each entry's class index, its offset, and
    # each class's first anchor object
    codes, m, anchors = rs_finite_mod._codes(vals)
    assert [c % m for c in codes] == [0, 1, 0, 1, 0, 2]
    assert [c // m for c in codes] == [e.offset for e in vals]
    assert anchors == [Fraction(0), "a", Fraction(1, 2)] and anchors[0] is user.anchor
    got = {t.anchor: t for t in rs(vals)}
    assert got[Fraction(0)].anchor is user.anchor
    assert got[Fraction(0)].rows == ((vals[4], vals[2]), (vals[0],))
    assert got["a"].rows == ((vals[1],), (vals[3],))
    rng = random.Random(5)
    pool = [Fraction(0), Fraction(0), Fraction(1, 2), Fraction(1, 2), "a", "b"]
    for _ in range(300):
        vals = tuple(
            FieldElem(rng.choice(pool), rng.randint(-4, 4))
            for _ in range(rng.randint(0, 12))
        )
        _same_grouping(vals)


# 1/2, 3/2, -1/3 and 2/3 as (numerator, denominator), symbols, and ints
KEYED = ((1, 2), (3, 2), (-1, 3), (2, 3), "a", "-b", 0)


def keyed_entry(rng):
    """An entry of KEYED shifted by up to 3: a rational one holds a new
    Fraction object, and an int one is a plain int or an element with a
    new Fraction(0) anchor."""
    v, k = rng.choice(KEYED), rng.randint(-3, 3)
    if isinstance(v, str):
        return FieldElem(v, k)
    if v == 0:
        return k if rng.random() < 0.5 else FieldElem(Fraction(0), k)
    floor, num = divmod(v[0], v[1])
    return FieldElem(Fraction(num, v[1]), floor + k)


def test_class_keys_hash_no_fraction(monkeypatch):
    """Grouping by class keys a class by its symbol or by (numerator,
    denominator), and class identity compares those keys: with
    Fraction.__hash__ and Fraction.__eq__ refused, finite and infinite
    insertion, classify and the interchange checks answer as they do
    with both on, on words whose equal anchors are distinct objects."""
    rng = random.Random(67)
    cases = []
    for _ in range(300):
        f = tuple(keyed_entry(rng) for _ in range(rng.randint(0, 9)))
        g = fresh(walk(rng, elems(f), rng.random() < 0.5))
        law, other, far = (elem(keyed_entry(rng)) for _ in range(3))
        # the ALL block's right law is law's class held by a new object
        right = fresh([law.shift(rng.randint(-3, 3))])[0]
        tails = {Axis.NEG: {"left_tail": law}, Axis.POS: {"right_tail": law},
                 Axis.ALL: {"left_tail": law, "right_tail": right}}
        axis = rng.choice(list(Axis))
        block = eventually_constant(axis, f, **tails[axis])
        # one spec in five ends in a tail of another class, most likely
        end = far if rng.random() < 0.2 else law
        spec = WeightSpec((Omega(elems(f), law), Zeta(right, elems(g), end), Finite((other,))))
        cases.append((f, g, block, spec))

    def answers(f, g, block, spec):
        return (rs(f), j(f), rs_trace(f), seq_of(rs(f)), rs_infinite(plus_rho(block)),
                classify(spec), connected(f, g), connected(f, g, shifted=True),
                joseph_equal(f, g), joseph_equal(f, g, k=1))

    want = [answers(*case) for case in cases]

    def refuse(self, *other):
        raise AssertionError("Fraction.__hash__ or __eq__ called")

    monkeypatch.setattr(Fraction, "__hash__", refuse)
    monkeypatch.setattr(Fraction, "__eq__", refuse)
    for case, answer in zip(cases, want):
        assert answers(*case) == answer, case
    monkeypatch.undo()
    # the words meet several classes, and the checks give both answers
    assert sum(len(a[0]) > 2 for a in want) > 100
    assert {a[6] is None for a in want} == {True, False}
    assert {a[8] for a in want} == {True, False}
    assert {type(a[5]) for a in want} == {ProperIdeal, ZeroIdeal}


def test_connected_refuses_past_its_state_limit(monkeypatch):
    """The search counts the words it keeps, one O(1) test per word
    queued: past the limit it raises ValueError naming the limit, while
    answers that need no search, or fewer words, are unchanged."""
    f = tuple(random.Random(5).sample(range(8), 8))
    g = seq_of(rs(f))
    path = connected(f, g)
    assert path is not None and len(path.steps) >= 3 and path.replay(f) == g
    # the word whose shift is the reading word of f's shifted insertion
    h = tuple(e.shift(i) for i, e in enumerate(seq_of(j(f)), 1))
    shifted = connected(f, h, shifted=True)
    assert shifted is not None and len(shifted.steps) >= 3 and shifted.replay(f) == h
    monkeypatch.setattr(rs_finite_mod, "_CONNECTED_MAX_STATES", 3)
    with pytest.raises(ValueError, match="limit of 3 searched words"):
        connected(f, g)
    with pytest.raises(ValueError, match=r"\(rsinf.rs_finite._CONNECTED_MAX_STATES\)"):
        connected(f, h, shifted=True)
    # equal words, unequal insertions and a target that is the first word
    # queued answer as before, even with no room to search
    monkeypatch.setattr(rs_finite_mod, "_CONNECTED_MAX_STATES", 0)
    assert connected(f, f) == InterchangePath(())
    assert connected(f, tuple(reversed(f))) is None
    first = next(i for i in range(1, len(f)) if admissible(f, i))
    assert connected(f, apply_interchange(f, first)) == InterchangePath(((first, False),))


def test_finite_insertion_on_elements_runs_no_element_check(monkeypatch):
    """rs, j, rs_trace and seq_of on elements build every element and
    family they answer without FieldElem's check: each anchor was checked
    once, when its element was built, and a family names its classes
    without building an element."""
    rng = random.Random(83)
    anchors = [Fraction(0), Fraction(1, 3), Fraction(2, 3), "a", "-a", "b"]
    words = [
        tuple(FieldElem(rng.choice(anchors), rng.randint(-9, 9)) for _ in range(rng.randint(0, 30)))
        for _ in range(60)
    ]
    checks = [0]
    check = FieldElem.__post_init__

    def counted(self):
        checks[0] += 1
        check(self)

    monkeypatch.setattr(FieldElem, "__post_init__", counted)
    answers = [(rs(w), j(w), rs_trace(w), seq_of(rs(w)), seq_of(j(w))) for w in words]
    seen = checks[0]
    FieldElem("a", 0)
    assert checks[0] == seen + 1  # the counter sees the check
    monkeypatch.undo()
    assert seen == 0
    for w, (family, shifted, trace, word, reading) in zip(words, answers):
        assert family == rs(w) and shifted == j(w) and rs(word) == family, w
        assert (trace[-1].family if trace else rs(())) == family, w
        assert rs(reading) == shifted, w
    assert max(len(a[0]) for a in answers) >= 5


def test_seq_of_refuses_a_non_tableau():
    """seq_of reads a tableau, a family or an iterable of tableaux; an
    iterable of anything else used to raise AttributeError on 'rows'."""
    for value, kind in (((1, 2), "int"), ("ab", "str"), ([rs([1])[0], None], "NoneType"), ([rs([1])], "TableauFamily")):
        with pytest.raises(TypeError, match=f"^seq_of reads tableaux, not {kind}$"):
            seq_of(value)


def _twin_anchors():
    """Pairs of equal anchors held by distinct objects: a symbol and two
    rationals."""
    pairs = [("".join(["a", "b"]), "".join(["a", "b"])), (Fraction(1, 3), Fraction(1, 3)),
             (Fraction(0), Fraction(0))]
    assert all(x == y and x is not y for x, y in pairs)
    return pairs


def test_rs_trace_keeps_the_first_anchor_of_each_class():
    """Every step of rs_trace gives each tableau the first anchor object
    seen in its class, as rs does; it used to carry the latest one."""
    rng = random.Random(34)
    twins = _twin_anchors()
    for _ in range(200):
        word = tuple(FieldElem(rng.choice(rng.choice(twins)), rng.randint(-3, 3))
                     for _ in range(rng.randint(1, 10)))
        for pos, step in enumerate(rs_trace(word), 1):
            first = {}
            for e in word[:pos]:
                first.setdefault(e.anchor, e.anchor)
            assert all(t.anchor is first[t.anchor] for t in step.family), (word, pos)
        assert [id(t.anchor) for t in step.family] == [id(t.anchor) for t in rs(word)]


def test_each_call_keys_each_anchor_object_once(monkeypatch):
    """rs, j, rs_trace and the interchange checks group their words in one
    class pass, which keys each distinct anchor object at most once;
    rs_trace used to key every entry and every tableau of every step."""
    rng = random.Random(35)
    twins = _twin_anchors()
    keyed = []
    class_key = rs_finite_mod._class_key

    def counted(anchor):
        keyed.append(id(anchor))
        return class_key(anchor)

    monkeypatch.setattr(rs_finite_mod, "_class_key", counted)
    calls = (
        lambda f, g: rs(f), lambda f, g: j(f), lambda f, g: rs_trace(f),
        lambda f, g: connected(f, g), lambda f, g: connected(f, g, shifted=True),
        lambda f, g: joseph_equal(f, g), lambda f, g: joseph_equal(f, g, k=1),
        lambda f, g: admissible(f, 1), lambda f, g: admissible(f, 1, shifted=True),
    )
    most = 0
    for _ in range(100):
        f = tuple(FieldElem(rng.choice(rng.choice(twins)), rng.randint(-3, 3))
                  for _ in range(rng.randint(2, 8)))
        g = walk(rng, f, rng.random() < 0.5)
        for call in calls:
            keyed.clear()
            call(f, g)
            assert len(keyed) == len(set(keyed)), (f, g)
            most = max(most, len(keyed))
    assert most >= 4


def _sites(path, names):
    """(name, site) for each of names that the module at path spells as a
    variable, an attribute, a def or an import: the site is the top-level
    def or class holding it, or "import" for a top-level import."""
    for top in ast.parse(Path(path).read_text()).body:
        if isinstance(top, (ast.Import, ast.ImportFrom)):
            site = "import"
        else:
            site = getattr(top, "name", f"line {top.lineno}")
        for node in ast.walk(top):
            spelled = {getattr(node, field, None) for field in ("id", "attr", "name", "asname")}
            for name in spelled & set(names):
                yield name, site


def test_one_site_each_for_the_kernels_and_the_class_key():
    """Across the package the batch kernel is named only in _kernel and
    _insertion_py and in rs_finite's _class_rows, the one batch-kernel
    call site, and the stepwise bump only in _insertion_py and in
    rs_finite's rs_trace, besides rs_finite's imports: rs_infinite names
    neither.  In rs_finite the class key is named only in _codes, the one
    class pass every finite insertion goes through."""
    names = ("insert_sequence", "insert_one", "_class_key")
    found: dict = {name: set() for name in names}
    for path in Path(rs_finite_mod.__file__).parent.glob("*.py"):
        for name, site in _sites(path, names):
            found[name].add((path.stem, site))

    def outside(name, *modules):
        return {f"{mod}.{site}" for mod, site in found[name] if mod not in modules}

    assert outside("insert_sequence", "_kernel", "_insertion_py") == {
        "rs_finite.import", "rs_finite._class_rows"}
    assert outside("insert_one", "_insertion_py") == {"rs_finite.import", "rs_finite.rs_trace"}
    # the scan sees the kernels' own definitions
    assert {("_kernel", "insert_sequence"), ("_insertion_py", "insert_sequence")} <= found[
        "insert_sequence"]
    assert ("_insertion_py", "insert_one") in found["insert_one"]
    assert {site for mod, site in found["_class_key"] if mod == "rs_finite"} == {
        "import", "_codes"}
