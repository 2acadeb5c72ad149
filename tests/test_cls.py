import importlib
import itertools
import random
import tracemalloc
from collections import Counter

import pytest

from helpers import (
    enumerated_basic_level,
    f_kn,
    frontier_split,
    in_child,
    loop_gamma,
    normalize,
    oracles,
    product_cls_level,
    search_member,
    sweep_member,
)
from rsinf.cls import (
    ClsParams,
    LevelError,
    _split_linf_rinf,
    basic_level,
    cls_level,
    cls_params,
    factorization,
    gamma,
    member,
    q_union_level,
)


def test_normalize():
    assert normalize((3, 2, 2)) == (1, 0, 0)
    assert normalize([5]) == (0,)
    assert normalize(()) == ()
    with pytest.raises(ValueError, match="weakly decreasing"):
        normalize((1, 2))


def test_f_kn():
    assert f_kn(0, 3) == (0, 0, 0)
    assert f_kn(2, 4) == (1, 1, 0, 0)
    assert f_kn(2, 2) == (0, 0)
    with pytest.raises(ValueError):
        f_kn(5, 3)
    with pytest.raises(ValueError):
        f_kn(-1, 2)


def test_basic_level_families():
    assert basic_level("T", 0, 3, 9) == {(0, 0, 0)}
    assert basic_level("L", 1, 3, 9) == {(0, 0, 0), (1, 0, 0)}
    assert basic_level("R", 1, 3, 9) == {(0, 0, 0), (1, 1, 0)}
    assert basic_level("E", 0, 3, 9) == {(0, 0, 0), (1, 0, 0), (1, 1, 0)}
    assert basic_level("Linf", 1, 3, 2) == {(0, 0, 0), (1, 0, 0), (2, 0, 0)}
    assert basic_level("Rinf", 1, 3, 2) == {(0, 0, 0), (1, 1, 0), (2, 2, 0)}
    assert basic_level("Einf", 0, 2, 2) == {(0, 0), (1, 0), (2, 0)}
    with pytest.raises(ValueError, match="unknown family kind"):
        basic_level("Z", 0, 2, 2)


def test_params_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        cls_params(-1, 0, 0)
    with pytest.raises(ValueError, match="weakly decreasing"):
        cls_params(0, 0, 0, X=(1, 2))
    with pytest.raises(ValueError, match="positive parts"):
        cls_params(0, 0, 0, Y=(1, 0))
    # a parameter is an int, never truncated into one
    with pytest.raises(TypeError, match="r' must be an integer, not 1.7"):
        cls_params(1.7, 0, 0)
    with pytest.raises(TypeError, match="r' must be an integer, not True"):
        cls_params(True, 0, 0)
    with pytest.raises(TypeError, match="r'' must be an integer, not 2.0"):
        cls_params(0, 2.0, 0)
    with pytest.raises(TypeError, match="g must be an integer, not False"):
        cls_params(0, 0, False)
    with pytest.raises(TypeError, match="an entry of X must be an integer, not 1.5"):
        cls_params(0, 0, 0, X=(2, 1.5))
    with pytest.raises(TypeError, match="an entry of Y must be an integer, not '1'"):
        cls_params(0, 0, 0, Y="1")


def test_factorization():
    p = cls_params(1, 2, 3, (3, 1), (2, 2))
    assert factorization(p) == (
        ("Linf", 1, 1),
        ("L", 2, 2),
        ("L", 3, 1),
        ("E", 0, 3),
        ("Rinf", 2, 1),
        ("R", 4, 2),
    )
    assert factorization(cls_params(0, 0, 0)) == ()


def test_cls_level_single_column():
    lv = cls_level(cls_params(0, 0, 0, Y=(1,)), 3, 5)
    assert lv == {(0, 0, 0), (1, 1, 0)}


def test_level_too_small():
    with pytest.raises(LevelError, match="too small for parameters"):
        cls_level(cls_params(2, 0, 0, X=(1,)), 3, 5)
    with pytest.raises(LevelError):
        member(cls_params(0, 3, 0), (1, 0, 0))
    with pytest.raises(LevelError, match="too small for every split"):
        q_union_level(5, 0, (), (), 2, 3)


def test_level_sets_refuse_negative_arguments():
    # each used to answer: a set without the zero weight, the level -3
    # set {()}, and a level error that did not name r
    with pytest.raises(ValueError, match="^the entry bound must be nonnegative, got -1$"):
        basic_level("Linf", 1, 3, -1)
    with pytest.raises(ValueError, match="^the level must be nonnegative, got -3$"):
        basic_level("E", 0, -3, 1)
    with pytest.raises(ValueError, match="^r must be nonnegative, got -1$"):
        q_union_level(-1, 0, (), (), 3, 1)
    with pytest.raises(ValueError, match="^the level must be nonnegative, got -1$"):
        cls_level(cls_params(0, 0, 0), -1, 1)


def test_member_fixtures():
    assert member(cls_params(0, 0, 0, X=(2, 1)), (2, 1, 0))
    assert not member(cls_params(0, 0, 0, X=(1,)), (3, 0, 0))
    assert member(cls_params(1, 0, 0), (7, 0, 0))
    assert not member(cls_params(1, 0, 0), (7, 1, 0))
    with pytest.raises(ValueError, match="expected level"):
        member(cls_params(0, 0, 0), (1, 0), 3)


def test_member_rejects_non_integer_entries():
    # truncating (2.5, 1, 0) would answer about (2, 1, 0)
    assert member(cls_params(1, 0, 0), (2, 1, 0)) is False
    assert member(cls_params(0, 0, 1), (1, 1, 0))
    with pytest.raises(TypeError, match="an entry of the weight must be an integer, not 2.5"):
        member(cls_params(1, 0, 0), (2.5, 1, 0))
    with pytest.raises(TypeError, match="not True"):
        member(cls_params(0, 0, 1), (True, True, 0))


def test_negative_bound_is_refused():
    # every level set holds the zero vector, which a negative bound would drop
    assert (0, 0, 0) in cls_level(cls_params(1, 0, 0), 3, 0)
    with pytest.raises(ValueError, match="bound must be nonnegative, got -1"):
        cls_level(cls_params(1, 0, 0), 3, -1)
    with pytest.raises(ValueError, match="bound must be nonnegative"):
        cls_level(cls_params(0, 0, 1), 3, -1)
    with pytest.raises(ValueError, match="bound must be nonnegative"):
        q_union_level(1, 0, (), (), 3, -2)


def test_q_union_covers_both_splits():
    lv = q_union_level(1, 0, (), (), 3, 2)
    assert (2, 0, 0) in lv
    assert (2, 2, 0) in lv
    assert (2, 1, 0) not in lv


def test_params_built_from_lists_hash():
    # a frozen dataclass hashes its fields, so X and Y must be stored as tuples
    p = ClsParams(0, 0, 1, [2, 1], [])
    assert (p.X, p.Y) == ((2, 1), ())
    assert isinstance(hash(p), int)
    assert member(p, (3, 1, 0)) and not member(p, (4, 0, 0))


def test_params_read_an_iterator_once():
    # the checks run on the stored tuple, so an iterator is read once
    p = ClsParams(0, 0, 1, iter([2, 1]), iter([1]))
    assert (p.X, p.Y) == ((2, 1), (1,))
    with pytest.raises(ValueError, match="X must be weakly decreasing"):
        ClsParams(0, 0, 0, iter([1, 2]), ())
    with pytest.raises(TypeError, match="an entry of X must be an integer, not 0.5"):
        ClsParams(0, 0, 0, iter([1, 0.5]), ())


def test_params_from_lists_equal_and_hash_like_cls_params():
    q, p = ClsParams(1, 0, 2, [2, 1], [3]), cls_params(1, 0, 2, (2, 1), (3,))
    assert q == p and hash(q) == hash(p)
    assert len({q, p}) == 1


def test_gamma_level_error_names_the_given_level():
    # gamma works at level 2n, and the message names the n it was given
    p = cls_params(0, 0, 1)
    with pytest.raises(LevelError, match=(
            r"^level -2, which gamma doubles to -4, is too small for parameters \(0,0,1;\(\);\(\)\)$")):
        gamma(p, -2)
    with pytest.raises(LevelError, match=r"^level 2, which gamma doubles to 4, is too small"):
        gamma(cls_params(2, 0, 0, (1, 1, 1)), 2)
    assert gamma(p, 1) == (1, 0)


def test_gamma_fixtures():
    assert gamma(cls_params(1, 0, 0), 2) == (1, 0, 0, 0)
    assert gamma(cls_params(2, 0, 0), 2) == (3, 3, 0, 0)
    assert gamma(cls_params(0, 1, 0), 3) == (1, 1, 1, 1, 1, 0)
    assert gamma(cls_params(0, 0, 1), 2) == (1, 1, 0, 0)
    assert gamma(cls_params(0, 0, 0, X=(2,)), 2) == (2, 0, 0, 0)
    assert len(gamma(cls_params(1, 1, 1, (1,), (2, 1)), 5)) == 10


def test_gamma_matches_the_loop_per_factor():
    parts = [(), (1,), (2, 1), (2, 2), (3, 1, 1)]
    checked = 0
    for r1, r2, g, x, y, n in itertools.product(range(3), range(3), range(3), parts, parts,
                                                range(1, 6)):
        p = cls_params(r1, r2, g, x, y)
        if 2 * n > max(r1 + len(x), r2 + len(y)):
            assert gamma(p, n) == loop_gamma(p, n), (p, n)
            checked += 1
    assert checked == 2415  # of 3,375 cases, the rest at a level too small


def test_small_levels_coincide():
    # at level n the three step chains L(n-1), R(n-1) and the full chain
    # are all {0, f_1, ..., f_{n-1}}, so these parameters are only told
    # apart at higher levels
    a = cls_level(cls_params(0, 0, 0, X=(1, 1, 1)), 4, 6)
    b = cls_level(cls_params(0, 0, 0, Y=(1, 1, 1)), 4, 6)
    c = cls_level(cls_params(0, 0, 1), 4, 6)
    assert a == b == c
    assert a == {(0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0)}


def test_member_matches_enumeration():
    rng = random.Random(11)
    vectors = [normalize(v) for v in oracles.dominant_vectors(3, 3)]
    for _ in range(40):
        p = cls_params(
            rng.randint(0, 1),
            rng.randint(0, 1),
            rng.randint(0, 1),
            X=_rand_partition(rng),
            Y=_rand_partition(rng),
        )
        try:
            lv = cls_level(p, 3, 3)
        except LevelError:
            continue
        for v in vectors:
            assert member(p, v) == (v in lv), (p, v)


def _rand_partition(rng, parts=2, size=2):
    """A random partition of at most `parts` parts, each at most `size`."""
    k = rng.randint(0, parts)
    return tuple(sorted((rng.randint(1, size) for _ in range(k)), reverse=True))


def _rand_params(rng, r=3, g=3, parts=4, size=4):
    """Random parameters with r', r'' <= r, g at most g, and partitions
    of at most `parts` parts, each at most `size`."""
    return cls_params(rng.randint(0, r), rng.randint(0, r), rng.randint(0, g),
                      _rand_partition(rng, parts, size), _rand_partition(rng, parts, size))


def _rand_weight(rng, n, top):
    return tuple(sorted((rng.randint(0, top) for _ in range(n - 1)), reverse=True)) + (0,)


def test_level_and_bound_must_be_integers():
    p = cls_params(1, 0, 0)
    # True would answer the bound-1 set, and 3.0 used to pass the level check
    with pytest.raises(TypeError, match="the entry bound must be an integer, not True"):
        cls_level(p, 3, True)
    with pytest.raises(TypeError, match="the level must be an integer, not 3.0"):
        cls_level(p, 3.0, 2)
    with pytest.raises(TypeError, match="the entry bound must be an integer, not 2.5"):
        cls_level(p, 3, 2.5)
    with pytest.raises(TypeError, match="the level must be an integer, not 2.0"):
        gamma(p, 2.0)
    with pytest.raises(TypeError, match="the level must be an integer, not 3.0"):
        q_union_level(1, 0, (), (), 3.0, 2)
    with pytest.raises(TypeError, match="the entry bound must be an integer, not False"):
        q_union_level(1, 0, (), (), 3, False)
    with pytest.raises(TypeError, match="r must be an integer, not 1.0"):
        q_union_level(1.0, 0, (), (), 3, 2)
    with pytest.raises(TypeError, match="the level must be an integer, not 3.0"):
        member(p, (1, 0, 0), 3.0)
    assert member(p, (1, 0, 0), 3)
    # the dataclass itself refuses what cls_params refuses: 1.5 used to
    # truncate to g = 1, and an X of (1.0,) answered as if it were (1,)
    with pytest.raises(TypeError, match="g must be an integer, not 1.5"):
        ClsParams(0, 0, 1.5, (), ())
    with pytest.raises(TypeError, match="an entry of X must be an integer, not 1.0"):
        ClsParams(0, 0, 0, (1.0,), ())
    with pytest.raises(TypeError, match="an entry of Y must be an integer, not True"):
        ClsParams(0, 0, 0, (), (True,))
    with pytest.raises(TypeError, match="r' must be an integer, not True"):
        ClsParams(True, 0, 0, (), ())
    with pytest.raises(TypeError, match="r'' must be an integer, not 0.0"):
        ClsParams(0, 0.0, 0, (), ())
    # X is checked first, as cls_params did
    with pytest.raises(TypeError, match="an entry of X must be an integer, not 2.5"):
        ClsParams(0.5, 0, 0, (2.5,), ())
    assert ClsParams(1, 0, 2, (2, 1), ()) == cls_params(1, 0, 2, [2, 1])


def test_member_reports_entries_before_order():
    # every entry is checked before the order, and the order error shows
    # the whole weight
    p = cls_params(1, 0, 0)
    with pytest.raises(ValueError, match=r"^\(1, 2, 0\) is not weakly decreasing$"):
        member(p, (1, 2, 0))
    with pytest.raises(ValueError, match=r"^\(3, 4, 5\) is not weakly decreasing$"):
        member(p, iter([3, 4, 5]))
    with pytest.raises(TypeError, match="an entry of the weight must be an integer, not 0.5"):
        member(p, (1, 2, 0.5))
    with pytest.raises(ValueError, match="vector has length 3, expected level 4"):
        member(p, (2, 1, 0), 4)
    with pytest.raises(LevelError, match="level 0 is too small"):
        member(p, ())
    # a weight need not end in zero: it is read up to a constant
    assert member(p, (9, 2, 2)) and not member(p, (9, 3, 2))


def test_split_matches_frontier_dp():
    # every vector, dominant or not, with entries -1..3, at levels 1..6
    checked = 0
    for n in range(1, 7):
        for u in itertools.product(range(-1, 4), repeat=n):
            for r1 in range(n + 2):
                for r2 in range(n + 2):
                    assert _split_linf_rinf(u, r1, r2) == frontier_split(u, r1, r2), (u, r1, r2)
                    checked += 1
    assert checked == 1_179_195


def test_member_matches_decomposition_search():
    rng = random.Random(8)
    answers = []
    for _ in range(600):
        p = _rand_params(rng, r=2, g=2, parts=3, size=3)
        n = rng.randint(1, 8)
        if n <= p.r1 + len(p.X) or n <= p.r2 + len(p.Y):
            continue
        for _ in range(5):
            v = _rand_weight(rng, n, rng.randint(0, 8))
            answers.append(member(p, v))
            assert answers[-1] == search_member(p, v), (p, v)
    assert answers.count(False) > 400 and answers.count(True) > 1000


def test_member_matches_enumerated_level_beyond_the_acceptance_grid():
    # a10 enumerates levels up to 4 with r', r'', g <= 2 and partitions of
    # at most four boxes; these go to level 7, g <= 3 and partitions of up
    # to four parts of size up to 4
    rng = random.Random(12)
    answers = []
    while len(answers) < 6000:
        p = _rand_params(rng, r=1)
        n = rng.randint(5, 7)
        if n <= p.r1 + len(p.X) or n <= p.r2 + len(p.Y):
            continue
        bound = rng.randint(3, 4)
        lv = cls_level(p, n, bound)
        for v in oracles.dominant_vectors(n, bound):
            answers.append(member(p, v))
            assert answers[-1] == (v in lv), (p, n, v)
    assert answers.count(False) > 1000


def test_member_builds_capacities_once_per_tuple_and_level(monkeypatch):
    # no level enumeration and no split; factorization runs once per
    # distinct (p, n), though each call gets an equal but distinct p
    cls = importlib.import_module("rsinf.cls")
    calls = Counter()

    def counting(name, orig):
        def wrapped(*args):
            calls[name] += 1
            return orig(*args)

        return wrapped

    for name in ("_split_linf_rinf", "basic_level", "_level_set", "factorization"):
        monkeypatch.setattr(cls, name, counting(name, getattr(cls, name)))
    cls._member_caps.cache_clear()
    rng = random.Random(9)
    keys = set()
    while len(keys) < 30:
        p = _rand_params(rng)
        n = rng.randint(1, 9)
        if n <= p.r1 + len(p.X) or n <= p.r2 + len(p.Y):
            continue
        for _ in range(62):
            q = ClsParams(p.r1, p.r2, p.g, list(p.X), list(p.Y))
            assert q == p and q is not p
            member(q, _rand_weight(rng, n, 6))
        keys.add((p, n))
    assert calls == {"factorization": len(keys)}

    # a level too small raises the same text on every call, and is not kept
    cls._member_caps.cache_clear()
    small = cls_params(2, 0, 0, (1,))
    for _ in range(3):
        with pytest.raises(LevelError) as exc:
            member(small, (1, 0, 0))
        assert str(exc.value) == "level 3 is too small for parameters (2,0,0;(1,);())"
        assert cls._member_caps.cache_info().currsize == 0
    # equal parameters built from lists and from tuples share one entry
    member(ClsParams(1, 0, 2, [2, 1], [3]), (4, 3, 1, 0))
    member(cls_params(1, 0, 2, (2, 1), (3,)), (3, 3, 1, 0))
    info = cls._member_caps.cache_info()
    assert (info.currsize, info.hits) == (1, 1)
    assert calls == {"factorization": len(keys) + 1}


def _outcome(f, *args):
    """What f(*args) returned, or the type and message of what it raised."""
    try:
        return f(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def _rand_shifted_weight(rng, n):
    """A weakly decreasing n-vector with entries in -6..8: it need not end
    in 0, and its entries may be negative."""
    return tuple(sorted((rng.randint(-6, 8) for _ in range(n)), reverse=True))


_ERROR_KINDS = (
    ("type", "must be an integer"),
    ("order", "is not weakly decreasing"),
    ("length", "expected level"),
    ("level", "is too small"),
)


def test_member_matches_sweep_and_search_on_a_seeded_corpus():
    # levels up to 9, g <= 3, weights read up to a constant, and every
    # error path: entry type, order, length and level
    rng = random.Random(15)
    answers, errors = Counter(), Counter()
    for _ in range(500):
        p = _rand_params(rng, r=3, g=3, parts=3, size=3)
        n = rng.randint(0, 9)
        v = _rand_shifted_weight(rng, n)
        cases = [(v,), (v, n), (v, n + 1), (list(v) + [0.5],), (v, float(n))]
        if n:
            k = rng.randrange(n)
            cases.append((v[:k] + (rng.choice([2.5, True, "3", None]),) + v[k + 1:],))
        if n >= 2:
            cases.append((v[::-1] if v[0] != v[-1] else v[:-1] + (v[-1] + 1,),))
        for args in cases:
            got = _outcome(member, p, *args)
            assert got == _outcome(sweep_member, p, *args), (p, args)
            if isinstance(got, bool):
                answers[got] += 1
                assert got == search_member(p, args[0]), (p, args)
            else:
                errors[next(kind for kind, text in _ERROR_KINDS if text in got[1])] += 1
    assert answers[True] > 200 and answers[False] > 200
    assert min(errors[kind] for kind, _ in _ERROR_KINDS) > 100, errors


def test_member_reads_a_weight_up_to_a_constant():
    # vec is a member exactly when vec shifted to end in 0 lies in the
    # level set truncated at v_1 - v_n; the unshifted vec need not
    p = cls_params(1, 0, 0)
    assert member(p, (9, 2, 2)) and (7, 0, 0) in cls_level(p, 3, 7)
    assert (9, 2, 2) not in cls_level(p, 3, 9)
    assert member(p, (-1, -8, -8)) and not member(p, (-1, -7, -8))
    rng = random.Random(16)
    levels = {}
    for _ in range(400):
        p = _rand_params(rng, r=2, g=2, parts=2, size=2)
        n = rng.randint(1, 5)
        if n <= p.r1 + len(p.X) or n <= p.r2 + len(p.Y):
            continue
        v = _rand_shifted_weight(rng, n)
        u = normalize(v)
        if (p, n, u[0]) not in levels:
            levels[p, n, u[0]] = cls_level(p, n, u[0])
        assert member(p, v) == (u in levels[p, n, u[0]]), (p, v)


def test_level_sets_hold_normalized_dominant_vectors():
    # cls_level adds vectors without normalizing, which relies on this
    rng = random.Random(10)
    for _ in range(60):
        p = _rand_params(rng, r=2, g=2, parts=3, size=3)
        n = rng.randint(1, 6)
        if n <= p.r1 + len(p.X) or n <= p.r2 + len(p.Y):
            continue
        for v in cls_level(p, n, rng.randint(0, 3)):
            assert len(v) == n and v[-1] == 0, (p, v)
            assert all(a >= b for a, b in zip(v, v[1:])), (p, v)


def test_basic_level_matches_enumeration():
    for kind in ("T", "L", "R", "E", "Linf", "Rinf", "Einf"):
        for n in range(9):
            for i in range(10):
                for bound in range(4):
                    assert basic_level(kind, i, n, bound) == enumerated_basic_level(
                        kind, i, n, bound
                    ), (kind, i, n, bound)
    assert basic_level("Einf", 0, 0, 3) == {()}
    assert basic_level("Linf", 2, 4, 0) == {(0, 0, 0, 0)}


def test_cls_level_matches_set_products():
    # three parameter tuples with r', r'', g <= 3 in every (level, bound)
    # cell of levels 1..8 and bounds 0..5
    rng = random.Random(13)
    sizes = []
    for n in range(1, 9):
        for bound in range(6):
            drawn = 0
            while drawn < 3:
                p = _rand_params(rng, r=3, g=3, parts=3, size=3)
                if n <= p.r1 + len(p.X) or n <= p.r2 + len(p.Y):
                    continue
                lv = cls_level(p, n, bound)
                assert lv == product_cls_level(p, n, bound), (p, n, bound)
                sizes.append(len(lv))
                drawn += 1
    assert min(sizes) == 1 and max(sizes) > 10_000


def test_q_union_level_matches_set_products():
    rng = random.Random(14)
    for _ in range(40):
        r, g = rng.randint(0, 3), rng.randint(0, 2)
        x, y = _rand_partition(rng), _rand_partition(rng)
        n, bound = rng.randint(3, 5), rng.randint(0, 3)
        expected = set()
        for r1 in range(r + 1):
            p = cls_params(r1, r - r1, g, x, y)
            if n > p.r1 + len(p.X) and n > p.r2 + len(p.Y):
                expected |= product_cls_level(p, n, bound)
        if expected:
            assert q_union_level(r, g, x, y, n, bound) == expected, (r, g, x, y, n, bound)


def _q_union_by_trial(r, g, X, Y, n, bound):
    """q_union_level by trying every split r = r' + r'' and skipping the
    ones whose level is too small: the guess-and-confirm form, kept as
    the oracle of the computed split range."""
    out, found = set(), False
    for r1 in range(r + 1):
        try:
            out |= cls_level(cls_params(r1, r - r1, g, X, Y), n, bound)
            found = True
        except LevelError:
            pass
    if not found:
        raise LevelError(f"level {n} is too small for every split of r={r}")
    return out


def _answer(f, *args):
    try:
        return f(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


# (r, g, X, Y, n, bound) -> the answer: the splits that fit, or the error
Q_UNION_CASES = [
    ((2, 0, (1,), (1,), 3, 1), cls_level(cls_params(1, 1, 0, (1,), (1,)), 3, 1)),
    ((5, 0, (), (), 2, 3), (LevelError, "level 2 is too small for every split of r=5")),
    ((1, 0, (2,), (), 1, 0), (LevelError, "level 1 is too small for every split of r=1")),
    # a malformed X gets its own error, also where no split fits
    ((0, 0, (1, 2), (), 1, 1), (ValueError, "X must be weakly decreasing")),
    ((3, 0, (0,), (), 9, 1), (ValueError, "X must have positive parts")),
    ((1, 0, (), (1.0,), 0, 1), (TypeError, "an entry of Y must be an integer, not 1.0")),
    ((1, 1.5, (), (), 0, 1), (TypeError, "g must be an integer, not 1.5")),
]


def test_q_union_level_takes_the_splits_that_fit():
    for args, want in Q_UNION_CASES:
        assert _answer(q_union_level, *args) == want, args
    # X and Y are read once: an iterator gave the splits after the first
    # an empty X
    assert q_union_level(1, 0, iter((1,)), (), 3, 1) == q_union_level(1, 0, (1,), (), 3, 1)
    parts = [(), (1,), (2, 1), (3, 1, 1), (1, 2), (1.0,)]
    for r, g, x, y, n, bound in itertools.product(
        range(6), range(3), parts, parts, range(6), range(3)
    ):
        args = (r, g, x, y, n, bound)
        assert _answer(q_union_level, *args) == _answer(_q_union_by_trial, *args), args


def test_level_set_peak_memory_stays_near_its_result():
    # the search holds one buffer and its stack beside the members
    # it emits, not a copy of every suffix per coordinate
    tracemalloc.start()
    try:
        lv = cls_level(cls_params(4, 4, 1), 10, 5)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(lv) == 52_920
    assert peak <= 1.3 * kept, (peak, kept)


def test_deep_levels_are_searched_without_recursion():
    assert cls_level(cls_params(0, 0, 0), 5000, 3) == {(0,) * 5000}
    assert cls_level(cls_params(0, 0, 0, (1,)), 3000, 3) == {
        (0,) * 3000,
        (1,) + (0,) * 2999,
    }
    assert len(cls_level(cls_params(1, 1, 0), 2000, 2)) == 9  # 0..2 at each end
    assert member(cls_params(0, 0, 0, (1,)), (1,) + (0,) * 2999)
    # many members, each with a long suffix below its first two entries
    p = cls_params(1, 1, 0)
    deep = cls_level(p, 5000, 5)
    assert deep == {(a + b,) + (b,) * 4998 + (0,) for a in range(6) for b in range(6)}
    assert member(p, (9,) + (3,) * 4998 + (0,))
    assert not member(p, (1, 1) + (0,) * 4998)
    p = cls_params(2, 2, 1)
    wide = cls_level(p, 300, 3)
    assert len(wide) == 29_700
    assert all(member(p, v) for v in sorted(wide)[::2_000])
    assert member(p, (9, 8) + (1,) * 296 + (1, 0))
    assert not member(p, (2,) * 100 + (1,) * 100 + (0,) * 100)


@pytest.mark.parametrize("call", [
    lambda p: member(p, (1,)), lambda p: cls_level(p, 2, 1), lambda p: gamma(p, 2),
], ids=["member", "cls_level", "gamma"])
def test_level_functions_refuse_non_parameters(call):
    """member, cls_level and gamma read a ClsParams; anything else used to
    raise AttributeError on 'r1', and is a TypeError naming it."""
    for value, kind in ((5, "int"), ((0, 0, 0, (), ()), "tuple"), (None, "NoneType")):
        with pytest.raises(TypeError, match=f"^the parameters must be a ClsParams, not {kind}$"):
            call(value)


LEVEL_LIMIT = r"would hold more than \d+ entries \(rsinf\.cls\._LEVEL_MAX_ENTRIES\)$"


def test_level_sets_answer_at_their_limit_and_refuse_past_it(monkeypatch):
    """A level set of w weights at level n answers under a limit of w * n
    entries and refuses under w * n - 1, on sets whose nodes are small,
    large, or of level 2."""
    cls = importlib.import_module("rsinf.cls")
    cases = [(cls_params(1, 1, 0), 5, 2), (cls_params(2, 2, 1), 30, 3),
             (cls_params(0, 0, 9), 4, 0), (cls_params(1, 0, 0), 3, 70),
             (cls_params(1, 0, 0), 2, 5)]
    for (p, n, bound), want in [(case, cls_level(*case)) for case in cases]:
        monkeypatch.setattr(cls, "_LEVEL_MAX_ENTRIES", len(want) * n)
        assert cls_level(p, n, bound) == want
        monkeypatch.setattr(cls, "_LEVEL_MAX_ENTRIES", len(want) * n - 1)
        with pytest.raises(ValueError, match="^the level set " + LEVEL_LIMIT):
            cls_level(p, n, bound)
    monkeypatch.undo()
    # a node with 10^9 + 1 children, or pairs, refuses before they are listed
    for p, n in ((cls_params(0, 0, 10**9), 4), (cls_params(0, 0, 10**9), 3)):
        with pytest.raises(ValueError, match="^the level set " + LEVEL_LIMIT):
            cls_level(p, n, 0)
    # a level and gamma's doubled level are refused before any list is built
    monkeypatch.setattr(cls, "_LEVEL_MAX_ENTRIES", 6)
    assert cls_level(cls_params(0, 0, 0), 6, 0) == {(0,) * 6}
    assert gamma(cls_params(1, 0, 0), 3) == (1, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError, match="^a weight of level 7 " + LEVEL_LIMIT):
        cls_level(cls_params(0, 0, 0), 7, 0)
    with pytest.raises(ValueError, match="^a weight of level 7 " + LEVEL_LIMIT):
        q_union_level(0, 0, (), (), 7, 0)
    with pytest.raises(ValueError, match="^the weight of level 8 " + LEVEL_LIMIT):
        gamma(cls_params(1, 0, 0), 4)
    # the splits share one budget, less the union so far: they hold 3, 4
    # and 3 weights of level 4, the first two a union of 5, so the third
    # needs room for 5 + 3 weights, 32 entries, and 31 refuse; 16 refuse
    # at the second split, since 3 + 4 weights pass 4
    monkeypatch.undo()
    splits = [cls_level(cls_params(r1, 2 - r1, 0), 4, 1) for r1 in range(3)]
    union = frozenset().union(*splits)
    assert list(map(len, splits)) == [3, 4, 3] and len(splits[0] | splits[1]) == len(union) == 5
    for limit in (40, 32):
        monkeypatch.setattr(cls, "_LEVEL_MAX_ENTRIES", limit)
        assert q_union_level(2, 0, (), (), 4, 1) == union
    for limit in (31, 16):
        monkeypatch.setattr(cls, "_LEVEL_MAX_ENTRIES", limit)
        with pytest.raises(ValueError, match="^the splits' level sets " + LEVEL_LIMIT):
            q_union_level(2, 0, (), (), 4, 1)


@pytest.mark.parametrize("code", [
    # one weight, the zero vector: a level set per split is quadratic in
    # the level, minutes at n = 20,000
    "n = 20_000\n"
    "assert q_union_level(n, 0, (), (), n, 0) == {(0,) * n}",
    # n weights, all in the split of the largest r': a level set per
    # split is cubic, 8.6 s at n = 400
    "n = 2_000\n"
    "assert q_union_level(n - 2, 0, (1,), (), n, 0) == {(1,) * k + (0,) * (n - k) for k in range(n)}",
    # one factor per part of X: a loop per factor took 2.1 s at N = 8,000
    "N = 8_000\n"
    "assert gamma(cls_params(0, 0, 0, range(N, 0, -1)), N + 1) == (*range(N, 0, -1), *(0,) * (N + 2))",
    # 7,023 weights, but 287,980 counted split by split, past the budget
    # of 166,666: a budget that counted duplicates refused after 3.3 s
    "from rsinf import cls_level\n"
    "n = 120\n"
    "union = q_union_level(n - 2, 0, (), (), n, 1)\n"
    "assert len(union) == 7_023\n"
    "splits = [cls_level(cls_params(r1, n - 2 - r1, 0), n, 1) for r1 in range(n - 1)]\n"
    "assert union == set().union(*splits) and sum(map(len, splits)) == 287_980",
], ids=["q-union-one-weight", "q-union-one-split", "gamma", "q-union-shared-budget"])
def test_deep_level_repros_answer_in_time(code):
    proc = in_child("from rsinf import cls_params, gamma, q_union_level\n" + code)
    assert proc.returncode == 0, proc.stderr


def test_pair_count_matches_the_emitted_pairs():
    """_pairs counts what the innermost comprehension of _level_set would
    emit, before it is built."""
    pairs = importlib.import_module("rsinf.cls")._pairs
    rng = random.Random(3)
    for _ in range(3000):
        left2, right1 = rng.randint(0, 6), rng.randint(0, 6)
        left1 = left2 + rng.randint(0, 6)
        low, x = rng.randint(-3, 9), rng.randint(-3, 9)
        want = sum(1 for y in range(x, left2 + low + 1)
                   for z in range(y, left1 + min(low, right1 + y) + 1))
        assert pairs(x, low, left1, left2, right1) == want, (x, low, left1, left2, right1)
