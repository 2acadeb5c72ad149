import random

import pytest

from rsinf.cls import (
    ClsParams,
    LevelError,
    basic_level,
    cls_level,
    cls_params,
    f_kn,
    factorization,
    gamma,
    member,
    normalize,
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


def test_gamma_fixtures():
    assert gamma(cls_params(1, 0, 0), 2) == (1, 0, 0, 0)
    assert gamma(cls_params(2, 0, 0), 2) == (3, 3, 0, 0)
    assert gamma(cls_params(0, 1, 0), 3) == (1, 1, 1, 1, 1, 0)
    assert gamma(cls_params(0, 0, 1), 2) == (1, 1, 0, 0)
    assert gamma(cls_params(0, 0, 0, X=(2,)), 2) == (2, 0, 0, 0)
    assert len(gamma(cls_params(1, 1, 1, (1,), (2, 1)), 5)) == 10


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
    vectors = [normalize(v) for v in _dominant(3, 3)]
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


def _dominant(n, bound):
    import itertools

    for head in itertools.combinations_with_replacement(range(bound, -1, -1), n - 1):
        yield head + (0,)


def _rand_partition(rng):
    parts = sorted((rng.randint(1, 2) for _ in range(rng.randint(0, 2))), reverse=True)
    return tuple(parts)
