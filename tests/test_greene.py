"""Greene's theorem as an oracle for the row lengths of rs.

Rows strictly decrease and an equal value bumps the older copy, so the
first row is as long as the longest strictly decreasing subsequence, and
the first k rows together hold as many entries as the largest union of k
strictly decreasing subsequences (Greene 1974).  Neither count below
shares code with the insertion.  The first-row count also gives
block_ideal's r on a truncation of the block, with no insertion at all.
"""

import random
from itertools import combinations

from helpers import oracles, rand_block
from rsinf.rs_finite import rs
from rsinf.rs_infinite import Axis, _first, block_ideal


def largest_decreasing_union(values, k):
    """The largest number of positions covered by k strictly decreasing
    subsequences, by enumerating every subset of positions."""
    n = len(values)
    chains = [
        mask
        for mask in range(1 << n)
        if all(
            values[a] > values[b]
            for a, b in combinations([i for i in range(n) if mask >> i & 1], 2)
        )
    ]
    unions = {0}
    for _ in range(k):
        unions = {u | c for u in unions for c in chains}
    return max(bin(u).count("1") for u in unions)


def shape(values):
    fam = rs(values)
    return fam[0].shape if len(fam) else ()


def test_first_row_is_the_longest_decreasing_subsequence():
    rng = random.Random(1974)
    for _ in range(300):
        n = rng.randint(0, 200)
        spread = rng.choice((1, 3, 10, 50, 1000))
        values = [rng.randint(-spread, spread) for _ in range(n)]
        rows = shape(values)
        assert (rows[0] if rows else 0) == oracles.longest_decreasing(values), values


def test_first_rows_are_the_largest_decreasing_unions():
    rng = random.Random(1961)
    for _ in range(300):
        n = rng.randint(0, 7)
        spread = rng.choice((1, 2, 5))
        values = [rng.randint(-spread, spread) for _ in range(n)]
        rows = shape(values)
        for k in range(1, 4):
            assert sum(rows[:k]) == largest_decreasing_union(values, k), (values, k)


def truncated_rho(block, n):
    """f(p) - p for an integer-valued block at its window positions and
    at n positions of each tail it has, in order of position."""
    axis = block.axis
    first = _first(axis, block.edge, len(block.window))
    left = [block.left_tail.offset] * n if axis is not Axis.POS else []
    right = [block.right_tail.offset] * n if axis is not Axis.NEG else []
    values = left + [e.offset for e in block.window] + right
    return [v - p for p, v in enumerate(values, first - len(left))]


def test_block_ideal_r_is_what_a_truncation_loses_from_its_first_row():
    """block_ideal's r with no insertion: insertion keeps every entry,
    and a long enough truncation of plus_rho(block) has the block's row 1
    as its first row, so r is the number of entries less the longest
    strictly decreasing subsequence.  Checked at two truncations of each
    block, which must agree."""
    rng = random.Random(1)
    for _ in range(1500):
        for axis in (Axis.NEG, Axis.ALL, Axis.POS):
            block = rand_block(rng, axis)
            assert {e.anchor for e in block.window} <= {0}, block
            r = block_ideal(block)[0]
            for n in (40, 80):
                offsets = truncated_rho(block, n)
                assert r == len(offsets) - oracles.longest_decreasing(offsets), (block, n)
