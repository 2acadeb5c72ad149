"""Greene's theorem as an oracle for the row lengths of rs.

Rows strictly decrease and an equal value bumps the older copy, so the
first row is as long as the longest strictly decreasing subsequence, and
the first k rows together hold as many entries as the largest union of k
strictly decreasing subsequences (Greene 1974).  Neither count below
shares code with the insertion.
"""

import random
from bisect import bisect_left
from itertools import combinations

from rsinf.rs_finite import rs


def longest_decreasing(values):
    """Length of the longest strictly decreasing subsequence, by patience
    sorting on the negated values: tails[i] is the least possible last
    entry of a strictly increasing run of length i + 1."""
    tails = []
    for x in values:
        i = bisect_left(tails, -x)
        if i == len(tails):
            tails.append(-x)
        else:
            tails[i] = -x
    return len(tails)


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
        assert (rows[0] if rows else 0) == longest_decreasing(values), values


def test_first_rows_are_the_largest_decreasing_unions():
    rng = random.Random(1961)
    for _ in range(300):
        n = rng.randint(0, 7)
        spread = rng.choice((1, 2, 5))
        values = [rng.randint(-spread, spread) for _ in range(n)]
        rows = shape(values)
        for k in range(1, 4):
            assert sum(rows[:k]) == largest_decreasing_union(values, k), (values, k)
