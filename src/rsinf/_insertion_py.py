"""Pure-Python Schensted bumping over integer keys.

A row is one sorted ascending list of keys, and a bump is one
``bisect_left`` and a swap, so a key equal to one in the row bumps that
older one.  ``insert_sequence`` inserts each offset as its negation:
its rows hold strictly decreasing offsets, and an equal offset bumps the
one already in the row.
"""

from bisect import bisect_left
from operator import neg


def insert_one(rows, key):
    """Bump one key through the rows, mutating them in place."""
    for row in rows:
        i = bisect_left(row, key)
        if i == len(row):
            row.append(key)
            return
        key, row[i] = row[i], key
    rows.append([key])


def insert_sequence(offsets):
    """Insert all offsets in order; return rows of offsets."""
    rows = []
    for key in map(neg, offsets):
        insert_one(rows, key)
    return [list(map(neg, row)) for row in rows]
