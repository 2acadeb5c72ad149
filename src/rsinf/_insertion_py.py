"""Pure-Python Schensted bumping over packed integer keys.

Entry t of an n-entry word with offset x is packed into the one int key
(n - 1 - t) - x * n: the pair key (-x, -t) in lexicographic order.  Keys
are distinct, a row keeps them sorted ascending, so its offsets strictly
decrease, and among equal offsets the newer entry has the smaller key, so
it bumps the older one.  A row is one sorted list, a bump is one
``bisect_left`` and a swap, and the index is decoded as n - 1 - key % n.
"""

from bisect import bisect_left


def insert_one(rows, key):
    """Bump one packed key through the rows, mutating them in place."""
    for row in rows:
        i = bisect_left(row, key)
        if i == len(row):
            row.append(key)
            return
        key, row[i] = row[i], key
    rows.append([key])


def insert_sequence(offsets):
    """Insert all offsets in order; return rows of indices into the input."""
    n = len(offsets)
    rows = []
    for offset, key in zip(offsets, range(n - 1, -1, -1)):
        insert_one(rows, key - offset * n)
    return [[n - 1 - c % n for c in row] for row in rows]
