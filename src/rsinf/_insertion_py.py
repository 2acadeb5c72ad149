"""Pure-Python Schensted bumping over integer offsets.

A row keeps the keys -offset sorted ascending, so its offsets strictly
decrease, and a new key bumps the leftmost entry not smaller than it: an
equal offset displaces the older equal entry.
"""

from bisect import bisect_left


def insert_one(key_rows, idx_rows, offset, idx):
    """Insert one (offset, idx) pair, mutating the row lists in place."""
    key = -offset
    r = 0
    while True:
        if r == len(key_rows):
            key_rows.append([key])
            idx_rows.append([idx])
            return
        row = key_rows[r]
        i = bisect_left(row, key)
        if i == len(row):
            row.append(key)
            idx_rows[r].append(idx)
            return
        key, row[i] = row[i], key
        idx, idx_rows[r][i] = idx_rows[r][i], idx
        r += 1


def insert_sequence(offsets):
    """Insert all offsets in order; return rows of indices into the input."""
    key_rows = []
    idx_rows = []
    for t, offset in enumerate(offsets):
        insert_one(key_rows, idx_rows, offset, t)
    return idx_rows
