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
    """Insert all offsets in order; return rows of indices into the input.

    Entry t of n is packed into the one int key -offset * n + (n - 1 - t),
    the pair key (-offset, -t) in lexicographic order: keys are distinct,
    and among equal offsets the newer entry has the smaller key, so it
    bumps the older one as insert_one does.  One list per row then carries
    both the order and the index, decoded once at the end.
    """
    n = len(offsets)
    rows = []
    for offset, key in zip(offsets, range(n - 1, -1, -1)):
        key -= offset * n
        for row in rows:
            i = bisect_left(row, key)
            if i == len(row):
                row.append(key)
                break
            key, row[i] = row[i], key
        else:
            rows.append([key])
    return [[n - 1 - c % n for c in row] for row in rows]
