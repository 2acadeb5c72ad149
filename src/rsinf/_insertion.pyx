# cython: language_level=3
# distutils: language = c++
"""Compiled twin of _insertion_py.insert_sequence for integer inputs."""

from libcpp.vector cimport vector

ctypedef long long i64
ctypedef Py_ssize_t isz


def insert_sequence(offsets):
    """Insert all offsets in order; return rows of input indices."""
    cdef isz n = len(offsets)
    cdef vector[vector[i64]] koff
    cdef vector[vector[isz]] idxs
    cdef i64 off, toff
    cdef isz t, r, lo, hi, mid, m, idx, tidx

    for t in range(n):
        off = offsets[t]
        idx = t
        r = 0
        while True:
            if r == <isz>koff.size():
                koff.push_back(vector[i64]())
                idxs.push_back(vector[isz]())
                koff[r].push_back(off)
                idxs[r].push_back(idx)
                break
            m = <isz>koff[r].size()
            # find the leftmost offset not larger than off; it is the bump
            # target, so an equal offset displaces the older entry
            lo = 0
            hi = m
            while lo < hi:
                mid = (lo + hi) >> 1
                if koff[r][mid] > off:
                    lo = mid + 1
                else:
                    hi = mid
            if lo == m:
                koff[r].push_back(off)
                idxs[r].push_back(idx)
                break
            toff = koff[r][lo]
            tidx = idxs[r][lo]
            koff[r][lo] = off
            idxs[r][lo] = idx
            off = toff
            idx = tidx
            r += 1

    return [[idxs[r][c] for c in range(<isz>idxs[r].size())]
            for r in range(<isz>idxs.size())]
