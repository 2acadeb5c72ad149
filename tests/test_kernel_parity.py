"""The compiled insertion kernel and the pure one must agree exactly, and
both with the pair-keyed insertion of tests/helpers.py."""

import inspect
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import pair_insert
from rsinf import _insertion_py, _kernel, rs_finite
from rsinf._insertion_py import insert_one
from rsinf._insertion_py import insert_sequence as pure_insert

compiled_only = pytest.mark.skipif(
    _kernel.BACKEND != "compiled", reason="extension module not built"
)


def test_backend_reports_something_sensible():
    assert _kernel.BACKEND in ("compiled", "pure")


@compiled_only
@given(st.lists(st.integers(min_value=-50, max_value=50), max_size=60))
@settings(max_examples=200, deadline=None)
def test_backends_agree(offsets):
    assert _kernel.insert_sequence(offsets) == pure_insert(offsets)


def _duplicate_heavy(rng, max_len):
    n = rng.randint(0, max_len)
    spread = rng.choice((0, 1, 2, 5, 50))
    return [rng.randint(-spread, spread) for _ in range(n)]


@compiled_only
def test_backends_agree_on_duplicate_heavy_input():
    rng = random.Random(42)
    for _ in range(500):
        offsets = _duplicate_heavy(rng, 200)
        assert _kernel.insert_sequence(offsets) == pure_insert(offsets)


def test_kernel_matches_pair_keyed_insertion():
    # positions arrive in increasing order, so the position tie-break of
    # the pair order only ever says "the older equal entry is bumped"
    rng = random.Random(1961)
    for _ in range(2000):
        offsets = _duplicate_heavy(rng, 60)
        want = pair_insert(offsets, range(1, len(offsets) + 1))
        assert pure_insert(offsets) == want, offsets
        assert _kernel.insert_sequence(offsets) == want, offsets


def test_compiled_source_takes_the_pure_signature():
    # the extension cannot be built without Cython, so its source is read
    # to catch a contract that drifts from the pure kernel's
    src = Path(inspect.getfile(_kernel)).with_name("_insertion.pyx").read_text()
    m = re.search(r"^def insert_sequence\(([^)]*)\):", src, re.M)
    assert m, "the .pyx defines no insertion kernel"
    params = [p.strip() for p in m.group(1).split(",") if p.strip()]
    assert params == list(inspect.signature(pure_insert).parameters)
    assert params == list(inspect.signature(_kernel.insert_sequence).parameters)


def test_huge_offsets_fall_back_to_pure():
    offsets = [10**30, 3, -(10**25), 3, 10**30]
    assert _kernel.insert_sequence(offsets) == pure_insert(offsets)
    assert pure_insert(offsets) == pair_insert(offsets, range(1, 6))


def test_env_override_selects_pure_backend():
    # the child gets a fresh environment, so it is pointed at the directory
    # holding the package imported here, not at whatever PYTHONPATH the
    # caller set; it names the package it loaded on stderr, keeping stdout
    # for the backend alone
    pkg_dir = os.path.dirname(os.path.abspath(_kernel.__file__))
    code = (
        "import sys, rsinf; from rsinf import _kernel; "
        "print(_kernel.BACKEND); print(rsinf.__file__, file=sys.stderr)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": os.path.dirname(pkg_dir),
            "RSINF_PURE": "1",
        },
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "pure"
    assert os.path.samefile(os.path.dirname(out.stderr.strip()), pkg_dir)


def test_bump_prefers_the_older_equal_entry():
    # rows hold input slots; inserting an equal value displaces the old
    # copy, so slot 2 stays in the first row and slot 0 drops out
    assert pure_insert([2, 1, 2]) == [[2, 1], [0]]
    # a strictly larger value bumps the leftmost smaller-or-equal entry
    assert pure_insert([5, 3, 8]) == [[2, 1], [0]]


def test_empty_input():
    assert _kernel.insert_sequence([]) == []
    assert pure_insert([]) == []


def _insert_one_loop(offsets):
    """The kernel as a loop of single insertions, the form rs_trace uses."""
    key_rows, idx_rows = [], []
    for t, offset in enumerate(offsets):
        insert_one(key_rows, idx_rows, offset, t)
    return idx_rows


def _oracle_corpus(rng):
    """Empty and one-entry words, one value repeated 500 times,
    duplicate-heavy words of up to 2,000 entries, and offsets of +-2**70
    among small ones, where the packed keys outgrow 64 bits."""
    big = 2**70
    corpus = [[], [0], [-7], [big], [5] * 500]
    for spread in (0, 1, 2, 5, 50):
        for n in (2, 60, rng.randint(100, 2000)):
            corpus.append([rng.randint(-spread, spread) for _ in range(n)])
    for n in (2, 40, 300):
        corpus.append([rng.choice((big, -big, big - 1, 1 - big, rng.randint(-3, 3)))
                       for _ in range(n)])
    return corpus


def test_packed_kernel_matches_single_insertions_and_pair_keys():
    corpus = _oracle_corpus(random.Random(20261018))
    assert max(map(len, corpus)) > 1000
    for offsets in corpus:
        got = pure_insert(offsets)
        assert got == _insert_one_loop(offsets), offsets
        assert got == pair_insert(offsets, range(1, len(offsets) + 1)), offsets
        assert _kernel.insert_sequence(offsets) == got, offsets
    # one repeated value bumps its older copy down every row
    assert pure_insert([5] * 500) == [[t] for t in range(499, -1, -1)]


def test_only_rs_trace_inserts_one_entry_at_a_time(monkeypatch):
    # kernel.insert_one_calls in the benchmark counts the rs_trace path;
    # the batch kernel bumps inline and never calls insert_one
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return insert_one(*args)

    monkeypatch.setattr(_insertion_py, "insert_one", counted)
    monkeypatch.setattr(rs_finite, "insert_one", counted)
    offsets = [3, 1, 3, 0, 2, 2, 5]
    assert pure_insert(offsets) == _kernel.insert_sequence(offsets)
    word = ["3", "1/2", "a", 1, "3", "a-1", "1/2", 0]
    rs_finite.rs(word)
    rs_finite.j(word)
    assert calls[0] == 0
    steps = rs_finite.rs_trace(word)
    assert calls[0] == len(word) == len(steps)
    assert steps[-1].family == rs_finite.rs(word)
