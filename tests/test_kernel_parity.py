"""The compiled insertion kernel and the pure one must agree exactly, and
both with the benchmark's insertion oracle and the pair-keyed insertion
of tests/helpers.py.

The compiled kernel is built once per session by the repository's own
setup.py into a temporary directory and loaded from there, so the setup
declaration is tested too and nothing is written under src/; a compiler
that takes gcc's flags builds it with -Wall -Werror.  Its tests skip
only when no C compiler is found."""

import dataclasses
import importlib.util
import inspect
import os
import random
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import oracles, pair_insert, pairs_of, walk
from rsinf import _kernel, rs_finite
from rsinf.core import Tableau, _unchecked_tableau, elem
from rsinf._insertion_py import insert_one
from rsinf._insertion_py import insert_sequence as pure_insert
from rsinf.rs_infinite import Axis, rs_infinite, stably_decreasing

REPO = Path(__file__).resolve().parents[1]


def _build_ext(build_dir, env=None):
    """Run setup.py build_ext into build_dir; return the process and the
    extension files it built.  A compiler that takes gcc's flags builds
    with every -Wall warning an error."""
    env = dict(os.environ if env is None else env)
    if _gnu_flags(_c_compiler(env)):
        env["CFLAGS"] = f"{env.get('CFLAGS', '')} -Wall -Werror".strip()
    out = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(build_dir / "lib"), "--build-temp", str(build_dir / "tmp")],
        cwd=REPO, env=env, capture_output=True, text=True,
    )
    return out, sorted((build_dir / "lib" / "rsinf").glob("_insertion.*"))


def _c_compiler(env=os.environ):
    cc = env.get("CC") or sysconfig.get_config_var("CC") or "cc"
    return shutil.which(shlex.split(cc)[0])


def _gnu_flags(cc):
    """Whether the compiler at path cc takes gcc's warning flags: gcc and
    clang both predefine __GNUC__."""
    if cc is None:
        return False
    out = subprocess.run([cc, "-dM", "-E", "-"], input="", capture_output=True, text=True)
    return out.returncode == 0 and "__GNUC__" in out.stdout


@pytest.fixture(scope="session")
def build(tmp_path_factory):
    """The built extension's path, and what the build added under src/."""
    if _c_compiler() is None:
        pytest.skip("no C compiler found to build rsinf._insertion")
    before = set((REPO / "src").rglob("*"))
    out, built = _build_ext(tmp_path_factory.mktemp("build"))
    assert out.returncode == 0 and len(built) == 1, out.stdout + out.stderr
    if _gnu_flags(_c_compiler()):
        assert "-Werror" in out.stdout, out.stdout
    return built[0], set((REPO / "src").rglob("*")) - before


@pytest.fixture(scope="session")
def built(build):
    """The compiled kernel module, loaded from the build directory."""
    spec = importlib.util.spec_from_file_location("rsinf._insertion", build[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pair_rows(offsets):
    """helpers.pair_insert's rows of indices, each index replaced by the
    offset it points at."""
    return [[offsets[i] for i in row] for row in pair_insert(offsets, range(1, len(offsets) + 1))]


def test_backend_reports_something_sensible():
    assert _kernel.BACKEND in ("compiled", "pure")


@given(st.lists(st.integers(min_value=-50, max_value=50), max_size=60))
@settings(max_examples=200, deadline=None)
def test_backends_agree(built, offsets):
    want = oracles.insert_rows(offsets)
    assert built.insert_sequence(offsets) == pure_insert(offsets) == want == _pair_rows(offsets)


def _duplicate_heavy(rng, max_len):
    n = rng.randint(0, max_len)
    spread = rng.choice((0, 1, 2, 5, 50))
    return [rng.randint(-spread, spread) for _ in range(n)]


def test_backends_agree_on_duplicate_heavy_input(built):
    rng = random.Random(42)
    for _ in range(500):
        offsets = _duplicate_heavy(rng, 200)
        want = oracles.insert_rows(offsets)
        assert built.insert_sequence(offsets) == pure_insert(offsets) == want, offsets
        assert want == _pair_rows(offsets), offsets


def test_kernel_matches_pair_keyed_insertion():
    # positions arrive in increasing order, so the position tie-break of
    # the pair order only ever says "the older equal entry is bumped"
    rng = random.Random(1961)
    for _ in range(2000):
        offsets = _duplicate_heavy(rng, 60)
        want = _pair_rows(offsets)
        assert want == oracles.insert_rows(offsets), offsets
        assert pure_insert(offsets) == want, offsets
        assert _kernel.insert_sequence(offsets) == want, offsets


def test_compiled_kernel_takes_the_pure_signature(built):
    params = list(inspect.signature(built.insert_sequence).parameters)
    assert params == list(inspect.signature(pure_insert).parameters)
    assert params == list(inspect.signature(_kernel.insert_sequence).parameters)


def test_build_writes_nothing_under_src(build):
    assert build[1] == set()


def test_build_without_a_compiler_exits_cleanly(tmp_path):
    # optional=True: a failed compile skips the extension, and the package
    # keeps the pure kernel
    out, built = _build_ext(tmp_path, env={**os.environ, "CC": str(tmp_path / "no-cc")})
    assert out.returncode == 0, out.stdout + out.stderr
    assert built == []


def test_huge_offsets_fall_back_to_pure():
    offsets = [10**30, 3, -(10**25), 3, 10**30]
    assert _kernel.insert_sequence(offsets) == pure_insert(offsets)
    assert pure_insert(offsets) == _pair_rows(offsets) == oracles.insert_rows(offsets)


def test_compiled_kernel_refuses_offsets_outside_64_bits(built, monkeypatch):
    for offsets in ([2**63], [-(2**63) - 1], [3, 2**70, 1], [-(2**70)]):
        with pytest.raises(OverflowError):
            built.insert_sequence(offsets)
    edges = [2**63 - 1, -(2**63), 0, 2**63 - 1, -(2**63)]
    assert built.insert_sequence(edges) == pure_insert(edges) == oracles.insert_rows(edges)
    # _kernel catches the OverflowError and answers with the pure kernel
    monkeypatch.setattr(_kernel, "_impl", built)
    offsets = [10**30, 3, -(10**25), 3, 10**30, 2**70, -(2**70)]
    assert _kernel.insert_sequence(offsets) == pure_insert(offsets)


def _bytecode(pkg_dir):
    """(name, size, mtime) of each file in pkg_dir's __pycache__."""
    cache = os.path.join(pkg_dir, "__pycache__")
    if not os.path.isdir(cache):
        return []
    stats = ((name, os.stat(os.path.join(cache, name))) for name in sorted(os.listdir(cache)))
    return [(name, st.st_size, st.st_mtime_ns) for name, st in stats]


def _child_backend(pkg_dir, **env):
    """BACKEND as a fresh interpreter reports it for the package in pkg_dir.

    The child gets a fresh environment, so it is pointed at the directory
    holding that package, not at whatever PYTHONPATH the caller set; it
    names the package it loaded on stderr, keeping stdout for the backend
    alone.  It writes no bytecode: .pyc files left in a checkout change
    how long a later `import rsinf` takes there."""
    code = (
        "import sys, rsinf; from rsinf import _kernel; "
        "print(_kernel.BACKEND); print(rsinf.__file__, file=sys.stderr)"
    )
    before = _bytecode(pkg_dir)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": os.path.dirname(pkg_dir),
             "PYTHONDONTWRITEBYTECODE": "1", **env},
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    assert os.path.samefile(os.path.dirname(out.stderr.strip()), pkg_dir)
    assert _bytecode(pkg_dir) == before
    return out.stdout.strip()


def test_env_override_selects_pure_backend():
    pkg_dir = os.path.dirname(os.path.abspath(_kernel.__file__))
    assert _child_backend(pkg_dir, RSINF_PURE="1") == "pure"


def test_built_package_selects_compiled_backend(build, tmp_path):
    # a copy of the package holding the built extension imports it, unless
    # RSINF_PURE is set to a value other than the empty string and 0
    pkg_dir = tmp_path / "rsinf"
    shutil.copytree(
        os.path.dirname(os.path.abspath(_kernel.__file__)), pkg_dir,
        ignore=shutil.ignore_patterns("__pycache__", "_insertion.*"),
    )
    shutil.copy(build[0], pkg_dir)
    assert _child_backend(str(pkg_dir)) == "compiled"
    assert _child_backend(str(pkg_dir), RSINF_PURE="1") == "pure"
    # an empty value and 0 leave the override off
    assert _child_backend(str(pkg_dir), RSINF_PURE="") == "compiled"
    assert _child_backend(str(pkg_dir), RSINF_PURE="0") == "compiled"


def test_bump_prefers_the_older_equal_entry():
    # inserting an equal value displaces the copy already in the row, so
    # the first row stays strictly decreasing and the older 2 drops out
    assert pure_insert([2, 1, 2]) == [[2, 1], [2]]
    # a strictly larger value bumps the leftmost smaller-or-equal entry
    assert pure_insert([5, 3, 8]) == [[8, 3], [5]]


def test_empty_input():
    assert _kernel.insert_sequence([]) == []
    assert pure_insert([]) == []


def _oracle_corpus(rng):
    """Empty and one-entry words, one value repeated 500 times,
    duplicate-heavy words of up to 2,000 entries, and offsets of +-2**70
    among small ones, where the compiled kernel overflows."""
    big = 2**70
    corpus = [[], [0], [-7], [big], [5] * 500]
    for spread in (0, 1, 2, 5, 50):
        for n in (2, 60, rng.randint(100, 2000)):
            corpus.append([rng.randint(-spread, spread) for _ in range(n)])
    for n in (2, 40, 300):
        corpus.append([rng.choice((big, -big, big - 1, 1 - big, rng.randint(-3, 3)))
                       for _ in range(n)])
    return corpus


def _check_rs_trace(offsets):
    """rs_trace inserts one entry per step: a step's positions are the
    pair-keyed rows of that prefix, 1-based, and the last family is rs's.
    Each step rebuilds its class, so a trace is quadratic in the length,
    and an independent prefix insertion per step would make it cubic:
    the first 40 steps, the middle one and the last are checked."""
    n = len(offsets)
    steps = rs_finite.rs_trace(offsets)
    assert len(steps) == n
    for k in sorted({*range(1, min(n, 40) + 1), (n + 1) // 2, n} - {0}):
        want = pair_insert(offsets[:k], range(1, k + 1))
        assert steps[k - 1].positions == (
            tuple(tuple(i + 1 for i in row) for row in want),
        ), (offsets, k)
    if n:
        assert steps[-1].family == rs_finite.rs(offsets), offsets


def test_pure_kernel_matches_single_insertions_and_pair_keys():
    corpus = _oracle_corpus(random.Random(20261018))
    assert max(map(len, corpus)) > 1000
    for offsets in corpus:
        got = pure_insert(offsets)
        assert got == oracles.insert_rows(offsets) == _pair_rows(offsets), offsets
        if len(offsets) <= 500:
            _check_rs_trace(offsets)
        assert _kernel.insert_sequence(offsets) == got, offsets
    # one repeated value bumps its older copy down every row
    assert pure_insert([5] * 500) == [[5]] * 500


def test_built_kernel_matches_the_oracle_corpus(built, monkeypatch):
    # offsets of +-2**70 raise in the module, and _kernel falls back
    monkeypatch.setattr(_kernel, "_impl", built)
    for offsets in _oracle_corpus(random.Random(20261018)):
        want = oracles.insert_rows(offsets)
        assert _kernel.insert_sequence(offsets) == want, offsets
        if all(-(2**63) <= x < 2**63 for x in offsets):
            assert built.insert_sequence(offsets) == want, offsets
        else:
            with pytest.raises(OverflowError):
                built.insert_sequence(offsets)


def test_only_rs_trace_inserts_one_entry_at_a_time(monkeypatch):
    # kernel.insert_one_calls in the benchmark counts the rs_trace path:
    # the tracer wraps only rs_finite's binding, and the batch kernel's
    # own calls to insert_one inside _insertion_py are the kernel's work
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return insert_one(*args)

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


def _mixed_words(rng):
    """Seeded words of 0 to 1,000 entries over five integrality classes:
    distinct offsets, duplicate-heavy ones, and offsets of +-2**70, where
    the compiled kernel overflows and the pure one answers."""
    units = [elem(a) for a in ("0", "1/2", "2/3", "a", "-b")]
    big = 2**70
    words = [[], [units[3]]]
    for n in (2, 17, 60, 300, 1000):
        for spread in (0, 1, 3, 4 * n):
            words.append([rng.choice(units).shift(rng.randint(-spread, spread))
                          for _ in range(n)])
        words.append([rng.choice(units).shift(rng.choice((big, -big, big - 1, rng.randint(-3, 3))))
                      for _ in range(n)])
    return words


def _assert_checked(family):
    """Each tableau is a frozen Tableau that the checked constructor
    accepts, and equals and hashes like the one it builds."""
    for t in family:
        assert type(t) is Tableau
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.rows = ()
        ref = Tableau(t.anchor, t.rows)
        assert t == ref and ref == t and hash(t) == hash(ref), t


def _unchecked_tableaux_pass_the_check(monkeypatch, impl):
    """rs, j and every rs_trace step build their tableaux without
    Tableau's check; rebuilt through it, each one is accepted unchanged."""
    monkeypatch.setattr(_kernel, "_impl", impl)
    for vals in _mixed_words(random.Random(20261020)):
        _assert_checked(rs_finite.rs(vals))
        _assert_checked(rs_finite.j(vals))
        if len(vals) <= 60:
            for step in rs_finite.rs_trace(vals):
                _assert_checked(step.family)


def test_unchecked_tableaux_pass_the_check_pure(monkeypatch):
    _unchecked_tableaux_pass_the_check(monkeypatch, None)


def test_unchecked_tableaux_pass_the_check_compiled(monkeypatch, built):
    calls = []

    class Counted:
        @staticmethod
        def insert_sequence(offsets):
            calls.append(len(offsets))
            return built.insert_sequence(offsets)

    _unchecked_tableaux_pass_the_check(monkeypatch, Counted)
    assert calls


def _class_rows(w, shifted=False):
    """The rows rs_finite._class_rows gives each class of w's codes (of
    j's codes when shifted), mapped back from codes to offsets."""
    codes, m, _ = rs_finite._codes(w)
    if shifted:
        codes = rs_finite._rho(codes, m)
    return [[[(x - c) // m for x in row] for row in rows]
            for c, rows in enumerate(rs_finite._class_rows(codes, m))]


def _interchange_answers(words, pairs):
    """The class rows of each word and j-shifted word, and connected
    (plain and shifted) and joseph_equal (k given and omitted) on each
    pair."""
    inserted = [(_class_rows(w), _class_rows(w, True)) for w in words]
    answers = [
        (rs_finite.connected(f, g), rs_finite.connected(f, g, shifted=True),
         rs_finite.joseph_equal(f, g), rs_finite.joseph_equal(f, g, k=k))
        for f, g, k in pairs
    ]
    return inserted, answers


def _recording(built, outcomes):
    """The compiled module as _kernel calls it, appending to outcomes
    whether each call ran compiled or overflowed to the pure kernel."""

    class Recording:
        @staticmethod
        def insert_sequence(offsets):
            try:
                rows = built.insert_sequence(offsets)
            except OverflowError:
                outcomes.append("overflow")
                raise
            outcomes.append("compiled")
            return rows

    return Recording


def test_backends_decide_interchanges_alike(monkeypatch, built):
    # a class holding an offset of +-2**70 overflows the compiled call and
    # falls back to the pure kernel, so the class rows of one word mix
    # rows from both backends
    rng = random.Random(20261021)
    words = _mixed_words(rng)
    pairs = []
    for w in words:
        # connected searches only words short enough to search whole
        f = w[:8]
        for g in (walk(rng, f, False), walk(rng, f, True), rng.sample(f, len(f))):
            pairs.append((f, g, rng.randint(-2, 2)))
        # a shift of a long word: joseph_equal finds k, and no search runs
        k = rng.randint(-3, 3)
        pairs.append((w, [e.shift(k) for e in w], -k))
    monkeypatch.setattr(_kernel, "_impl", None)
    pure = _interchange_answers(words, pairs)

    outcomes = []
    monkeypatch.setattr(_kernel, "_impl", _recording(built, outcomes))
    mixed = 0
    for w in words + [f for f, _, _ in pairs]:
        outcomes.clear()
        _class_rows(w)
        mixed += len(set(outcomes)) == 2
    assert mixed >= 3
    compiled = _interchange_answers(words, pairs)
    assert compiled == pure
    inserted, answers = pure
    for w, (plain, shifted) in zip(words, inserted):
        # classes in order of first appearance on both sides
        assert plain == list(oracles.insertion(pairs_of(w)).values()), w
        assert shifted == list(oracles.shifted_insertion(pairs_of(w)).values()), w
    assert sum(a[0] is not None for a in answers) > 10
    assert sum(a[1] is not None for a in answers) > 10
    assert sum(a[2] for a in answers) > 10


def _blocks(rng):
    """Seeded stably decreasing blocks on all three axes over four
    classes: the window mostly in the laws' class, and the laws placed
    at 0 or at +-2**70, where the compiled kernel overflows on the law
    class and not on the others."""
    units = [elem(a) for a in ("0", "1/2", "a", "-b")]
    blocks = []
    for _ in range(400):
        axis = rng.choice(list(Axis))
        law = rng.choice(units).shift(rng.choice((0, 0, 2**70, -(2**70))))
        window = [(law if rng.random() < 0.7 else rng.choice(units)).shift(rng.randint(-6, 6))
                  for _ in range(rng.randint(0, 12))]
        blocks.append(stably_decreasing(
            axis, window,
            left_law=None if axis is Axis.POS else law.shift(rng.randint(-3, 3)),
            right_law=None if axis is Axis.NEG else law.shift(rng.randint(-8, 8)),
        ))
    return blocks


def _infinite_results(blocks):
    """rs_infinite of each block, after checking that its law tableau
    (the lower rows, in the class of the law the insertion read) and its
    finite tableaux pass Tableau's check."""
    results = []
    for g in blocks:
        res = rs_infinite(g)
        # a POS block is inserted through its mirror, whose left law is
        # the negated right law of the first row
        law = res.first_row.right_law.negate() if res.mirrored else res.first_row.left_law
        if res.lower_rows:
            _assert_checked([_unchecked_tableau(law.anchor, res.lower_rows)])
        _assert_checked(res.finite_tableaux)
        results.append(res)
    return results


def test_backends_insert_infinite_blocks_alike(monkeypatch, built):
    blocks = _blocks(random.Random(20261022))
    monkeypatch.setattr(_kernel, "_impl", None)
    pure = _infinite_results(blocks)
    outcomes = []
    monkeypatch.setattr(_kernel, "_impl", _recording(built, outcomes))
    assert _infinite_results(blocks) == pure
    assert outcomes.count("compiled") > 100 and outcomes.count("overflow") > 50
    for axis in Axis:
        results = [res for g, res in zip(blocks, pure) if g.axis is axis]
        assert sum(bool(res.lower_rows) for res in results) > 40, axis
        assert sum(bool(res.finite_tableaux) for res in results) > 40, axis
