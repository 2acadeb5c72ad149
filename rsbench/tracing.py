"""Per-layer tracing of rsinf from outside the package.

The tracer wraps the functions each module exposes to the next, records a
span (name, start, end, parent) for the coarse ones and only counts and
times the hot leaves, and puts every original back when it is done.

A name bound with ``from ... import`` lives in each importing module, so a
function is patched in every rsinf module that holds it (for example
``rsinf.rs_finite.insert_sequence`` and ``rsinf.cli.rs_infinite``).  The
kernel implementations themselves are left alone: their internal calls
are the kernel's own work.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# (seam, module, attribute, record a span, tag taken from (args, result))
SEAMS = (
    ("kernel", "rsinf._kernel", "insert_sequence", True, lambda a, r: len(a[0])),
    ("insert_one", "rsinf._insertion_py", "insert_one", False, None),
    ("parse_elem", "rsinf.core", "parse_elem", False, None),
    ("elem", "rsinf.core", "elem", False, None),
    ("fieldelem_check", "rsinf.core", "FieldElem.__post_init__", False, None),
    ("tableau_check", "rsinf.core", "Tableau.__post_init__", False, None),
    ("rs", "rsinf.rs_finite", "rs", True, None),
    ("j", "rsinf.rs_finite", "j", True, None),
    ("seq_of", "rsinf.rs_finite", "seq_of", True, None),
    ("rs_trace", "rsinf.rs_finite", "rs_trace", True, None),
    ("connected", "rsinf.rs_finite", "connected", True, None),
    ("joseph_equal", "rsinf.rs_finite", "joseph_equal", True, None),
    ("apply_interchange", "rsinf.rs_finite", "apply_interchange", False, None),
    ("_admissible_here", "rsinf.rs_finite", "_admissible_here", False, None),
    ("rs_infinite", "rsinf.rs_infinite", "rs_infinite", True, None),
    ("_extract", "rsinf.rs_infinite", "_extract", True, None),
    ("block_ideal", "rsinf.rs_infinite", "block_ideal", True, None),
    ("parse_spec", "rsinf.classifier", "parse_spec", True, None),
    ("classify", "rsinf.classifier", "classify", True, None),
    ("cls_level", "rsinf.cls", "cls_level", True, lambda a, r: len(r)),
    ("gamma", "rsinf.cls", "gamma", True, None),
    ("member", "rsinf.cls", "member", True, None),
    ("q_union_level", "rsinf.cls", "q_union_level", True, None),
    ("basic_level", "rsinf.cls", "basic_level", False, None),
    ("_split_linf_rinf", "rsinf.cls", "_split_linf_rinf", False, None),
    # the subcommand of calls that exit 0
    ("cli", "rsinf.cli", "main", True, lambda a, r: a[0][0] if r == 0 else None),
)


def _sites(orig) -> list:
    """(module, name) pairs in the package that bind orig."""
    out = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "rsinf" or mod_name.startswith("rsinf.")):
            continue
        if mod_name.startswith("rsinf._insertion"):
            continue
        for name, value in list(vars(mod).items()):
            if value is orig:
                out.append((mod, name))
    return out


class Tracer:
    """Spans and per-seam totals of one traced pass.

    ``stats[seam]`` is [calls, outermost calls, outermost seconds, self
    seconds]; the self time of a call is its duration minus that of the
    wrapped calls made inside it.  ``spans`` holds (id, parent id, seam,
    start, end, tag) for the seams that record spans.
    """

    def __init__(self):
        self.on = False
        self.stats: dict = {}
        self.spans: list = []
        self.absent: list = []
        self._stack: list = []
        self._depth: dict = {}
        self._patches: list = []

    def install(self):
        for seam, mod_name, attr, record, tag in SEAMS:
            try:
                mod = importlib.import_module(mod_name)
            except ImportError:
                self.absent.append(seam)
                continue
            owner_name, _, name = attr.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name, None)
                orig = vars(owner).get(name) if owner is not None else None
                sites = [(owner, name)] if orig is not None else []
            else:
                orig = getattr(mod, name, None)
                sites = _sites(orig) if orig is not None else []
            if not sites:
                self.absent.append(seam)
                continue
            wrapper = self._wrap(seam, orig, record, tag)
            for obj, site_name in sites:
                self._patches.append((obj, site_name, orig))
                setattr(obj, site_name, wrapper)

    def restore(self):
        self.on = False
        while self._patches:
            obj, name, orig = self._patches.pop()
            setattr(obj, name, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def _wrap(self, seam, fn, record, tag):
        tracer = self
        stack = self._stack
        depth = self._depth
        spans = self.spans
        stats = self.stats.setdefault(seam, [0, 0, 0.0, 0.0])
        depth[seam] = 0
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            top = stack[-1] if stack else None
            parent = top[1] if top is not None else -1
            if record:
                sid = len(spans)
                spans.append(None)
            else:
                sid = parent
            frame = [0.0, sid]
            stack.append(frame)
            d = depth[seam]
            depth[seam] = d + 1
            result = None
            ok = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = clock()
                stack.pop()
                depth[seam] = d
                dur = t1 - t0
                stats[0] += 1
                stats[3] += dur - frame[0]
                if d == 0:
                    stats[1] += 1
                    stats[2] += dur
                if top is not None:
                    top[0] += dur
                if record:
                    spans[sid] = (sid, parent, seam, t0, t1,
                                  tag(args, result) if tag and ok else None)
            return result

        return wrapper

    def write_spans(self, path: str):
        t0 = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for sid, parent, seam, start, end, tag in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": seam,
                                     "start": start - t0, "end": end - t0, "tag": tag}) + "\n")


class _Spans:
    """Ancestry queries over recorded spans."""

    def __init__(self, spans):
        self.spans = spans

    def ancestors(self, span):
        parent = span[1]
        while parent >= 0:
            span = self.spans[parent]
            yield span
            parent = span[1]

    def named(self, seam):
        return [s for s in self.spans if s[2] == seam]

    def count_under(self, seam, ancestor, outermost=False, ancestor_tag=None) -> int:
        n = 0
        for s in self.named(seam):
            anc = list(self.ancestors(s))
            if outermost and any(a[2] == seam for a in anc):
                continue
            if any(a[2] == ancestor and (ancestor_tag is None or a[5] == ancestor_tag)
                   for a in anc):
                n += 1
        return n

    def tag_sum(self, seam, under=None) -> int:
        return sum(
            s[5] for s in self.named(seam)
            if s[5] is not None
            and (under is None or any(a[2] == under for a in self.ancestors(s)))
        )


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def _calls(st, seam):
    return st[seam][0]


def _outer_calls(st, seam):
    return st[seam][1]


def _total(st, seam):
    return st[seam][2]


def _self(st, seam):
    return st[seam][3]


# name -> (unit, better, seams it needs, value from (stats, spans))
LAYER_METRICS = {
    "kernel.calls": ("count", "lower", ("kernel",), lambda st, sp: _calls(st, "kernel")),
    "kernel.entries": ("count", "lower", ("kernel",), lambda st, sp: sp.tag_sum("kernel")),
    "kernel.s": ("s", "lower", ("kernel",), lambda st, sp: _total(st, "kernel")),
    "kernel.entries_per_s": ("1/s", "higher", ("kernel",),
                             lambda st, sp: _ratio(sp.tag_sum("kernel"), _total(st, "kernel"))),
    "kernel.insert_one_calls": ("count", "lower", ("insert_one",),
                                lambda st, sp: _calls(st, "insert_one")),
    "kernel.insert_one_s": ("s", "lower", ("insert_one",), lambda st, sp: _total(st, "insert_one")),
    "core.parse_calls": ("count", "lower", ("parse_elem",), lambda st, sp: _calls(st, "parse_elem")),
    "core.parse_s": ("s", "lower", ("parse_elem",), lambda st, sp: _total(st, "parse_elem")),
    "core.elem_calls": ("count", "lower", ("elem",), lambda st, sp: _calls(st, "elem")),
    "core.fieldelem_checks": ("count", "lower", ("fieldelem_check",),
                              lambda st, sp: _calls(st, "fieldelem_check")),
    "core.fieldelem_check_s": ("s", "lower", ("fieldelem_check",),
                               lambda st, sp: _total(st, "fieldelem_check")),
    "core.tableau_checks": ("count", "lower", ("tableau_check",),
                            lambda st, sp: _calls(st, "tableau_check")),
    "core.tableau_check_s": ("s", "lower", ("tableau_check",),
                             lambda st, sp: _total(st, "tableau_check")),
    "rs_finite.rs_self_s": ("s", "lower", ("rs",), lambda st, sp: _self(st, "rs")),
    "rs_finite.trace_s": ("s", "lower", ("rs_trace",), lambda st, sp: _total(st, "rs_trace")),
    "rs_finite.connected_s": ("s", "lower", ("connected",),
                              lambda st, sp: _total(st, "connected")),
    "rs_finite.bfs_moves": ("count", "lower", ("apply_interchange",),
                            lambda st, sp: _calls(st, "apply_interchange")),
    "rs_finite.admissible_checks": ("count", "lower", ("_admissible_here",),
                                    lambda st, sp: _calls(st, "_admissible_here")),
    "rs_finite.joseph_j_calls": ("count", "lower", ("j", "joseph_equal"),
                                 lambda st, sp: sp.count_under("j", "joseph_equal")),
    "rs_infinite.block_calls": ("count", "lower", ("block_ideal",),
                                lambda st, sp: _calls(st, "block_ideal")),
    "rs_infinite.calls": ("count", "lower", ("rs_infinite",),
                          lambda st, sp: _outer_calls(st, "rs_infinite")),
    "rs_infinite.extractions": ("count", "lower", ("_extract",),
                                lambda st, sp: _calls(st, "_extract")),
    "rs_infinite.s": ("s", "lower", ("rs_infinite",), lambda st, sp: _total(st, "rs_infinite")),
    "rs_infinite.self_s": ("s", "lower", ("rs_infinite",),
                           lambda st, sp: _self(st, "rs_infinite")),
    "rs_infinite.extractions_per_block": (
        "count", "lower", ("_extract", "rs_infinite"),
        lambda st, sp: _ratio(_calls(st, "_extract"), _outer_calls(st, "rs_infinite"))),
    "rs_infinite.window_entries": ("count", "lower", ("kernel", "rs_infinite"),
                                   lambda st, sp: sp.tag_sum("kernel", under="rs_infinite")),
    "classifier.parse_spec_s": ("s", "lower", ("parse_spec",),
                                lambda st, sp: _total(st, "parse_spec")),
    "classifier.classify_calls": ("count", "lower", ("classify",),
                                  lambda st, sp: _calls(st, "classify")),
    "classifier.classify_self_s": ("s", "lower", ("classify",),
                                   lambda st, sp: _self(st, "classify")),
    "classifier.blocks_per_spec": (
        "count", "lower", ("classify", "block_ideal"),
        lambda st, sp: _ratio(sp.count_under("block_ideal", "classify"), _calls(st, "classify"))),
    "cls.level_calls": ("count", "lower", ("cls_level",), lambda st, sp: _calls(st, "cls_level")),
    "cls.level_s": ("s", "lower", ("cls_level",), lambda st, sp: _total(st, "cls_level")),
    "cls.level_size": ("count", "lower", ("cls_level",), lambda st, sp: sp.tag_sum("cls_level")),
    "cls.gamma_s": ("s", "lower", ("gamma",), lambda st, sp: _total(st, "gamma")),
    "cls.member_calls": ("count", "lower", ("member",), lambda st, sp: _calls(st, "member")),
    "cls.member_s": ("s", "lower", ("member",), lambda st, sp: _total(st, "member")),
    "cls.basic_level_calls": ("count", "lower", ("basic_level",),
                              lambda st, sp: _calls(st, "basic_level")),
    "cls.leaf_checks": ("count", "lower", ("_split_linf_rinf",),
                        lambda st, sp: _calls(st, "_split_linf_rinf")),
    "cls.leaf_checks_per_member": (
        "count", "lower", ("_split_linf_rinf", "member"),
        lambda st, sp: _ratio(_calls(st, "_split_linf_rinf"), _calls(st, "member"))),
    "cli.calls": ("count", "lower", ("cli",), lambda st, sp: _calls(st, "cli")),
    "cli.s": ("s", "lower", ("cli",), lambda st, sp: _total(st, "cli")),
    "cli.self_s": ("s", "lower", ("cli",), lambda st, sp: _self(st, "cli")),
    "cli.rs_infinite_per_rs_inf": (
        "count", "lower", ("cli", "rs_infinite"),
        lambda st, sp: _ratio(sp.count_under("rs_infinite", "cli", outermost=True,
                                             ancestor_tag="rs-inf"),
                              sum(1 for s in sp.named("cli") if s[5] == "rs-inf"))),
}

OVERHEAD_METRIC = "trace.overhead_frac"


def layer_metrics(tracer: Tracer) -> dict:
    """Every per-layer metric whose seams were all present."""
    spans = _Spans(tracer.spans)
    out = {}
    for name, (unit, _, seams, value) in LAYER_METRICS.items():
        if any(s in tracer.absent for s in seams):
            continue
        out[name] = {"value": value(tracer.stats, spans), "unit": unit}
    return out
