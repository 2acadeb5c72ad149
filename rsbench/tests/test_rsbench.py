"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest rsbench/tests -q
"""

from __future__ import annotations

import importlib
import json
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import rsinf  # noqa: E402
import rsinf.cli  # noqa: E402

import common  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _shape(wl, docdir) -> str:
    items = [{k: v for k, v in vars(it).items() if k != "answer"} for it in wl.items]
    argv = [[a.replace(str(docdir), "<docs>") for a in c.argv] for c in wl.cli]
    return repr((items, argv, [c.kind for c in wl.cli]))


SMALL = {
    "words": {"LENGTHS": ((200, 3), (437, 1)), "CLI_RS": 6, "CLI_LONGEST": 80,
              "CLI_SEQ_OF": 3},
    "blocks": {"ITEMS": 8, "CLI_CLASSIFY": 6, "CLI_RS_INF": 4},
    "levels": {"LEVELS": (3, 4), "BOUNDS": (3,), "WEIGHTS": (1, 4), "CLI_LEVEL": 2,
               "CLI_GAMMA": 2, "CLI_MEMBER": 3},
    "interchange": {"LENGTHS": (5, 6), "CANDIDATES": 3,
                    "KINDS": (("plain", 1), ("shifted", 1), ("unreachable", 1)),
                    "CLI_KINDS": (("plain", 1), ("shifted", 1), ("unreachable", 1))},
}


def _runner(wl):
    return run.Runner(wl, rsinf.cli, run.Pace())


@pytest.fixture
def small(monkeypatch, tmp_path):
    """Build a workload with a handful of items instead of the full set."""
    def build(name, seed=5):
        module = sys.modules[run.WORKLOADS[name].__module__]
        for attr, value in SMALL[name].items():
            monkeypatch.setattr(module, attr, value)
        return run.WORKLOADS[name](seed, rsinf, str(tmp_path))

    return build


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_generators_are_deterministic_per_seed(name, tmp_path):
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    first = _shape(run.WORKLOADS[name](7, rsinf, str(dirs[0])), dirs[0])
    again = _shape(run.WORKLOADS[name](7, rsinf, str(dirs[1])), dirs[1])
    other = _shape(run.WORKLOADS[name](8, rsinf, str(dirs[2])), dirs[2])
    assert first == again
    assert first != other


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_workloads_have_enough_samples(name, tmp_path):
    wl = run.WORKLOADS[name](3, rsinf, str(tmp_path))
    assert len(wl.items) >= 100
    assert sum(c.kind == "valid" for c in wl.cli) >= 100
    assert any(c.kind != "valid" for c in wl.cli)


def test_planted_wrong_answer_is_counted(small, monkeypatch):
    wl = small("words")
    real_rs = rsinf.rs
    monkeypatch.setattr(rsinf, "rs", lambda values: real_rs(list(values)[1:]))
    runner = _runner(wl)
    runner.round()
    runner.round()
    assert runner.failures["words"] == 2 * len(wl.items)
    assert runner.attempted == 2 * (len(wl.items) + len(wl.cli))
    assert "boxes" in runner.examples["words"]


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_workload_operations_all_succeed(name, small):
    runner = _runner(small(name))
    runner.round()
    assert runner.failed == 0, runner.examples


def test_defect_probes_report_each_known_defect(tmp_path):
    probes = common.probe_defects(rsinf.cli.main, str(tmp_path))
    assert [pr["defect"] for pr in probes] == [d for d, _, _ in common.DEFECT_PROBES]
    assert all(isinstance(pr["shows"], bool) and pr["outcome"] for pr in probes)


def test_known_defects_are_told_from_documented_behaviour():
    usage = common.Outcome(2, "", exited=True)
    error = common.Outcome(1, '{"error": "bad"}\n')
    assert common.known_defect(["rs", "-3,4"], usage) == "negative-leading-argument"
    assert common.known_defect(["rs", "-3,4"], error) is None
    assert common.known_defect(["seq-of", "t.json"], common.Outcome(None, "", raised="TypeError")) \
        == "seq-of-typeerror"
    assert common.known_defect(["classify", "s.json"], common.Outcome(0, "{}\n")) == "string-for-list"
    assert common.known_defect(["classify", "s.json"], error) is None


def test_pace_scales_a_time_by_the_readings_around_it():
    pace = run.Pace()
    pace.readings = [2 * pace.REFERENCE, 4 * pace.REFERENCE]
    assert pace.scaled(0.3, 0) == pytest.approx(0.1)
    assert pace.scaled(0.3, 1) == pytest.approx(0.075)
    assert 0 < pace.readings[pace.read()] < 1


def test_measure_keeps_every_timed_run(small):
    runner = _runner(small("interchange"))
    run.measure(runner, 1.0)
    assert runner.failed == 0
    assert all(runner.first) and all(runner.timed[:3])
    pace = runner.pace
    want = [statistics.median(pace.scaled(t, i) for t, i in runs or [first])
            for first, runs in zip(runner.first, runner.timed)][: runner.n_api]
    assert runner.latencies()[0] == want
    assert len(runner.fastest()) == runner.n_api


def _bindings() -> dict:
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "rsinf" or mod_name.startswith("rsinf."):
            for k, v in vars(mod).items():
                if callable(v):
                    out[(mod_name, k)] = v
    for cls in (rsinf.FieldElem, rsinf.Tableau):
        out[(cls.__name__, "__post_init__")] = vars(cls)["__post_init__"]
    return out


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_traced_round_restores_every_wrapped_name(name, small):
    wl = small(name)
    runner = _runner(wl)
    runner.round()
    before = _bindings()
    tracer = tracing.Tracer()
    with tracer:
        assert _bindings() != before
        runner.round(tracer)
    assert _bindings() == before
    assert tracer.spans and not tracer.absent
    assert runner.failed == 0, runner.examples
    metrics = tracing.layer_metrics(tracer)
    assert set(metrics) == set(tracing.LAYER_METRICS)


def test_missing_private_seam_is_reported_absent(monkeypatch):
    # rsinf.rs_infinite on the package is the function; fetch the module
    ri = importlib.import_module("rsinf.rs_infinite")
    monkeypatch.delattr(ri, "_extract")
    tracer = tracing.Tracer()
    with tracer:
        pass
    metrics = tracing.layer_metrics(tracer)
    assert tracer.absent == ["_extract"]
    assert "rs_infinite.extractions" not in metrics
    assert "rs_infinite.calls" in metrics


def test_spans_nest_and_self_times_add_up(small):
    wl = small("blocks")
    tracer = tracing.Tracer()
    runner = _runner(wl)
    with tracer:
        runner.round(tracer)
    ids = {s[0] for s in tracer.spans}
    for sid, parent, _, start, end, _ in tracer.spans:
        assert start <= end
        if parent >= 0:
            assert parent in ids
            p = tracer.spans[parent]
            assert p[3] <= start and end <= p[4]
    for calls, outer, total, self_s in tracer.stats.values():
        assert outer <= calls
        assert self_s <= total + 1e-9 or outer < calls


def test_reference_insertion_matches_the_library():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(0, 12)
        vals = [(rng.choice(["0", "0", "1/2", "a"]), rng.randint(-4, 4)) for _ in range(n)]
        lits = [oracles.literal(v) for v in vals]
        assert [oracles.parse_literal(s) for s in lits] == vals
        fam = rsinf.rs(lits)
        want = {oracles.anchor_of(c): rows for c, rows in oracles.insertion(vals).items()}
        assert {t.anchor: [[e.offset for e in r] for r in t.rows] for t in fam} == want
        for i in range(1, n):
            for sh in (False, True):
                assert oracles.admissible(vals, i, sh) == rsinf.admissible(lits, i, shifted=sh)


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_emitted(trace):
    proc = _run(["rsbench/run.py", "--workload", "all", "--seed", "2", "--seconds", "0",
                 "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    declared = SPEC["per_layer" if trace else "end_to_end"]
    want = {f"{w['name']}.{m['name']}": m["unit"] for w in SPEC["workloads"] for m in declared}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_declared_metrics_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    layer = {name: (unit, better) for name, (unit, better, _, _) in tracing.LAYER_METRICS.items()}
    layer[tracing.OVERHEAD_METRIC] = ("fraction", "lower")
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == layer


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "rsbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(["rsbench/run.py", "--workload", "words", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
