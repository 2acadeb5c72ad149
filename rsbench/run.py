"""Benchmark of rsinf: seeded workloads, oracle-checked, end to end and per layer.

    python3 rsbench/run.py --workload words --seed 1 --seconds 10 --trace 0

Workloads: words, blocks, levels, interchange, or all (each in its own
process).  One process, one thread, closed loop: each item starts when
the previous one has finished.  The package is imported from ``src``
with whatever backend its import selects.

The seed fixes the operations: API items and CLI calls.  A run repeats
them for ``--seconds``; the first run of each checks its answer against
the benchmark's oracles, later runs must give the same answer.  An
operation's latency is the median of its later runs, each scaled to a
fixed reference pace of the machine (see ``Pace``).  With
``--trace 1`` the untraced runs take half the time and are followed by
one traced pass over every operation, which yields the per-layer
metrics.  Last, each known defect is probed once, untimed, outside the
workload.

The last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``correct`` is false when any
operation failed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import blocks
import interchange
import levels
import oracles
import tracing
import words
from common import call_cli, cli_failure, probe_defects

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_STARTS = 11  # at least, in a run
SETUP_STARTS_MAX = 16

E2E_UNITS = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "cli_ms_p50": "ms",
    "cli_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import rsinf
t1 = time.perf_counter()
print(repr(t1 - t0), rsinf.__file__)
"""


def _in_src(path) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def setup_start() -> float:
    """Seconds to `import rsinf` in a fresh interpreter, timed inside it."""
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_CODE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    seconds, path = proc.stdout.split()
    if not _in_src(path):
        raise RuntimeError(f"rsinf was imported from {path}, not from {SRC}")
    return float(seconds)


def _beta_cdf(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b), by Lentz's continued
    fraction (Numerical Recipes, betacf)."""
    if x <= 0.0 or x >= 1.0:
        return 0.0 if x <= 0.0 else 1.0
    if x > (a + 1) / (a + b + 2):
        return 1.0 - _beta_cdf(1.0 - x, b, a)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x)) / a
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    f = d
    for m in range(1, 300):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            f *= c * d
        if abs(c * d - 1.0) < 1e-12:
            break
    return front * f


def percentile(samples, q: int) -> float:
    """The q-th percentile by the Harrell-Davis estimator: a Beta-weighted
    mean of all order statistics.  Item costs come in clusters, and a single
    order statistic jumps between clusters from one seed to the next."""
    xs = sorted(samples)
    n = len(xs)
    a, b = q / 100 * (n + 1), (1 - q / 100) * (n + 1)
    cdf = [_beta_cdf(i / n, a, b) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Pace:
    """How fast this machine runs pure Python at the moment.

    A reading is the best of three runs of a fixed 150-entry insertion
    (the benchmark's own code in oracles.py, not rsinf's), in seconds.  On
    a shared 2-core virtual machine this pace switched, every few seconds
    to every half minute, between levels up to twice apart, with or
    without a second busy process beside it, and its faster level drifted
    by a sixth between minutes; the operations' times followed it.
    """

    EVERY = 0.1  # seconds between readings
    REFERENCE = 0.14e-3  # seconds: about the pace of that machine at its faster level

    def __init__(self):
        rng = random.Random(0)
        self.values = [(oracles.INT_CLASS, rng.randint(-50, 50)) for _ in range(150)]
        self.readings: list = []
        self.taken = -math.inf

    def read(self) -> int:
        """Take a reading; its index."""
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            oracles.insertion(self.values)
            times.append(time.perf_counter() - t0)
        self.readings.append(min(times))
        self.taken = time.perf_counter()
        return len(self.readings) - 1

    def current(self) -> int:
        """Index of the latest reading, taking a new one when it is due."""
        if time.perf_counter() - self.taken >= self.EVERY:
            return self.read()
        return len(self.readings) - 1

    def scaled(self, seconds: float, i: int) -> float:
        """`seconds` measured after reading i, at the reference pace: scaled
        by the mean of reading i and the next one, which is taken after the
        measured call has ended."""
        after = self.readings[i + 1] if i + 1 < len(self.readings) else self.readings[i]
        return seconds * self.REFERENCE * 2 / (self.readings[i] + after)


class Runner:
    """Runs the operations of one workload, keeps the failure accounting
    and the timed runs of each operation.

    Operations are the API items, then the CLI calls.  The first time an
    operation runs, its answer is checked with the workload's oracles and
    its digest kept; every later run must give the same digest.
    """

    def __init__(self, workload, cli_module, pace: Pace):
        self.wl = workload
        self.cli = cli_module
        self.pace = pace
        self.n_api = len(workload.items)
        n = self.n_api + len(workload.cli)
        self.ref: list = [None] * n  # (digest, failure) of the verifying run
        self.first: list = [None] * n  # (seconds, reading) of the verifying run
        self.timed: list = [[] for _ in range(n)]  # (seconds, reading) of later runs
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()  # by API workload or CLI command
        self.examples: dict = {}

    def _count(self, failure, where):
        self.attempted += 1
        if failure is None:
            return
        self.failed += 1
        self.failures[where] += 1
        self.examples.setdefault(where, failure)

    def op(self, k: int, tracer=None):
        """Run operation k once: its (seconds, pace reading) and None or
        what went wrong.  Only successful CLI calls keep their time."""
        wl = self.wl
        is_api = k < self.n_api
        reading = self.pace.current()
        if tracer:
            tracer.on = True
        t0 = time.perf_counter()
        if is_api:
            item = wl.items[k]
            try:
                out, exc = wl.run(item), None
            except Exception as e:  # a raised error is a measured failure
                out, exc = None, e
        else:
            case = wl.cli[k - self.n_api]
            res = call_cli(self.cli.main, case.argv)
        t1 = time.perf_counter()
        if tracer:
            tracer.on = False
        if is_api:
            digest = _digest(f"raise:{type(exc).__name__}" if exc else wl.canon(out))
        else:
            digest = _digest(res.canon())
        if self.ref[k] is None:
            try:
                if is_api:
                    failure = f"{wl.name} item raised {type(exc).__name__}: {exc}" if exc else None
                    failure = failure or wl.check(item, out)
                else:
                    failure = cli_failure(case, res)
            except Exception as e:  # noqa: BLE001 - the oracle could not read the answer
                failure = f"oracle could not check the answer: {type(e).__name__}: {e}"
            self.ref[k] = (digest, failure)
        else:
            ref, failure = self.ref[k]
            if digest != ref:
                failure = "answer differs from the verified run"
        if not is_api:
            if failure is not None:
                failure = f"{case.kind}: {failure}"
        self._count(failure, wl.name if is_api else f"cli {case.argv[0]}")
        sample = (t1 - t0, reading) if is_api or failure is None else None
        return sample, failure

    def round(self, tracer=None) -> list:
        """Every operation once, in order; their samples."""
        return [self.op(k, tracer)[0] for k in range(len(self.ref))]

    def latencies(self) -> tuple:
        """Per item and per successful CLI call: the median of its timed
        runs at the reference pace (the verifying run when there is no
        other), in seconds."""
        out = []
        for first, timed in zip(self.first, self.timed):
            runs = timed or ([first] if first else [])
            if runs:
                out.append(statistics.median(self.pace.scaled(t, i) for t, i in runs))
        return out[: self.n_api], out[self.n_api:]

    def fastest(self) -> list:
        """Per item, its fastest run in plain wall-clock seconds."""
        return [min(t for t, _ in (timed or [first]))
                for first, timed in zip(self.first[: self.n_api], self.timed)]

    def digests(self) -> dict:
        return {
            "api": _digest("".join(d for d, _ in self.ref[: self.n_api])),
            "cli": _digest("".join(d for d, _ in self.ref[self.n_api:])),
        }


def measure(runner, seconds: float, between=None) -> None:
    """Each operation once, in order, which verifies the answers and warms
    up; then rounds over all of them in turn for `seconds` from the start,
    the last one cut off at the deadline.  `between` is called between
    operations."""
    end = time.perf_counter() + seconds
    runner.first = runner.round()
    n = len(runner.ref)
    k = 0
    while time.perf_counter() < end:
        sample, _ = runner.op(k)
        if sample:
            runner.timed[k].append(sample)
        k = (k + 1) % n
        if between:
            between()
    runner.pace.read()  # the reading after the last timed call


def _ops_per_s(api_lat) -> float:
    return len(api_lat) / sum(api_lat)


def end_to_end(runner, setup) -> tuple:
    api, cli = runner.latencies()
    values = {
        "ops_per_s": _ops_per_s(api),
        "op_ms_p50": percentile(api, 50) * 1e3,
        "op_ms_p90": percentile(api, 90) * 1e3,
        "cli_ms_p50": percentile(cli, 50) * 1e3 if cli else 0.0,
        "cli_ms_p90": percentile(cli, 90) * 1e3 if cli else 0.0,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    return metrics, {"op": len(api), "cli": len(cli)}


WORKLOADS = {
    "words": words.Words,
    "blocks": blocks.Blocks,
    "levels": levels.Levels,
    "interchange": interchange.Interchange,
}


def run_one(args) -> int:
    setup = []
    if not args.trace:
        setup_start()  # unrecorded, so that byte code is compiled
    sys.path.insert(0, str(SRC))
    import rsinf
    import rsinf.cli

    if not _in_src(rsinf.__file__):
        print(f"rsinf was imported from {rsinf.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    docdir = tempfile.mkdtemp(prefix=f"docs-{args.workload}-", dir=OUT_DIR)
    tracer = None
    try:
        wl = WORKLOADS[args.workload](args.seed, rsinf, docdir)
        pace = Pace()
        runner = Runner(wl, rsinf.cli, pace)
        # The inputs and oracle data stay alive all run; frozen, the cyclic
        # garbage collector no longer walks them during the timed calls
        gc.collect()
        gc.freeze()
        if args.trace:
            measure(runner, args.seconds / 2)
            tracer = tracing.Tracer()
            with tracer:
                traced = runner.round(tracer)
            pace.read()
            metrics = tracing.layer_metrics(tracer)
            traced_api = [pace.scaled(t, i) for t, i in traced[: runner.n_api]]
            overhead = _ops_per_s(runner.latencies()[0]) / _ops_per_s(traced_api) - 1
            metrics[tracing.OVERHEAD_METRIC] = {"value": overhead, "unit": "fraction"}
            samples = {"op": runner.n_api, "cli": sum(map(bool, traced[runner.n_api:]))}
        else:
            # fresh-interpreter starts spread over the run, each at the
            # reference pace like the operations
            last = [-math.inf]

            def timed_start():
                i = pace.read()
                seconds = setup_start()
                pace.read()
                setup.append(pace.scaled(seconds, i))
                last[0] = time.perf_counter()

            def start_when_due():
                if time.perf_counter() - last[0] >= args.seconds / SETUP_STARTS_MAX:
                    timed_start()

            measure(runner, args.seconds, start_when_due)
            while len(setup) < SETUP_STARTS:
                timed_start()
            metrics, samples = end_to_end(runner, setup)
        probes = probe_defects(rsinf.cli.main, docdir)
    finally:
        shutil.rmtree(docdir, ignore_errors=True)

    fail_frac = runner.failed / runner.attempted
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "backend": rsinf.BACKEND,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "items": {"api": len(wl.items), "cli": len(wl.cli)},
        "runs_per_op": runner.attempted / len(runner.ref),
        "pace_ms": {"reference": Pace.REFERENCE * 1e3, "readings": len(pace.readings),
                    "min": min(pace.readings) * 1e3,
                    "median": statistics.median(pace.readings) * 1e3,
                    "max": max(pace.readings) * 1e3},
        "wall_clock_ops_per_s": _ops_per_s(runner.fastest()),
        "samples": samples,
        "digests": runner.digests(),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "fail_frac": fail_frac,
        "failures": dict(runner.failures),
        "failure_examples": runner.examples,
        "setup_starts": len(setup),
        "defect_probes": probes,
        "absent_seams": tracer.absent if tracer else [],
        "metrics": metrics,
    }
    stem = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer:
        tracer.write_spans(OUT_DIR / f"{stem}.spans.jsonl")

    print(f"workload {args.workload}  seed {args.seed}  backend {rsinf.BACKEND}  "
          f"python {record['python']}  nproc {record['nproc']}  "
          f"items {len(wl.items)} api + {len(wl.cli)} cli  runs per op "
          f"{record['runs_per_op']:.1f}  samples {samples['op']} op / {samples['cli']} cli")
    pm = record["pace_ms"]
    print(f"  pace {pm['median']:.4f} ms median of {pm['readings']} readings "
          f"({pm['min']:.4f}-{pm['max']:.4f}; reference {pm['reference']:.2f})  "
          f"items/s by fastest wall-clock runs {record['wall_clock_ops_per_s']:.4g}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'fail_frac':34s} {fail_frac:14.6g} fraction "
          f"({runner.failed}/{runner.attempted}: {dict(runner.failures)})")
    for pr in probes:
        print(f"  known defect {pr['defect']:26s} {'shows' if pr['shows'] else 'GONE '}  "
              f"{' '.join(pr['argv'])} -> {pr['outcome'][:60]}")
    print(f"  digests api {record['digests']['api'][:16]} cli {record['digests']['cli'][:16]}")
    print(f"  record {OUT_DIR.name}/{stem}.json")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so peak_rss_mb is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        *lines, last = proc.stdout.splitlines()
        print("\n".join(lines))
        result = json.loads(last)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "rsinf" / "__init__.py").is_file():
        print(f"no rsinf sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
