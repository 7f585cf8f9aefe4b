"""Benchmark for ehcrn: runs one workload and prints its metrics.

Usage, from the root of a checkout (the package is imported from ./src):

    python3 benchmark/run.py --workload sweep-case1|sim-signal-10ch|analytic-dense \\
        --seed N --seconds S --trace 0|1

The run writes its generated configs from ``--seed``, repeats the
workload's pass for ``--seconds`` seconds (always at least once), checks
every pass's outputs and prints, as the last line of standard output, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics, measured untraced:
``setup_s`` (median over separate processes of start to first result:
import, ``load_config``, first kernel call or closed form), ``campaign_s``
(mean wall time of one pass) and ``peak_rss_mb``; both times are
rescaled to a reference speed, as follows.

On a shared 2-core cloud VM the speed of the same code swings by up to
2x over seconds to minutes, often for a whole run, so raw pass times of
one seed spread by 20-40% from run to run.  A fixed reference job, no
part of ehcrn, is therefore timed before the first and after every
set-up process and pass, and ``campaign_s`` is
``REF_NOMINAL_S * mean(pass wall times) / mean(reference times)``: the
mean pass time at the speed at which the reference job takes
``REF_NOMINAL_S``.  Both means sample the same stretch of time, so the
host's swings cancel.  ``setup_s`` is rescaled the same way, with
medians.  The raw times, the median and tail of the passes, and the
reference times go to the record.

``--trace 1`` alternates untraced passes with traced ones (and, for the
sweep, traced passes at one worker) and reports the per-layer metrics of
the traced passes at the default worker count, plus the tracing
overhead.  Layer times are thread CPU time; sweep point times, emit
time, the pool gain and the tracing overhead are wall time.

Each run also writes ``.bench_out/<workload>-seed<N>-trace<T>-<pid>/``:
``result.json`` (metrics, workload-specific figures, environment, check
messages, known defects) and, when traced, ``spans.jsonl.gz``.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PROBE = Path(__file__).resolve().parent / "probe.py"
SETUP_RUNS = 7
MAX_RUN_S = 120.0  # no pass starts after this, whatever --seconds asks
MAX_SPANS = 400_000
REF_NOMINAL_S = 0.05

E2E_UNITS = {"setup_s": "s", "campaign_s": "s", "peak_rss_mb": "MB"}

# Per-layer figures taken from the spans of one name, in thread CPU time
# so that sweep workers waiting for the interpreter lock do not count:
# (metric, count metric, span name, statistic, scale, unit)
SPAN_METRICS = (
    ("configio.load_ms", "configio.load_calls", "configio.load_config", "median", 1e3, "ms"),
    ("analytic.operating_point_us", "analytic.operating_point_calls",
     "analytic.operating_point", "median", 1e6, "us"),
    ("analytic.threshold_us", "analytic.threshold_calls",
     "analytic.threshold_for_target_pf", "median", 1e6, "us"),
    ("gaussian.q_tail_inverse_us", "gaussian.q_tail_inverse_calls",
     "gaussian.q_tail_inverse", "median", 1e6, "us"),
    ("analytic.steady_state_numeric_ms", "analytic.steady_state_numeric_calls",
     "analytic.steady_state_numeric", "median", 1e3, "ms"),
    ("validate.closed_form_vs_numeric_ms", "validate.closed_form_vs_numeric_calls",
     "validate.closed_form_vs_numeric", "median", 1e3, "ms"),
    ("sweep.overrides_us", "sweep.overrides_calls", "sweep.apply_overrides", "median", 1e6, "us"),
    ("simulate.pool_ms", "simulate.run_simulation_calls", "simulate.run_simulation",
     "mean_self", 1e3, "ms"),
    ("cli.main_self_ms", "cli.main_calls", "cli.main", "mean_self", 1e3, "ms"),
)
DRAWS = (("chains.uniform_ms_per_mslot", "chains.uniform"),
         ("chains.integers_ms_per_mslot", "chains.integers"),
         ("chains.gamma_ms_per_mslot", "chains.gamma"))
LAYER_UNITS = {
    **{m: u for m, _, _, _, _, u in SPAN_METRICS},
    **{c: "count" for _, c, _, _, _, _ in SPAN_METRICS},
    **{m: "ms/Mslot" for m, _ in DRAWS},
    "simulate.kernel_self_ms_per_mslot": "ms/Mslot",
    "simulate.mslots": "Mslot",
    "sweep.points": "count",
    "sweep.point_ms_p50": "ms",
    "sweep.point_ms_tail": "ms",
    "sweep.point_wait_ms_p50": "ms",
    "sweep.point_tail_pct": "%",
    "sweep.pool_gain": "ratio",
    "sweep.emit_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.uncovered_pct": "%",
    "trace.passes": "count",
    "trace.spans": "count",
}


def import_package():
    """Import ehcrn from the checkout's src/ and no other place."""
    if not (SRC / "ehcrn" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no ehcrn package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ehcrn

    if Path(ehcrn.__file__).resolve().parent != (SRC / "ehcrn").resolve():
        raise SystemExit(f"benchmark: imported ehcrn from {ehcrn.__file__}, not from {SRC}")
    return ehcrn


def measure_setup(workload, runs):
    """Wall times of fresh processes from start to their first result, and
    of the reference job run before the first and after each of them."""
    times = []
    refs = [reference_job()]
    for _ in range(runs):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(PROBE), str(SRC), *workload.probe_args()],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - start
                _, err = proc.communicate(timeout=120)
            except BaseException:
                proc.kill()
                raise
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {err.strip()}")
        times.append(elapsed)
        refs.append(reference_job())
    return times, refs


class Tally:
    """Operations attempted and failed over a run's passes, and why."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = self.failed = 0
        self.messages = []
        self.reference = None
        self.known_defects = {}

    def check(self, out):
        attempted, failed, messages = self.workload.check(out)
        fingerprint = self.workload.fingerprint(out)
        if self.reference is None:
            self.reference = fingerprint
        elif fingerprint != self.reference:
            failed = attempted
            messages = messages + ["outputs differ from the first pass of this run"]
        self.attempted += attempted
        self.failed += failed
        self.messages.extend(messages)
        known = getattr(self.workload, "known_defects", None)
        if known is not None:
            self.known_defects = known(out)


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def keep_going(started, seconds, walls, extra=()):
    elapsed = time.perf_counter() - started
    last = walls[-1] if walls else 0.0
    return elapsed < seconds and elapsed + last < MAX_RUN_S and all(extra)


_REF_ARRAY = np.linspace(0.0, 1.0, 1 << 18).reshape(-1, 8)  # 2 MiB


def reference_job():
    """Fixed work shaped like the package's hot paths (an interpreted loop
    over numpy elements, float arithmetic in plain Python, numpy vector
    ops), none of it ehcrn code; returns its wall time as a probe of the
    machine's current speed."""
    start = time.perf_counter()
    rows = _REF_ARRAY
    hits = 0
    for t in range(0, rows.shape[0], 2):
        for c in range(8):
            if rows[t, c] < 0.5:
                hits += 1
    acc = 0.0
    for i in range(60_000):
        acc += math.erfc(i * 1e-5) * 0.5
    x = rows.ravel()
    for _ in range(10):
        x = np.cumsum(x) * 1e-4
    return time.perf_counter() - start


def run_untraced(workload, tally, seconds, setup_runs):
    setup, setup_refs = measure_setup(workload, setup_runs)
    walls = []
    refs = [reference_job()]
    started = time.perf_counter()
    while not walls or keep_going(started, seconds, walls):
        wall, result = timed(workload.execute)
        refs.append(reference_job())
        out = workload.collect(result)
        tally.check(out)
        workload.record(out)
        walls.append(wall)
    metrics = {
        "setup_s": REF_NOMINAL_S * statistics.median(setup) / statistics.median(setup_refs),
        "campaign_s": REF_NOMINAL_S * statistics.fmean(walls) / statistics.fmean(refs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    tail_pct, tail = tail_percentile(walls)
    details = {"setup_s_samples": setup, "setup_reference_s": setup_refs,
               "pass_walls_s": walls, "reference_s": refs,
               "pass_s_median": statistics.median(walls), f"pass_s_p{tail_pct:g}": tail}
    return metrics, {**details, **workload.extras(walls)}


def run_traced(workload, tally, seconds, run_dir):
    from tracing import Recorder, SpanIndex, instrument, restore

    recorder = Recorder()
    kinds = [("untraced", None), ("traced", None)]
    if workload.has_pool:
        kinds.append(("traced-1", 1))
    walls = {kind: [] for kind, _ in kinds}
    pass_ids = {kind: [] for kind, _ in kinds}
    started = time.perf_counter()
    while not walls["traced"] or keep_going(started, seconds, walls["traced"],
                                            [len(recorder.spans) < MAX_SPANS]):
        for kind, workers in kinds:
            if kind == "untraced":
                wall, result = timed(workload.execute)
            else:
                undo = instrument(recorder)
                token = recorder.open()
                recorder.root = token[0]
                try:
                    wall, result = timed(workload.execute, workers)
                finally:
                    pass_ids[kind].append(recorder.close("bench.pass", token))
                    recorder.root = None
                    restore(undo)
            tally.check(workload.collect(result))
            walls[kind].append(wall)
    recorder.write(run_dir / "spans.jsonl.gz")
    index = SpanIndex(recorder.spans, pass_ids["traced"])
    return layer_metrics(index, workload, walls), {"pass_walls_s": walls}


def tail_percentile(values):
    """Highest whole percentile with at least ten values beyond it (nearest rank)."""
    values = sorted(values)
    n = len(values)
    for pct in range(99, 0, -1):
        rank = math.ceil(pct * n / 100)
        if n - rank >= 10:
            return float(pct), values[rank - 1]
    return 100.0, (values[-1] if values else 0.0)


def layer_metrics(index, workload, walls):
    passes = len(index.passes)
    mslots = workload.slots_per_pass() * passes / 1e6

    def per_mslot(seconds):
        return seconds * 1e3 / mslots if mslots else 0.0

    metrics = {}
    for metric, count, name, stat, scale, _ in SPAN_METRICS:
        spans = index.named(name)
        metrics[count] = len(spans)
        if not spans:
            metrics[metric] = 0.0
        elif stat == "median":
            metrics[metric] = statistics.median(s[5] for s in spans) * scale
        else:
            metrics[metric] = sum(index.self_cpu(s) for s in spans) / len(spans) * scale
    for metric, name in DRAWS:
        metrics[metric] = per_mslot(sum(index.cpu(name)))
    metrics["simulate.kernel_self_ms_per_mslot"] = per_mslot(
        sum(index.self_cpu(s) for s in index.named("simulate.run_replication")))
    metrics["simulate.mslots"] = mslots

    # Wall time from here on.  A sweep point is one run_simulation call
    # made by the sweep.
    point_spans = index.named("simulate.run_simulation") if index.named("sweep.run_sweep") else []
    points = [s[4] - s[3] for s in point_spans]
    waits = [s[4] - s[3] - s[5] for s in point_spans]  # off-CPU: lock or core
    tail_pct, tail = tail_percentile(points)
    metrics["sweep.points"] = len(points)
    metrics["sweep.point_ms_p50"] = statistics.median(points) * 1e3 if points else 0.0
    metrics["sweep.point_ms_tail"] = tail * 1e3
    metrics["sweep.point_tail_pct"] = tail_pct if points else 0.0
    metrics["sweep.point_wait_ms_p50"] = statistics.median(waits) * 1e3 if waits else 0.0
    traced = statistics.median(walls["traced"])
    one_worker = walls.get("traced-1")
    metrics["sweep.pool_gain"] = statistics.median(one_worker) / traced if one_worker else 0.0
    metrics["sweep.emit_ms"] = sum(index.durations("sweep.emit")) * 1e3 / passes

    untraced = statistics.median(walls["untraced"])
    metrics["trace.overhead_ms"] = (traced - untraced) * 1e3
    metrics["trace.overhead_pct"] = (traced - untraced) / untraced * 100.0
    metrics["trace.uncovered_pct"] = index.uncovered_share() * 100.0
    metrics["trace.passes"] = passes
    metrics["trace.spans"] = len(index.spans)
    return metrics


def environment(ehcrn, seed):
    try:
        import numba

        backend = f"numba {numba.__version__}"
    except ImportError:
        backend = "python"
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "ehcrn": ehcrn.__version__, "nproc": os.cpu_count(), "kernel_backend": backend,
            "git_commit": commit, "seed": seed}


def run_workload(workload, seed, seconds, trace, setup_runs=SETUP_RUNS):
    """Run one workload; returns (result line dict, full record dict)."""
    ehcrn = import_package()
    run_dir = OUT / f"{workload.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    workload.prepare(run_dir, seed)
    tally = Tally(workload)
    if trace:
        values, details = run_traced(workload, tally, seconds, run_dir)
        units = LAYER_UNITS
    else:
        values, details = run_untraced(workload, tally, seconds, setup_runs)
        units = E2E_UNITS
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    record = {**result, "workload": workload.name, "trace": int(trace), "seconds": seconds,
              "details": details, "known_defects": tally.known_defects,
              "check_messages": tally.messages[:100],
              "environment": environment(ehcrn, seed)}
    (run_dir / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return result, record


def main(argv=None):
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import_package()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be in [0, 2**64)")

    result, record = run_workload(WORKLOADS[args.workload](), args.seed, args.seconds, args.trace)
    for message in record["check_messages"]:
        print(f"check failed: {message}", file=sys.stderr)
    print("# environment " + json.dumps(record["environment"]))
    print("# details " + json.dumps(record["details"]))
    if record["known_defects"]:
        print("# known defects (exit codes) " + json.dumps(record["known_defects"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
