"""Self-check of the benchmark: every workload at a tiny size.

Usage, from the root of a checkout:  python3 benchmark/selfcheck.py

Runs each workload untraced and traced for a fraction of a second at a
tiny size, checks that every metric BENCHMARK.json names is reported with
its unit, then feeds each workload's output checks corrupted results and
checks that they fire.  Exits non-zero on the first failure.
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.import_package()

import workloads  # noqa: E402

TINY = {
    "sweep-case1": lambda: workloads.SweepCase1(slots_per_point=64),
    "sim-signal-10ch": lambda: workloads.SimSignal10(slots=256),
    "analytic-dense": lambda: workloads.AnalyticDense(snr_step=1.0, threshold_step=0.01),
}


def expect(condition, what):
    if not condition:
        raise SystemExit(f"selfcheck FAILED: {what}")
    print(f"ok    {what}")


def corrupt_sweep(out):
    lines = out["files"]["csv"].decode("utf-8").splitlines(keepends=True)
    cells = lines[1].split(",")
    cells[2] = "0.5"  # analytic_pl of the first row
    edited = {**out["files"], "csv": "".join([lines[0], ",".join(cells), *lines[2:]]).encode()}
    dropped = {**out["files"], "csv": "".join(lines[:-1]).encode()}
    yield "an edited analytic cell", {**out, "files": edited}
    yield "a missing row", {**out, "files": dropped}
    yield "a non-zero exit code", {**out, "code": 3}


def corrupt_sim(out):
    report = out["report"]
    delivered = report.packets_delivered + 1
    yield "a counter off by one", {"report": replace(report, packets_delivered=delivered)}
    levels = report.battery_level_counts.copy()
    levels[0] += 1
    yield "a battery level count off by one", {
        "report": replace(report, battery_level_counts=levels)}


def corrupt_analytic(out):
    (target, op), *rest = out["points"]
    yield "P_L above 1", {**out, "points": [(target, replace(op, packet_loss=1.5)), *rest]}
    yield "a pf round trip off by 1e-6", {
        **out, "points": [(target, replace(op, pf=op.pf + 1e-6)), *rest]}
    (first, *others) = out["validations"][0]
    yield "a failed validation check", {
        **out, "validations": [[replace(first, passed=False), *others], *out["validations"][1:]]}
    code, stdout, stderr = out["analyze"]["case1"]
    wrong = (code, stdout.replace("0.", "0.9", 1), stderr)
    yield "a wrong analyze row", {**out, "analyze": {**out["analyze"], "case1": wrong}}


CORRUPTIONS = {"sweep-case1": corrupt_sweep, "sim-signal-10ch": corrupt_sim,
               "analytic-dense": corrupt_analytic}


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    expect({w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS) == set(TINY),
           "BENCHMARK.json names the benchmark's workloads")
    for name, make in TINY.items():
        for trace in (0, 1):
            workload = make()
            result, _ = run.run_workload(workload, seed=7, seconds=0.2, trace=trace, setup_runs=1)
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(units == wanted[trace], f"{name} trace {trace}: every metric with its unit")
            expect(all(isinstance(v["value"], float) for v in result["metrics"].values()),
                   f"{name} trace {trace}: every value is a number")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{name} trace {trace}: outputs pass their checks")
        out = workload.collect(workload.execute())
        for what, bad in CORRUPTIONS[name](out):
            attempted, failed, messages = workload.check(bad)
            expect(0 < failed <= attempted and messages, f"{name}: check fires on {what}")
            tally = run.Tally(workload)
            tally.check(out)
            tally.check(bad)
            expect(any("differ from the first pass" in m for m in tally.messages),
                   f"{name}: a pass whose outputs differ is caught ({what})")
    print("selfcheck passed")


if __name__ == "__main__":
    main()
