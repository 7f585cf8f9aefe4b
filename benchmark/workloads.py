"""The benchmark's workloads: generated inputs, one pass, output checks.

Every workload writes its own config files from the stock case-1 and
case-2 parameters with the run's seed, so the program sees only generated
inputs.  A pass is the unit the runner times; ``check`` returns
``(attempted, failed, messages)`` for one pass's outputs, and
``fingerprint`` gives the bytes that must not change between passes of one
run (traced or not, any worker count).

The benchmark calls ehcrn only through module attributes
(``simulate.run_simulation``, ``cli.main``, ...), so the wrappers that
``tracing.instrument`` installs see those calls too.
"""

import contextlib
import csv
import io
import json
import math
import os
import statistics
import time
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from ehcrn import analytic, cli, configio, simulate, sweep, validate

STOCK = {
    "spectrum": {"q_i": "0.5", "q_o": "0.7"},
    "energy": {"p_on": "0.7", "p_off": "0.5"},
    "detector": {"sensing_duration": "0.002", "sampling_rate": "1e6", "noise_power": "1.0",
                 "primary_snr_db": "-15.0", "target_pf": "0.01"},
    "battery": {"levels": "100"},
    "sim": {"slot_duration": "0.1", "slots": "1000000", "replications": "4", "seed": "42",
            "sensing_mode": "event", "initial_battery": "full",
            "initial_states": "steady-draw", "num_pu_channels": "1"},
}
CASE_TWO_CHANGES = {"energy": {"p_on": "0.5", "p_off": "0.7"},
                    "detector": {"target_pf": None, "normalized_threshold": "1.05"}}

# The stock campaigns: case 1 sweeps the SNR (dB) at target_pf, one curve
# per energy chain; case 2 sweeps the normalized threshold, one curve per
# spectrum chain.
CASE_ONE_GRID = tuple(float(v) for v in range(-20, -7))
CASE_ONE_VARIANTS = (("pon0.7-poff0.5", {"p_on": 0.7, "p_off": 0.5}),
                     ("pon0.5-poff0.5", {"p_on": 0.5, "p_off": 0.5}),
                     ("pon0.3-poff0.5", {"p_on": 0.3, "p_off": 0.5}))
CASE_TWO_VARIANTS = (("qo0.7-qi0.5", {"q_o": 0.7, "q_i": 0.5}),
                     ("qo0.5-qi0.5", {"q_o": 0.5, "q_i": 0.5}),
                     ("qo0.3-qi0.5", {"q_o": 0.3, "q_i": 0.5}))
ANALYTIC_COLUMNS = ("analytic_pl", "analytic_pi0", "pf", "pd", "delta", "pi_idle")
OP_FIELDS = ("packet_loss", "outage", "pf", "pd", "delta", "pi_idle")


def write_config(path, seed, changes=()):
    """Write a config file: the stock case-1 values with ``changes``
    applied (a key set to None is dropped) and the run's seed."""
    sections = {name: dict(keys) for name, keys in STOCK.items()}
    for change in changes:
        for section, keys in change.items():
            for key, value in keys.items():
                if value is None:
                    sections[section].pop(key, None)
                else:
                    sections[section][key] = value
    sections["sim"]["seed"] = str(seed)
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in keys.items())
        lines.append("")
    Path(path).write_text("\n".join(lines), encoding="utf-8")
    return str(path)


def point_scenario(scenario, target_pf, variable, value):
    """Scenario of one grid point, resolving the threshold as the campaigns do."""
    det = scenario.detector
    if variable == "primary_snr_db":
        det = replace(det, primary_snr=configio.snr_db_to_linear(value))
        if target_pf is not None:
            det = replace(det, threshold=analytic.threshold_for_target_pf(target_pf, det))
    else:
        det = replace(det, threshold=value * det.noise_power)
    return replace(scenario, detector=det)


def nine_digits(x):
    return float(format(float(x), ".9g"))


def canonical(obj):
    """A JSON-ready copy of a report: dataclasses to dicts, arrays to lists."""
    if is_dataclass(obj):
        return {f.name: canonical(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, (np.integer, np.floating)):
        return obj.item()
    return obj


def _call_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@contextlib.contextmanager
def worker_env(workers):
    """Run with EHCRN_THREADS=workers, or unset (the default count) for None."""
    saved = os.environ.pop("EHCRN_THREADS", None)
    if workers is not None:
        os.environ["EHCRN_THREADS"] = str(workers)
    try:
        yield
    finally:
        os.environ.pop("EHCRN_THREADS", None)
        if saved is not None:
            os.environ["EHCRN_THREADS"] = saved


class SweepCase1:
    """``ehcrn sweep --case 1`` in-process: 39 points, CSV + JSON + plot script."""

    name = "sweep-case1"
    has_pool = True

    def __init__(self, slots_per_point=2048):
        self.slots_per_point = slots_per_point

    def prepare(self, run_dir, seed):
        self.config = write_config(run_dir / "case1.cfg", seed,
                                   [{"sim": {"slots": str(self.slots_per_point)}}])
        self.out_dir = run_dir / "sweep"
        self.first_csv = None
        bundle = configio.load_config(self.config)
        self.slots_per_row = bundle.sim.slots * bundle.sim.replications
        self.expected = {}
        for label, overrides in CASE_ONE_VARIANTS:
            base, target = sweep.apply_overrides(bundle.scenario, bundle.target_pf, overrides)
            for value in CASE_ONE_GRID:
                op = analytic.operating_point(point_scenario(base, target, "primary_snr_db", value))
                self.expected[(label, value)] = [nine_digits(getattr(op, f)) for f in OP_FIELDS]

    def probe_args(self):
        return [self.config, "simulate"]

    def execute(self, workers=None):
        for path in self.out_dir.glob("case1.*"):
            path.unlink()
        with worker_env(workers):
            return _call_cli(["sweep", "--case", "1", "--config", self.config,
                              "--out", str(self.out_dir), "--format", "json", "--plots"])

    def collect(self, result):
        code, _, err = result
        files = {}
        for suffix in ("csv", "json", "gp"):
            path = self.out_dir / f"case1.{suffix}"
            files[suffix] = path.read_bytes() if path.exists() else b""
        return {"code": code, "stderr": err, "files": files}

    def fingerprint(self, out):
        files = out["files"]
        return b"%d\n" % out["code"] + files["csv"] + files["json"] + files["gp"]

    def check(self, out):
        points = len(self.expected)
        if out["code"] != 0:
            return points, points, [f"sweep exited {out['code']}: {out['stderr'].strip()}"]
        rows = list(csv.DictReader(io.StringIO(out["files"]["csv"].decode("utf-8"))))
        messages = []
        if len(rows) != points:
            messages.append(f"CSV has {len(rows)} rows, expected {points}")
        try:
            json_rows = json.loads(out["files"]["json"])
        except ValueError:
            json_rows = None
        if not isinstance(json_rows, list) or len(json_rows) != len(rows):
            messages.append("JSON output does not hold one object per CSV row")
        if not out["files"]["gp"].strip():
            messages.append("plot script is empty")
        if messages:
            return points, points, messages
        failed = 0
        for row, obj in zip(rows, json_rows):
            key = (row["variant"], float(row["sweep_value"]))
            got = [float(row[c]) for c in ANALYTIC_COLUMNS]
            problems = []
            if self.expected.get(key) != got:
                problems.append(f"analytic columns {got} != operating_point "
                                f"{self.expected.get(key)}")
            if int(row["slots"]) != self.slots_per_row:
                problems.append(f"slots {row['slots']} != {self.slots_per_row}")
            if not 0.0 <= float(row["sim_pl"]) <= 1.0:
                problems.append(f"sim_pl {row['sim_pl']} outside [0, 1]")
            if obj.get("variant") != row["variant"] or obj.get("seed") != int(row["seed"]):
                problems.append("JSON row differs from CSV row")
            if problems:
                failed += 1
                messages.append(f"{key}: " + "; ".join(problems))
        missing = set(self.expected) - {(r["variant"], float(r["sweep_value"])) for r in rows}
        failed += len(missing)
        messages.extend(f"{key}: point missing from CSV" for key in sorted(missing))
        return points, failed, messages

    def slots_per_pass(self):
        return len(self.expected) * self.slots_per_row

    def record(self, out):
        if self.first_csv is None:
            self.first_csv = out["files"]["csv"]

    def extras(self, walls):
        """Recorded figures: Mslot/s and the closed form's worst error."""
        worst = None
        for row in csv.DictReader(io.StringIO(self.first_csv.decode("utf-8"))):
            sim, ana, n = float(row["sim_pl"]), float(row["analytic_pl"]), int(row["slots"])
            sigma = math.sqrt(max(ana * (1.0 - ana), 1e-300) / n)
            gap = abs(sim - ana)
            if worst is None or gap > worst["abs"]:
                worst = {"abs": gap, "sigma": gap / sigma, "variant": row["variant"],
                         "snr_db": float(row["sweep_value"]), "sim_pl": sim, "analytic_pl": ana,
                         "slots": n}
        return {"mslots_per_s": self.slots_per_pass() / statistics.median(walls) / 1e6,
                "worst_closed_form_error": worst}


class SimSignal10:
    """One ``run_simulation`` call: signal sensing, 10 channels, one thread."""

    name = "sim-signal-10ch"
    has_pool = False

    def __init__(self, slots=32768):
        self.slots = slots

    def prepare(self, run_dir, seed):
        self.config = write_config(run_dir / "signal10.cfg", seed, [{"sim": {
            "slots": str(self.slots), "sensing_mode": "signal", "num_pu_channels": "10"}}])
        self.bundle = configio.load_config(self.config)

    def probe_args(self):
        return [self.config, "simulate"]

    def execute(self, workers=None):
        return simulate.run_simulation(self.bundle.scenario, self.bundle.sim)

    def collect(self, report):
        return {"report": report}

    def fingerprint(self, out):
        return json.dumps(canonical(out["report"]), sort_keys=True).encode()

    def check(self, out):
        report = out["report"]
        reps = self.bundle.sim.replications
        slots = self.bundle.sim.slots * reps
        messages = []
        partition = (report.packets_delivered + report.packets_lost_outage
                     + report.packets_lost_false_alarm_or_busy + report.packets_collided)
        if report.slots != slots:
            messages.append(f"report.slots {report.slots} != {slots}")
        if partition != slots:
            messages.append(f"delivered + outage + non-access + collided = {partition} != {slots}")
        if int(np.sum(report.battery_level_counts)) != slots:
            messages.append("battery level counts do not sum to the slots")
        if int(np.sum(report.battery_transition_counts)) != slots:
            messages.append("battery transition counts do not sum to the slots")
        return reps, (reps if messages else 0), messages

    def slots_per_pass(self):
        return self.bundle.sim.slots * self.bundle.sim.replications

    def record(self, out):
        pass

    def extras(self, walls):
        return {"mslots_per_s": self.slots_per_pass() / statistics.median(walls) / 1e6}


class AnalyticDense:
    """Closed forms only: a dense grid of both campaigns, ``run_validation``
    on both configs and ``analyze`` on case 1, case 2 and the two boundary
    configs (normalized_threshold 0.6 and 1.4)."""

    name = "analytic-dense"
    has_pool = False

    def __init__(self, snr_step=0.1, threshold_step=0.001):
        self.case_one_grid = tuple(-20.0 + snr_step * k for k in range(round(12 / snr_step) + 1))
        self.case_two_grid = tuple(0.98 + threshold_step * k
                                   for k in range(round(0.14 / threshold_step) + 1))

    def prepare(self, run_dir, seed):
        self.configs = {
            "case1": write_config(run_dir / "case1.cfg", seed),
            "case2": write_config(run_dir / "case2.cfg", seed, [CASE_TWO_CHANGES]),
        }
        self.boundary = {
            f"case2-nt{nt}": write_config(run_dir / f"case2-nt{nt}.cfg", seed, [
                CASE_TWO_CHANGES, {"detector": {"normalized_threshold": nt}}])
            for nt in ("0.6", "1.4")
        }
        self.bundles = {k: configio.load_config(p) for k, p in self.configs.items()}
        self.expected_rows = {}
        for key, bundle in self.bundles.items():
            op = analytic.operating_point(bundle.scenario)
            self.expected_rows[key] = [nine_digits(getattr(op, f)) for f in OP_FIELDS]
        self.point_s = []
        self.validate_s = []

    def probe_args(self):
        return [self.configs["case1"], "analytic"]

    def execute(self, workers=None):
        campaigns = (
            (self.bundles["case1"], CASE_ONE_VARIANTS, "primary_snr_db", self.case_one_grid),
            (self.bundles["case2"], CASE_TWO_VARIANTS, "normalized_threshold", self.case_two_grid),
        )
        points = []
        point_s = []
        for bundle, variants, variable, grid in campaigns:
            for _, overrides in variants:
                scn, target = sweep.apply_overrides(bundle.scenario, bundle.target_pf, overrides)
                for value in grid:
                    t0 = time.perf_counter()
                    op = analytic.operating_point(point_scenario(scn, target, variable, value))
                    point_s.append(time.perf_counter() - t0)
                    points.append((target, op))
        validations = []
        validate_s = []
        for bundle in self.bundles.values():
            t0 = time.perf_counter()
            validations.append(validate.run_validation(bundle))
            validate_s.append(time.perf_counter() - t0)
        analyze = {k: _call_cli(["analyze", "--config", p])
                   for k, p in {**self.configs, **self.boundary}.items()}
        return {"points": points, "point_s": point_s, "validations": validations,
                "validate_s": validate_s, "analyze": analyze}

    def collect(self, result):
        return result

    def fingerprint(self, out):
        ops = [(t, [getattr(op, f) for f in OP_FIELDS]) for t, op in out["points"]]
        checks = [[(c.name, c.passed, c.detail) for c in v] for v in out["validations"]]
        return repr((ops, checks, out["analyze"])).encode()

    def check(self, out):
        attempted = failed = 0
        messages = []
        for target, op in out["points"]:
            attempted += 1
            problems = []
            if not 0.0 <= op.packet_loss <= 1.0:
                problems.append(f"P_L = {op.packet_loss} outside [0, 1]")
            if target is not None and not abs(op.pf - target) <= 1e-9:
                problems.append(f"pf round trip |{op.pf} - {target}| > 1e-9")
            if problems:
                failed += 1
                messages.append("; ".join(problems))
        for results in out["validations"]:
            for res in results:
                attempted += 1
                if not res.passed:
                    failed += 1
                    messages.append(f"validation failed: {res.name}: {res.detail}")
        for key, (code, stdout, stderr) in out["analyze"].items():
            if key in self.boundary and code != 0:
                continue  # a known defect, reported by known_defects()
            attempted += 1
            problem = self._analyze_problem(key, code, stdout, stderr)
            if problem:
                failed += 1
                messages.append(f"analyze {key}: {problem}")
        return attempted, failed, messages

    def _analyze_problem(self, key, code, stdout, stderr):
        if code != 0:
            return f"exit {code}: {stderr.strip()}"
        lines = stdout.strip().splitlines()
        header = lines[0].split(",") if lines else []
        try:
            values = dict(zip(header, (float(v) for v in lines[1].split(","))))
            row = [values[c] for c in ANALYTIC_COLUMNS]
        except (IndexError, KeyError, ValueError):
            return f"unreadable output {stdout!r}"
        if not 0.0 <= row[0] <= 1.0:
            return f"P_L = {row[0]} outside [0, 1]"
        if key in self.expected_rows and row != self.expected_rows[key]:
            return f"row {row} != operating_point {self.expected_rows[key]}"
        return None

    def known_defects(self, out):
        """Boundary configs that ``analyze`` rejects although they are valid."""
        return {key: out["analyze"][key][0] for key in self.boundary if out["analyze"][key][0] != 0}

    def slots_per_pass(self):
        return 0

    def record(self, out):
        self.point_s.extend(out["point_s"])
        self.validate_s.extend(out["validate_s"])
        self.points_per_pass = len(out["points"])

    def extras(self, walls):
        return {"analytic_us_per_point": statistics.median(self.point_s) * 1e6,
                "validate_ms": statistics.median(self.validate_s) * 1e3,
                "points_per_pass": self.points_per_pass}


WORKLOADS = {w.name: w for w in (SweepCase1, SimSignal10, AnalyticDense)}
