#!/usr/bin/env python3
"""Time each layer of the slot kernel per 2^20-slot block.

Runs ``run_simulation`` on the stock case-1 scenario (configs/case1.cfg)
in four modes -- event sensing on 1 channel, signal sensing on 1 and on
10 channels, and event sensing on 1 channel with L = 2 battery levels,
where the battery touches both ends within most sub-blocks and takes the
kernel's fallback scan -- and ``run_points`` on the 13 points of that
scenario's case-1 SNR grid in a fifth and on the 29 points of the stock
case-2 scenario's threshold grid (configs/case2.cfg) in a sixth (event
sensing, 1 channel: the stock sweeps' batches), one 2^20-slot block per
repeat, and times in each block:

* ``draws``: the RNG calls (spectrum and energy uniforms, channel choice,
  sensing uniforms);
* ``spectrum_chain``: ``kernel.sensed_channel``, the sensed channel's
  path (one ``chain_path`` call on one channel; on several the sort by
  channel, the P^k stays and one ``chain_path`` call over the runs);
* ``energy_chain``: ``kernel.chain_path`` on the energy uniforms (the
  calls outside ``sensed_channel``);
* ``battery_levels``: every ``kernel.battery_levels`` call, the battery
  scan (once for all the points of a sub-block);
* ``verdicts``: ``kernel.verdicts``, every point's busy verdicts;
* ``advance_rest``: the rest of ``kernel.advance``, one call per block
  (its sub-block loop, the tally codes and one ``bincount`` per sub-block
  of the joint tally over (point, channel state, verdict, start level,
  level move));
* ``total``: the whole ``run_simulation`` or ``run_points`` call.

The draws and both chains are shared by the points of a batch; the
verdicts, battery levels and tally are each point's own.
``ms_per_point`` is the median total divided by the number of points.
``battery_per_chains`` is each block's ``battery_levels`` time over its
``spectrum_chain`` + ``energy_chain`` time: the chains do the same work on
both sides of a change to the battery scan, so the ratio, taken within one
block, reads that change against the load of the machine at the time,
which on a shared VM moves the ms of untouched layers by more than 10 %
between runs.  ``chains_per_draws`` is, in the same way, each block's
``spectrum_chain`` + ``energy_chain`` time over its ``draws`` time, which
reads a change to the chain scan against the RNG calls, fixed by the
draw order.

The layers are timed with the thread's CPU time, by wrapping those
functions where the simulator looks them up; the package is not changed.
A wrapped layer called inside another one (``chain_path`` inside
``sensed_channel``) counts towards the outer one only.
One short warm-up run precedes the REPEATS blocks of each mode. The
median and quartiles over the blocks are recorded in ms, with Mslot/s
from the median total.

A ``closed_form`` section times the closed-form layer, which never runs
the kernel, in thread CPU time with the median and quartiles over REPEATS
repeats after one warm-up: ``operating_point`` in µs per call on the stock
case-1 and case-2 scenarios and ``threshold_for_target_pf`` in µs per call
(each repeat averages CALLS calls), and in ms one ``closed_form_vs_numeric``
call (the 200-chain battery certificate), one batched
``birth_death_steady_state`` call on the diagonals of its 200 batteries
(``birth_death_ms``, the solver alone), one ``run_validation`` call on
each stock config and one ``cli.main(["analyze", ...])`` call on each
stock config (``analyze_ms_*``, config load included, stdout captured).
``validate.random_batteries`` builds its 200 instances once per process,
so the certificate and ``run_validation`` are timed with the instances
already built; ``random_batteries_ms`` times that one-off build on its
own, through the uncached ``random_batteries.__wrapped__``.

Usage:
    python scripts/bench_kernel.py --out BENCH.json --label NAME

Each invocation appends one run (label, environment, per-mode numbers) to
the JSON file named by --out, so runs of two source trees can sit side by
side: run the copy of this script inside each tree.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from ehcrn import analytic, cli, kernel, simulate, validate  # noqa: E402
from ehcrn.configio import apply_overrides, load_config  # noqa: E402
from ehcrn.sweep import CASE_ONE_GRID_DB, CASE_TWO_GRID  # noqa: E402

BLOCK = 1 << 20
REPEATS = 9
CALLS = 2000  # calls per repeat of a µs-per-call closed-form figure
# mode -> (config under configs/, sensing mode, channels, (swept key, grid) or None
# for the configured point, overrides of the configured scenario)
MODES = {"event-1ch": ("case1", "event", 1, None, {}),
         "signal-1ch": ("case1", "signal", 1, None, {}),
         "signal-10ch": ("case1", "signal", 10, None, {}),
         "event-1ch-13pt": ("case1", "event", 1, ("primary_snr_db", CASE_ONE_GRID_DB), {}),
         "event-1ch-29pt": ("case2", "event", 1, ("normalized_threshold", CASE_TWO_GRID), {}),
         "event-1ch-L2": ("case1", "event", 1, None, {"levels": 2})}
LAYERS = ("draws", "spectrum_chain", "energy_chain", "battery_levels", "verdicts", "advance_rest",
          "total")
DRAWS = ("random", "integers")


class _Clock:
    """Sums the thread CPU time spent in wrapped calls, by layer name.

    ``advance`` encloses the kernel's layers; any other layer called while
    one of them runs is left to the outer one.
    """

    def __init__(self):
        self.spent = dict.fromkeys(LAYERS[:-1] + ("advance",), 0.0)
        self.inside = None

    def wrap(self, name, fn):
        def timed(*args, **kwargs):
            if self.inside is not None:
                return fn(*args, **kwargs)
            start = time.thread_time()
            if name != "advance":
                self.inside = name
            try:
                return fn(*args, **kwargs)
            finally:
                self.inside = None
                self.spent[name] += time.thread_time() - start
        return timed


class _TimedGenerator:
    def __init__(self, gen, clock):
        self._gen = gen
        self._clock = clock

    def __getattr__(self, attr):
        method = getattr(self._gen, attr)
        return self._clock.wrap("draws", method) if attr in DRAWS else method


def _instrument(clock):
    """Wrap the kernel's layers and the simulator's draws; returns the undo list."""
    base = simulate.RandomStream

    class TimedRandomStream(base):
        @property
        def generator(self):
            return _TimedGenerator(base.generator.fget(self), clock)

    patches = [
        (kernel, "sensed_channel", clock.wrap("spectrum_chain", kernel.sensed_channel)),
        (kernel, "chain_path", clock.wrap("energy_chain", kernel.chain_path)),
        (kernel, "battery_levels", clock.wrap("battery_levels", kernel.battery_levels)),
        (kernel, "verdicts", clock.wrap("verdicts", kernel.verdicts)),
        (kernel, "advance", clock.wrap("advance", kernel.advance)),
        (simulate, "RandomStream", TimedRandomStream),
    ]
    undo = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
    for mod, name, value in patches:
        setattr(mod, name, value)
    return undo


def _block_ms(scenario, detectors, cfg):
    """Per-layer ms of one ``run_points`` call of one block."""
    clock = _Clock()
    undo = _instrument(clock)
    try:
        start = time.thread_time()
        simulate.run_points(scenario, detectors, cfg)
        total = time.thread_time() - start
    finally:
        for mod, name, value in undo:
            setattr(mod, name, value)
    s = clock.spent
    rest = (s.pop("advance") - s["spectrum_chain"] - s["energy_chain"] - s["battery_levels"]
            - s["verdicts"])
    return {**s, "advance_rest": rest, "total": total}


def _quartiles(values, digits):
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(med, digits), "q1": round(q1, digits), "q3": round(q3, digits)}


def measure(config, mode, channels, grid, overrides):
    bundle = load_config(str(ROOT / "configs" / f"{config}.cfg"))
    cfg = replace(bundle.sim, slots=BLOCK, replications=1, sensing_mode=mode,
                  num_pu_channels=channels)
    scenario = apply_overrides(bundle.scenario, None, overrides)[0]
    detectors = [scenario.detector] if grid is None else [
        apply_overrides(scenario, None, {grid[0]: v})[0].detector for v in grid[1]]
    simulate.run_points(scenario, detectors, replace(cfg, slots=2 * kernel.SUB_BLOCK))  # warm-up
    runs = [_block_ms(scenario, detectors, replace(cfg, seed=cfg.seed + i)) for i in range(REPEATS)]
    out = {"points": len(detectors)}
    for layer in LAYERS:
        out[layer] = _quartiles([1e3 * r[layer] for r in runs], 3)
    out["battery_per_chains"] = _quartiles(
        [r["battery_levels"] / (r["spectrum_chain"] + r["energy_chain"]) for r in runs], 4)
    out["chains_per_draws"] = _quartiles(
        [(r["spectrum_chain"] + r["energy_chain"]) / r["draws"] for r in runs], 4)
    out["ms_per_point"] = round(out["total"]["median"] / len(detectors), 3)
    out["mslot_per_s"] = round(BLOCK / 1e3 / out["total"]["median"], 2)
    return out


def _cpu_quartiles(fn, repeats, calls, scale, digits):
    """Quartiles over ``repeats`` of the thread CPU time of ``calls`` calls of
    ``fn``, per call and times ``scale``, after one warm-up call."""
    fn()
    runs = []
    for _ in range(repeats):
        start = time.thread_time()
        for _ in range(calls):
            fn()
        runs.append(scale * (time.thread_time() - start) / calls)
    return _quartiles(runs, digits)


def closed_form(repeats=REPEATS, calls=CALLS):
    """The closed_form section: see the module docstring."""
    bundles = {c: load_config(str(ROOT / "configs" / f"{c}.cfg")) for c in ("case1", "case2")}
    det = bundles["case1"].scenario.detector
    out = {"calls": calls}
    for c, bundle in bundles.items():
        out[f"operating_point_us_{c}"] = _cpu_quartiles(
            lambda s=bundle.scenario: analytic.operating_point(s), repeats, calls, 1e6, 3)
    out["threshold_us"] = _cpu_quartiles(
        lambda: analytic.threshold_for_target_pf(0.01, det), repeats, calls, 1e6, 3)
    out["random_batteries_ms"] = _cpu_quartiles(
        validate.random_batteries.__wrapped__, repeats, 1, 1e3, 3)
    out["closed_form_vs_numeric_ms"] = _cpu_quartiles(
        validate.closed_form_vs_numeric, repeats, 1, 1e3, 3)
    diagonals = analytic.battery_diagonals(validate.random_batteries())
    out["birth_death_ms"] = _cpu_quartiles(
        lambda: analytic.birth_death_steady_state(*diagonals), repeats, 1, 1e3, 3)
    for c, bundle in bundles.items():
        out[f"run_validation_ms_{c}"] = _cpu_quartiles(
            lambda b=bundle: validate.run_validation(b), repeats, 1, 1e3, 3)
    for c in bundles:
        out[f"analyze_ms_{c}"] = _cpu_quartiles(
            lambda c=c: _analyze(str(ROOT / "configs" / f"{c}.cfg")), repeats, 1, 1e3, 3)
    return out


def _analyze(config):
    """One ``ehcrn analyze`` call on ``config``, in process, its stdout discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(["analyze", "--config", config]) != 0:
            raise RuntimeError(f"ehcrn analyze failed on {config}")


def environment():
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "cpu": cpu or platform.processor(), "kernel": "numpy"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON file to append the run to")
    parser.add_argument("--label", required=True, help="name of the measured source tree")
    args = parser.parse_args()

    modes = {}
    for name, spec in MODES.items():
        modes[name] = measure(*spec)
        row = modes[name]
        print(f"{args.label:>10} {name:>14} " + " ".join(
            f"{layer}={row[layer]['median']:.2f}" for layer in LAYERS
        ) + f" ms  battery/chains={row['battery_per_chains']['median']:.3f}"
            f"  chains/draws={row['chains_per_draws']['median']:.3f}"
            f"  {row['ms_per_point']:.2f} ms/point  {row['mslot_per_s']:.2f} Mslot/s", flush=True)
    closed = closed_form()
    print(f"{args.label:>10} {'closed_form':>14} " + " ".join(
        f"{key}={value['median']}" for key, value in closed.items() if key != "calls"), flush=True)

    path = Path(args.out)
    record = json.loads(path.read_text()) if path.exists() else {
        "what": "ms per 2^20-slot block of run_simulation (run_points for a grid mode) "
                "on configs/case1.cfg (case2.cfg for the 29-point mode), thread CPU time "
                "on one core; median and quartiles over the repeats; closed_form: µs per "
                "call or ms per call of the closed-form layer, the same way",
        "runs": [],
    }
    record["runs"].append({"label": args.label, "repeats": REPEATS,
                           "environment": environment(), "modes": modes,
                           "closed_form": closed})
    path.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
