"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line with the measured margins (run pytest
with -s to see them on success).  Tolerances are fixed here, not tuned:
closed-form-vs-solver agreement at 1e-10, Monte-Carlo agreement at
max(3 binomial sigma, 0.005), chain-level convergence at 3 sigma, and
byte-identical sweep output across separate processes.
"""

import math
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ehcrn.analytic import (
    BatteryModel,
    DetectorConfig,
    Scenario,
    battery_steady_state,
    battery_transition_matrix,
    detector_rates,
    operating_point,
    outage_prob,
    steady_state_numeric,
    threshold_for_target_pf,
)
from ehcrn.chains import RandomStream, TwoStateChain
from ehcrn.configio import SweepDef, load_config
from ehcrn.simulate import SimConfig, measure_signal_rate, run_replication, run_simulation
from ehcrn.sweep import (
    CASE_ONE_GRID_DB,
    CASE_ONE_VARIANTS,
    CASE_TWO_GRID,
    CASE_TWO_VARIANTS,
    SweepSpec,
    apply_overrides,
    run_sweep,
)
from ehcrn.validate import random_batteries

REPO = Path(__file__).resolve().parents[1]
SNR_M15_DB = 10.0 ** (-1.5)

MC_SEED = 42
MC_SLOTS = 1_000_000
MC_REPLICATIONS = 4
MC_FLOOR = 0.005

# Pre-registered Monte-Carlo agreement points: first, middle and last value
# of each default sweep grid.
CASE_ONE_POINTS = (CASE_ONE_GRID_DB[0], CASE_ONE_GRID_DB[6], CASE_ONE_GRID_DB[-1])
CASE_TWO_POINTS = (CASE_TWO_GRID[0], CASE_TWO_GRID[14], CASE_TWO_GRID[-1])


def case_bundle(name):
    return load_config(str(REPO / "configs" / name))


def report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_closed_form_vs_numeric_oracle():
    """Battery closed form equals the linear-solver stationary law."""
    start = time.perf_counter()
    worst_pi0 = worst_vec = 0.0
    branches = {"down": 0, "up": 0, "balanced": 0}
    instances = 0
    # seed 20240101, L from 2 to 200, balanced (delta == e_on) every tenth
    for battery in random_batteries():
        instances += 1
        delta, e_on = battery.access_prob, battery.harvest_prob
        if e_on == delta:
            branches["balanced"] += 1
        elif e_on < delta:
            branches["down"] += 1
        else:
            branches["up"] += 1
        numeric = steady_state_numeric(battery_transition_matrix(battery))
        worst_pi0 = max(worst_pi0, abs(outage_prob(battery) - numeric[0]))
        worst_vec = max(worst_vec, float(np.max(np.abs(battery_steady_state(battery) - numeric))))
    elapsed = time.perf_counter() - start
    assert instances == 200
    assert all(branches[k] > 0 for k in branches), branches
    assert worst_pi0 <= 1e-10, f"outage disagreement {worst_pi0:.3e}"
    assert worst_vec <= 1e-10, f"stationary vector disagreement {worst_vec:.3e}"
    assert elapsed < 5.0, f"oracle sweep took {elapsed:.1f}s"
    report(1, f"200 instances, max |pi0 diff| {worst_pi0:.2e}, "
              f"max |vector diff| {worst_vec:.2e}, ratio branches {branches}, {elapsed:.2f}s")


def test_criterion_2_monte_carlo_agreement():
    """Simulated packet loss matches the closed form at every Table point."""
    start = time.perf_counter()
    sim = SimConfig(slots=MC_SLOTS, replications=MC_REPLICATIONS, seed=MC_SEED)
    campaigns = (
        ("case1", SweepSpec(
            SweepDef(variable="primary_snr_db", grid=CASE_ONE_POINTS, variants=CASE_ONE_VARIANTS),
            base=case_bundle("case1.cfg").scenario, sim=sim)),
        ("case2", SweepSpec(
            SweepDef(variable="normalized_threshold", grid=CASE_TWO_POINTS, variants=CASE_TWO_VARIANTS),
            base=case_bundle("case2.cfg").scenario, sim=sim)),
    )
    worst = ("", 0.0, 0.0)
    checked = 0
    for name, spec in campaigns:
        for row in run_sweep(spec):
            sigma = math.sqrt(row.analytic_pl * (1.0 - row.analytic_pl) / row.slots)
            tolerance = max(3.0 * sigma, MC_FLOOR)
            diff = abs(row.sim_pl - row.analytic_pl)
            label = f"{name}/{row.variant}@{row.sweep_value:g}"
            assert diff <= tolerance, f"{label}: |{diff:.5f}| > {tolerance:.5f}"
            if diff > worst[1]:
                worst = (label, diff, tolerance)
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 18
    assert elapsed < 120.0, f"MC agreement took {elapsed:.1f}s"
    report(2, f"18 points at {MC_SLOTS}x{MC_REPLICATIONS} slots; worst "
              f"|sim-analytic| {worst[1]:.4f} <= {worst[2]:.4f} at {worst[0]}; {elapsed:.1f}s")


def test_criterion_3_signal_level_detector_validation():
    """Sampled energy statistic reproduces the Gaussian-approximation rates."""
    trials = 100_000
    base = DetectorConfig(sensing_duration=0.002, sampling_rate=1e6,
                          noise_power=1.0, threshold=1.0, primary_snr=SNR_M15_DB)
    det_fa = replace(base, threshold=threshold_for_target_pf(0.01, base))
    fa_rate = measure_signal_rate(0, det_fa, RandomStream(MC_SEED, 0), trials)
    fa_tol = max(0.003, 3.0 * math.sqrt(0.01 * 0.99 / trials))
    assert abs(fa_rate - 0.01) <= fa_tol, f"false alarm {fa_rate:.5f} vs 0.01 +/- {fa_tol:.5f}"

    det_pd = base  # threshold at the noise power
    pd_rate = measure_signal_rate(1, det_pd, RandomStream(MC_SEED, 1), trials)
    pd_model = detector_rates(det_pd, "event")[1]
    assert abs(pd_rate - pd_model) <= 0.01, f"detection {pd_rate:.5f} vs {pd_model:.5f} +/- 0.01"
    report(3, f"N=2000, {trials} trials: false alarm {fa_rate:.5f} (target 0.01 +/- {fa_tol:.4f}), "
              f"detection {pd_rate:.5f} (model {pd_model:.5f} +/- 0.01)")


def _analytic_curve(bundle, variable, grid, overrides, target_pf):
    scenario, target = apply_overrides(bundle.scenario, target_pf, overrides)
    values = []
    for v in grid:
        det = scenario.detector
        if variable == "primary_snr_db":
            det = replace(det, primary_snr=10.0 ** (v / 10.0))
            if target is not None:
                det = replace(det, threshold=threshold_for_target_pf(target, det))
        else:
            det = replace(det, threshold=v * det.noise_power)
        values.append(operating_point(replace(scenario, detector=det)).packet_loss)
    return values


def test_criterion_4_trend_reproduction():
    """Loss falls with SNR; threshold sweep dips then saturates."""
    one = case_bundle("case1.cfg")
    for label, overrides in CASE_ONE_VARIANTS:
        curve = _analytic_curve(one, "primary_snr_db", CASE_ONE_GRID_DB, overrides, 0.01)
        diffs = np.diff(curve)
        assert (diffs <= 0.0).all(), f"case1 {label}: increase found {diffs.max():.3e}"

    two = case_bundle("case2.cfg")
    details = []
    for label, overrides in CASE_TWO_VARIANTS:
        curve = _analytic_curve(two, "normalized_threshold", CASE_TWO_GRID, overrides, None)
        arg_min = int(np.argmin(curve))
        assert 0 < arg_min < len(curve) - 1, f"case2 {label}: no interior minimum"
        tail_spread = max(curve[-3:]) - min(curve[-3:])
        assert tail_spread < 1e-4, f"case2 {label}: tail spread {tail_spread:.2e}"
        details.append(f"{label} min@{CASE_TWO_GRID[arg_min]:g} tail {tail_spread:.1e}")
    report(4, "case1 non-increasing (3 variants); case2 " + "; ".join(details))


def test_criterion_5_chain_level_convergence():
    """Battery level transitions and occupancy match the analytic chain.

    The drivers are made slot-to-slot independent (self-transition 0.5 on
    both chains) so the level is exactly the analytic Markov chain and
    per-visit transitions are exact multinomial draws; the detection
    threshold sits at the point where the access probability is exactly
    one half, balancing the chain.
    """
    levels = 5
    snr = SNR_M15_DB
    eps = 2.0 * (1.0 + snr) / (2.0 + snr)  # false alarm + detection = 1
    scenario = Scenario(
        spectrum=TwoStateChain(0.5, 0.5),
        energy=TwoStateChain(0.5, 0.5),
        detector=DetectorConfig(sensing_duration=0.002, sampling_rate=1e6,
                                noise_power=1.0, threshold=eps, primary_snr=snr),
        battery_levels=levels,
        slot_duration=0.1,
    )
    op = operating_point(scenario)
    assert op.delta == pytest.approx(0.5, abs=1e-12)
    battery = BatteryModel(levels, op.delta, op.e_on)
    matrix = battery_transition_matrix(battery)
    stationary = battery_steady_state(battery)

    reps = 8
    per_rep_slots = 125_000
    cfg = SimConfig(slots=per_rep_slots, replications=reps, seed=MC_SEED)
    reports = [run_replication(scenario, cfg, r) for r in range(reps)]

    # transition frequencies: pooled counts, exact binomial sigma per entry
    moves = sum(r.battery_transition_counts for r in reports)
    visits = moves.sum(axis=1)
    worst_z = 0.0
    for l in range(levels):
        for k, dest in ((0, l - 1), (1, l), (2, l + 1)):
            if not 0 <= dest < levels:
                continue
            p = matrix[l, dest]
            if p == 0.0:
                assert moves[l, k] == 0
                continue
            sigma = math.sqrt(p * (1.0 - p) / visits[l])
            z = abs(moves[l, k] / visits[l] - p) / sigma
            worst_z = max(worst_z, z)
            assert z <= 3.0, f"transition {l}->{dest}: z = {z:.2f}"

    # occupancy: across-replication standard error absorbs autocorrelation
    hists = np.array([r.battery_histogram for r in reports])
    mean = hists.mean(axis=0)
    sem = hists.std(axis=0, ddof=1) / math.sqrt(reps)
    worst_hz = 0.0
    for l in range(levels):
        z = abs(mean[l] - stationary[l]) / sem[l]
        worst_hz = max(worst_hz, z)
        assert z <= 3.0, f"occupancy level {l}: z = {z:.2f}"
    report(5, f"L=5, {reps}x{per_rep_slots} slots: worst transition z {worst_z:.2f}, "
              f"worst occupancy z {worst_hz:.2f} (both <= 3)")


def test_criterion_6_sweep_determinism_across_processes(tmp_path):
    """Same seed, two separate CLI processes: byte-identical sweep CSV."""
    cfg_text = (REPO / "configs" / "case1.cfg").read_text()
    cfg_text = cfg_text.replace("slots = 1000000", "slots = 20000")
    cfg_text = cfg_text.replace("replications = 4", "replications = 2")
    cfg_path = tmp_path / "case1_small.cfg"
    cfg_path.write_text(cfg_text)

    outputs = []
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    for run in ("a", "b"):
        out_dir = tmp_path / f"run_{run}"
        proc = subprocess.run(
            [sys.executable, "-m", "ehcrn", "sweep", "--case", "1",
             "--config", str(cfg_path), "--out", str(out_dir)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((out_dir / "case1.csv").read_bytes())
    assert outputs[0] == outputs[1], "CSV differs across processes"
    rows = outputs[0].decode().strip().split("\n")
    assert len(rows) == 1 + len(CASE_ONE_GRID_DB) * len(CASE_ONE_VARIANTS)
    report(6, f"case-1 sweep, two processes: {len(outputs[0])} identical bytes, "
              f"{len(rows) - 1} rows")


def test_criterion_7_multi_channel_invariance():
    """Packet loss does not depend on how many identical channels exist.

    Sensing a uniformly chosen channel leaves the per-slot law of the
    sensed state unchanged for any channel count; what the count does
    change is the temporal correlation of the sensed sequence (hopping
    between independent chains forgets the past faster than following one
    sticky chain).  Two facets are asserted:

    * exact invariance, pairwise within 3 sigma, on a memoryless spectrum
      chain (self-transitions 0.5), where channel count provably has no
      effect at all; and
    * invariance at the Monte-Carlo agreement resolution (0.005) on the
      correlated baseline chain, where the residual pairwise differences
      are the same closed-form approximation bias budgeted in criterion 2,
      redistributed by the faster-mixing sensed sequence.
    """
    channel_counts = (1, 10, 20)
    pairs = [(1, 10), (1, 20), (10, 20)]

    def measure(scenario, channels):
        cfg = SimConfig(slots=250_000, replications=4, seed=MC_SEED,
                        num_pu_channels=channels)
        rep = run_simulation(scenario, cfg)
        rates = np.array(rep.replication_loss_rates)
        return rep.empirical_packet_loss, rates.std(ddof=1) / math.sqrt(len(rates))

    base = case_bundle("case1.cfg").scenario
    memoryless = replace(base, spectrum=TwoStateChain(0.5, 0.5))
    exact = {c: measure(memoryless, c) for c in channel_counts}
    details = []
    for a, b in pairs:
        diff = abs(exact[a][0] - exact[b][0])
        sigma = math.hypot(exact[a][1], exact[b][1])
        assert diff <= 3.0 * sigma, f"memoryless, channels {a} vs {b}: |{diff:.5f}| > 3x{sigma:.5f}"
        details.append(f"{a}v{b} z={diff / sigma:.2f}")

    analytic_pl = operating_point(base).packet_loss
    correlated = {c: measure(base, c)[0] for c in channel_counts}
    for c, value in correlated.items():
        assert abs(value - analytic_pl) <= MC_FLOOR, \
            f"correlated, {c} channels: |{value - analytic_pl:.5f}| > {MC_FLOOR}"
    spread = max(correlated.values()) - min(correlated.values())
    assert spread <= MC_FLOOR, f"correlated spread {spread:.5f} > {MC_FLOOR}"
    report(7, f"memoryless chain exact ({', '.join(details)}); correlated baseline "
              f"spread {spread:.4f} and all within {MC_FLOOR} of the closed form")
