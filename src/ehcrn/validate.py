"""Oracle-equivalence checks runnable from the CLI.

Each check compares a closed form against an independent route (the
numeric stationary distribution of the battery chain, the tail-function
inverse, the chain fixed point).  They are cheap and deterministic; the
CLI maps any failure to a non-zero exit code.
"""

from dataclasses import dataclass, replace

import numpy as np

from ehcrn.analytic import (
    BatteryModel,
    battery_diagonals,
    battery_steady_state,
    battery_transition_matrix,
    birth_death_steady_state,
    false_alarm_prob,
    operating_point,
    outage_prob,
    steady_state_numeric,
    threshold_for_target_pf,
)
from ehcrn.chains import steady_state
from ehcrn.configio import LoadedConfig
from ehcrn.gaussian import q_tail, q_tail_inverse

__all__ = ["CheckResult", "closed_form_vs_numeric", "run_validation"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def closed_form_vs_numeric(instances: int = 200, seed: int = 20240101, max_levels: int = 200):
    """Worst disagreement between the battery closed form and the solver.

    Draws random (L, delta, e_on) instances spanning drift-down, drift-up
    and the balanced ratio (delta == e_on gives the ratio exactly 1),
    solves all their chains in one batched O(L) call of
    :func:`birth_death_steady_state` (diagonals padded to the largest L),
    and returns the worst absolute difference of the outage probability
    and of the full stationary vector from each row's first L entries.
    """
    rng = np.random.default_rng(seed)
    batteries = []
    for i in range(instances):
        levels = int(rng.integers(2, max_levels + 1))
        delta = float(rng.uniform(0.01, 0.99))
        if i % 10 == 0:
            e_on = delta  # ratio exactly 1
        else:
            e_on = float(rng.uniform(0.01, 0.99))
        batteries.append(BatteryModel(levels, delta, e_on))
    width = max((b.levels for b in batteries), default=2)
    down, up = np.ones((instances, width - 1)), np.zeros((instances, width - 1))
    stay = np.zeros((instances, width))
    for k, b in enumerate(batteries):
        down[k, :b.levels - 1], stay[k, :b.levels], up[k, :b.levels - 1] = battery_diagonals(b)
    worst_pi0 = worst_vec = 0.0
    for b, row in zip(batteries, birth_death_steady_state(down, stay, up)):
        worst_pi0 = max(worst_pi0, abs(outage_prob(b) - row[0]))
        worst_vec = max(worst_vec, float(np.max(np.abs(battery_steady_state(b) - row[:b.levels]))))
    return worst_pi0, worst_vec


def run_validation(bundle: LoadedConfig, instances: int = 200) -> list[CheckResult]:
    """Run the oracle-equivalence suite for a loaded configuration."""
    results = []

    worst_pi0, worst_vec = closed_form_vs_numeric(instances=instances)
    results.append(CheckResult(
        "battery closed form vs linear solver "
        f"({instances} random instances)",
        worst_pi0 <= 1e-10 and worst_vec <= 1e-10,
        f"max |outage diff| = {worst_pi0:.3e}, max |vector diff| = {worst_vec:.3e}",
    ))

    op = operating_point(bundle.scenario)
    battery = BatteryModel(bundle.scenario.battery_levels, op.delta, op.e_on)
    numeric = steady_state_numeric(battery_transition_matrix(battery))
    diff = abs(outage_prob(battery) - numeric[0])
    results.append(CheckResult(
        "configured operating point: closed form vs solver",
        diff <= 1e-10,
        f"|outage diff| = {diff:.3e} at delta = {op.delta:.6f}, e_on = {op.e_on:.6f}",
    ))

    worst = 0.0
    det = bundle.scenario.detector
    for target in (0.001, 0.01, 0.05, 0.1, 0.5):
        probe = replace(det, threshold=threshold_for_target_pf(target, det))
        worst = max(worst, abs(false_alarm_prob(probe) - target))
    results.append(CheckResult(
        "threshold-from-target round trip",
        worst <= 1e-9,
        f"max |false-alarm - target| = {worst:.3e}",
    ))

    comp = max(abs(q_tail(x) + q_tail(-x) - 1.0) for x in np.linspace(-8.0, 8.0, 33))
    # p-domain residual: the x-domain round trip is ill-conditioned where
    # p is within a few ulp of 1, so the contract is stated on p.
    ps = [10.0 ** e for e in range(-12, 0)] + [0.25, 0.5, 0.75, 0.99, 0.999999]
    inv = max(abs(q_tail(q_tail_inverse(p)) - p) for p in ps)
    xs = max(abs(q_tail_inverse(q_tail(x)) - x) for x in np.linspace(-4.0, 6.0, 21))
    results.append(CheckResult(
        "Gaussian tail complement and inverse round trip",
        comp <= 1e-12 and inv <= 1e-10 and xs <= 1e-10,
        f"max complement residual = {comp:.3e}, max p-residual = {inv:.3e}, "
        f"max x-residual = {xs:.3e}",
    ))

    worst = 0.0
    for chain in (bundle.scenario.spectrum, bundle.scenario.energy):
        pi = np.array(steady_state(chain))
        mat = np.array([
            [chain.stay_a, 1.0 - chain.stay_a],
            [1.0 - chain.stay_b, chain.stay_b],
        ])
        worst = max(worst, float(np.max(np.abs(pi @ mat - pi))))
    results.append(CheckResult(
        "two-state chain stationary fixed point",
        worst <= 1e-12,
        f"max |pi P - pi| = {worst:.3e}",
    ))
    return results
