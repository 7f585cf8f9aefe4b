"""Oracle-equivalence checks runnable from the CLI.

Each check compares a closed form against an independent route (the
stationary law of the battery chain, the tail-function inverse, the chain
fixed point).  Every battery law here, of the random instances and of the
configured point, comes from the O(L) Grassmann-Taksar-Heyman solver
:func:`~ehcrn.analytic.birth_death_steady_state`; a battery whose level can
never fall is checked against its limit instead.  The dense solver
:func:`~ehcrn.analytic.steady_state_numeric` is used only by acceptance
criterion 1.  The 200 random batteries are fixed inputs: they are built on
the first call of :func:`random_batteries` and shared by every later call
in the process, while every check itself runs in full each time.  The
checks are cheap and deterministic; the CLI maps any failure to a
non-zero exit code.
"""

import functools
from dataclasses import replace

import numpy as np

from ehcrn.analytic import (
    TARGET_PF_MAX_SAMPLES,
    BatteryModel,
    battery_diagonals,
    battery_steady_state,
    birth_death_steady_state,
    detector_rates,
    operating_point,
    outage_prob,
    threshold_for_target_pf,
)
from ehcrn.chains import frozen, steady_state
from ehcrn.configio import LoadedConfig
from ehcrn.gaussian import q_tail, q_tail_inverse

__all__ = ["CheckResult", "closed_form_vs_numeric", "random_batteries", "run_validation"]

# The random batteries: how many, their generator's seed and their largest L.
INSTANCES = 200
SEED = 20240101
MAX_LEVELS = 200


@frozen
class CheckResult:
    name: str
    passed: bool
    detail: str


@functools.cache
def random_batteries() -> tuple[BatteryModel, ...]:
    """The random batteries of :func:`closed_form_vs_numeric`: drift down, drift
    up and, every tenth, the balanced ratio (delta == e_on gives exactly 1).

    A tuple of frozen models, drawn on the first call and shared by every
    later one; only these fixed inputs are shared, not any result of a check.
    """
    rng = np.random.default_rng(SEED)
    batteries = []
    for i in range(INSTANCES):
        levels = int(rng.integers(2, MAX_LEVELS + 1))
        delta = float(rng.uniform(0.01, 0.99))
        e_on = delta if i % 10 == 0 else float(rng.uniform(0.01, 0.99))
        batteries.append(BatteryModel(levels, delta, e_on))
    return tuple(batteries)


def closed_form_vs_numeric():
    """Worst disagreement between the battery closed form and the solver.

    Builds the diagonals of all :func:`random_batteries` in one batched
    :func:`battery_diagonals` call (padded to the largest L), solves them in
    one batched O(L) call of :func:`birth_death_steady_state`, and returns
    the worst absolute difference of the outage probability and of the
    full stationary vector, all rows of :func:`battery_steady_state` built
    in one call; both are 0 past each row's L.
    """
    batteries = random_batteries()
    numeric = birth_death_steady_state(*battery_diagonals(batteries))
    outage = np.array([outage_prob(b) for b in batteries])
    worst_pi0 = np.abs(outage - numeric[:, 0]).max(initial=0.0)
    worst_vec = np.abs(battery_steady_state(batteries) - numeric).max(initial=0.0)
    return float(worst_pi0), float(worst_vec)


def _configured_outage_diff(battery: BatteryModel) -> float:
    """|outage_prob - pi_0| for one battery, pi_0 from one O(L) solve.

    A battery whose level can never fall (delta == 0 or e_on == 1, a zero
    down entry, which the solver rejects) is checked against its limit:
    pi_0 = 0 when e_on > 0, since level 0 is left and never re-entered,
    and pi_0 = 1 by convention at delta == e_on == 0, where every level
    absorbs.
    """
    down, stay, up = battery_diagonals(battery)
    if down.all():
        pi0 = birth_death_steady_state(down, stay, up)[0]
    else:
        pi0 = float(battery.harvest_prob == 0.0)
    return abs(outage_prob(battery) - pi0)


def run_validation(bundle: LoadedConfig) -> list[CheckResult]:
    """Run the oracle-equivalence suite for a loaded configuration."""
    results = []

    worst_pi0, worst_vec = closed_form_vs_numeric()
    results.append(CheckResult(
        "battery closed form vs linear solver "
        f"({INSTANCES} random instances)",
        worst_pi0 <= 1e-10 and worst_vec <= 1e-10,
        f"max |outage diff| = {worst_pi0:.3e}, max |vector diff| = {worst_vec:.3e}",
    ))

    op = operating_point(bundle.scenario)
    diff = _configured_outage_diff(BatteryModel(bundle.scenario.battery_levels, op.delta, op.e_on))
    results.append(CheckResult(
        "configured operating point: closed form vs solver",
        diff <= 1e-10,
        f"|outage diff| = {diff:.3e} at delta = {op.delta:.6f}, e_on = {op.e_on:.6f}",
    ))

    det = bundle.scenario.detector
    targets = (0.001, 0.01, 0.05, 0.1, 0.5)
    if det.sample_count > TARGET_PF_MAX_SAMPLES:
        # Past the bound no target sets a threshold: the check is that each is refused.
        refused = 0
        for target in targets:
            try:
                threshold_for_target_pf(target, det)
            except ValueError:
                refused += 1
        passed = refused == len(targets)
        detail = (f"{refused} of {len(targets)} targets refused, as N = {det.sample_count} samples "
                  "is above the bound of 2**52")
    else:
        worst = 0.0
        for target in targets:
            probe = replace(det, threshold=threshold_for_target_pf(target, det))
            worst = max(worst, abs(detector_rates(probe, "event")[0] - target))
        passed, detail = worst <= 1e-9, f"max |false-alarm - target| = {worst:.3e}"
    results.append(CheckResult("threshold-from-target round trip", passed, detail))

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
