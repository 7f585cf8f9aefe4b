"""Slot-based Monte-Carlo simulation of the full link.

Each slot: (1) every licensed channel and the energy-arrival chain take
one Markov step; (2) the node senses one channel (chosen uniformly when
there are several); (3) on a "idle" verdict it transmits if the battery
holds a unit, spending the unit -- the packet is delivered if the channel
really is idle and collides otherwise; an empty battery turns the slot
into an outage loss, a "busy" verdict into a non-access loss; (4) if the
energy chain is harvesting, one unit is added, capped at L - 1.  Sensing
itself costs no energy and happens every slot.  The battery level used
for the transmit decision is the level at slot start; the harvest lands
at slot end, so the per-slot level change is always in {-1, 0, +1}.

Sensing modes.  ``event`` draws the sensing verdict directly as a
Bernoulli trial with the closed-form false-alarm / detection probability
of the current channel state; it matches the analytic chain exactly.
``signal`` thresholds an energy statistic with the *exact* finite-N
distribution: the average power of N circularly-symmetric complex
Gaussian samples of variance v is v/N times a Gamma(N, 1) variable, which
exceeds the threshold eps with probability Q(N, eps N / v), the
regularized upper incomplete gamma function
(:func:`ehcrn.analytic.gamma_tail`).  So both modes draw one uniform u
per slot and read busy iff u < P, with P the Gaussian tail in event mode
and the Gamma tail in signal mode; in signal mode that is exactly the law
of thresholding a Gamma draw, or the 2N samples themselves.  The mode
exists to expose the Gaussian-approximation error of the closed forms at
small N.

Channels.  With several licensed channels only the sensed one is read,
and the channels are i.i.d. and independent of the rest of the link, so
the kernel steps a channel only when it is sensed: by the k steps of its
chain since it was last seen, at once (:func:`ehcrn.kernel.sensed_channel`).
That is the law of stepping every channel every slot.

Reproducibility.  All randomness comes from a ``RandomStream`` keyed by
(seed, replication index); draws are consumed in a fixed documented order
(initial states, then per block of b slots: b spectrum uniforms, b energy
uniforms, b channel choices when there are several channels, b sensing
uniforms), so results are bit-identical for a given seed regardless of
how replications are scheduled.  No draw depends on the detector, so
``run_points`` runs points that differ only there on common random
numbers: one set of draws and chain paths for all of them, and for each
point the counts ``run_simulation`` gives it alone on the same seed.  A
shared uniform keeps the points' verdicts comonotone: a point with a
higher busy probability reads busy in every slot another one does.

The slots themselves are advanced by the array kernel in
:mod:`ehcrn.kernel`, which reads the chains, L and the detectors from the
``Scenario``s and only tallies the slots by what happened; the report
sorts that tally into the loss causes above.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from ehcrn.analytic import Scenario
from ehcrn.chains import RandomStream
from ehcrn.gaussian import student_t_quantile
from ehcrn.kernel import advance_block, sensing

__all__ = [
    "SimConfig",
    "SimReport",
    "initial_level",
    "measure_signal_rate",
    "run_points",
    "run_replication",
    "run_simulation",
]

_BLOCK = 1 << 20


@dataclass(frozen=True)
class SimConfig:
    """Simulation controls.

    ``slots`` is the number of slots per replication; replications run on
    distinct random substreams and are pooled.  ``sensing_mode`` is
    ``event`` or ``signal`` (see module docstring).  ``initial_battery``
    is ``"full"`` or a level in [0, L-1]; ``initial_states`` draws the
    chain starts from their stationary laws (``steady-draw``, unbiased
    without burn-in) or pins them to idle / not-harvesting (``fixed``).
    """

    slots: int = 1_000_000
    replications: int = 4
    seed: int = 42
    sensing_mode: str = "event"
    initial_battery: int | str = "full"
    initial_states: str = "steady-draw"
    num_pu_channels: int = 1

    def __post_init__(self):
        if not (_is_int(self.slots) and self.slots >= 1):
            raise ValueError(f"slots must be a positive integer, got {self.slots!r}")
        if not (_is_int(self.replications) and self.replications >= 1):
            raise ValueError(f"replications must be a positive integer, got {self.replications!r}")
        if not (_is_int(self.seed) and 0 <= self.seed < 2**64):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if self.sensing_mode not in ("event", "signal"):
            raise ValueError(f"sensing_mode must be 'event' or 'signal', got {self.sensing_mode!r}")
        if self.initial_states not in ("steady-draw", "fixed"):
            raise ValueError(
                f"initial_states must be 'steady-draw' or 'fixed', got {self.initial_states!r}"
            )
        if self.initial_battery != "full" and not (
            _is_int(self.initial_battery) and self.initial_battery >= 0
        ):
            raise ValueError(
                f"initial_battery must be 'full' or a non-negative level, got {self.initial_battery!r}"
            )
        if not (_is_int(self.num_pu_channels) and self.num_pu_channels >= 1):
            raise ValueError(
                f"num_pu_channels must be a positive integer, got {self.num_pu_channels!r}"
            )


def _is_int(value) -> bool:
    """An int that is not a bool (``bool`` subclasses ``int``)."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class SimReport:
    """Empirical estimators pooled over one or more replications.

    Counters partition the slots: delivered + outage + non-access +
    collided == slots.  ``battery_histogram`` holds start-of-slot level
    occupancy fractions; ``battery_transition_counts[l, k]`` counts moves
    from level l with k in {0: down, 1: stay, 2: up}.  ``packet_loss_ci95``
    is the 95 % half-width across replications, t(0.975, R - 1) sd / sqrt(R),
    when there are R > 1 of them (the spread absorbs slot-to-slot
    correlation), otherwise the binomial one of the pooled slots.
    """

    slots: int
    replications: int
    packets_delivered: int
    packets_lost_outage: int
    packets_lost_false_alarm_or_busy: int
    packets_collided: int
    empirical_packet_loss: float
    packet_loss_ci95: float
    empirical_outage_occupancy: float
    empirical_pf: float
    empirical_pd: float
    empirical_delta: float
    empirical_pi_idle: float
    battery_histogram: np.ndarray
    battery_level_counts: np.ndarray
    battery_transition_counts: np.ndarray
    idle_slots: int
    alarms_idle: int
    alarms_occupied: int
    replication_loss_rates: tuple


def measure_signal_rate(spectrum_state: int, det, rng: RandomStream, trials: int) -> float:
    """Empirical rate of "busy" verdicts over many signal-level trials.

    Each trial thresholds the average power of N complex samples (noise
    only when idle, signal plus noise when occupied, both circularly
    symmetric Gaussian of total variance v), drawn by its exact law: v / N
    times a Gamma(N, 1) variable, one draw per trial.  Used to check the
    Gaussian approximation of the closed-form rates.
    """
    n = det.sample_count
    variance = det.noise_power * ((det.primary_snr + 1.0) if spectrum_state == 1 else 1.0)
    stats = (variance / n) * rng.generator.standard_gamma(n, trials)
    return int(np.count_nonzero(stats > det.threshold)) / trials


def initial_level(scenario: Scenario, cfg: SimConfig) -> int:
    """The battery level a replication starts at.

    Raises ValueError if ``cfg.initial_battery`` is above the top level L - 1.
    """
    top = scenario.battery_levels - 1
    if cfg.initial_battery == "full":
        return top
    if cfg.initial_battery > top:
        raise ValueError(f"initial_battery {cfg.initial_battery} exceeds the top level {top}")
    return int(cfg.initial_battery)


def _initial_states(scenario: Scenario, cfg: SimConfig, rng: RandomStream):
    channels = cfg.num_pu_channels
    if cfg.initial_states == "steady-draw":
        pi_idle = scenario.pi_idle
        e_on = scenario.e_on
        gen = rng.generator
        spec = np.array([0 if gen.random() < pi_idle else 1 for _ in range(channels)], np.int64)
        energy = 0 if gen.random() < e_on else 1
    else:
        spec = np.zeros(channels, np.int64)  # all idle
        energy = 1  # not harvesting
    return spec, energy, initial_level(scenario, cfg)


def _replication_counts(scenarios, rule, cfg: SimConfig, stream_id: int):
    """The (G, 2, 2, L, 3) slot tally of one replication of ``cfg.slots``
    slots on its own stream, for each of the G ``scenarios`` (axes as in
    :func:`ehcrn.kernel.advance`), whose verdict constants are ``rule``
    (:func:`ehcrn.kernel.sensing`).  The points share the draws and the
    chain paths, so each point's tally is the one it gets alone."""
    first = scenarios[0]
    rng = RandomStream(cfg.seed, stream_id)
    gen = rng.generator
    channels = cfg.num_pu_channels

    spec, energy, level = _initial_states(first, cfg, rng)
    state = ((spec, np.zeros(channels, np.int64)), energy, np.full(len(scenarios), level))
    tally = np.zeros((len(scenarios), 2, 2, first.battery_levels, 3), np.int64)

    done = 0
    while done < cfg.slots:
        b = min(_BLOCK, cfg.slots - done)
        u_spec = gen.random(b)
        u_energy = gen.random(b)
        # int8 up to 128 channels (the smallest signed type that holds them)
        chan_sel = (gen.integers(0, channels, b, np.min_scalar_type(-channels))
                    if channels > 1 else None)
        sense_draw = gen.random(b)
        state = advance_block(scenarios, rule, state, u_spec, u_energy, chan_sel, sense_draw, tally)
        done += b
    return tally


def _shared(scenario: Scenario):
    """What the points of one run must agree in: every field but the detector."""
    return tuple(getattr(scenario, f.name) for f in fields(Scenario) if f.name != "detector")


def run_points(scenarios, cfg: SimConfig) -> list[SimReport]:
    """Simulate points that differ only in their detector on common random
    numbers: every point gets the report ``run_simulation`` gives it alone
    on ``cfg``, from one pass over the shared draws and chain paths.

    Raises ValueError if there are no points, or if two differ anywhere
    but in the detector.
    """
    scenarios = list(scenarios)
    if not scenarios:
        raise ValueError("run_points needs at least one scenario")
    shared = _shared(scenarios[0])
    for i, scenario in enumerate(scenarios[1:], 1):
        if _shared(scenario) != shared:
            raise ValueError(
                f"scenario {i} differs from scenario 0 outside its detector; "
                "the points of one run share their chains, battery and draws"
            )
    rule = sensing(scenarios, cfg.sensing_mode == "signal")
    tallies = np.stack([_replication_counts(scenarios, rule, cfg, rep)
                        for rep in range(cfg.replications)])
    return _reports(cfg.slots, tallies)


def run_replication(scenario: Scenario, cfg: SimConfig, stream_id: int) -> SimReport:
    """Simulate one replication of ``cfg.slots`` slots on its own stream."""
    rule = sensing([scenario], cfg.sensing_mode == "signal")
    return _reports(cfg.slots, _replication_counts([scenario], rule, cfg, stream_id)[None])[0]


def run_simulation(scenario: Scenario, cfg: SimConfig) -> SimReport:
    """Run all replications on distinct substreams and pool their counts:
    the one-point case of :func:`run_points`.

    Replication i uses stream id i; pooling is an ordered sum, so the
    result is identical no matter how the replications are executed.
    """
    return run_points([scenario], cfg)[0]


def _reports(slots_per_replication: int, tallies: np.ndarray) -> list[SimReport]:
    """The report of each of G points from the (R, G, 2, 2, L, 3) tallies
    t[replication, point, occupied, busy, start, k] of R replications.

    The one place that sorts slots into outcomes: a busy verdict is a
    non-access loss, an idle one an outage at level 0 and otherwise a
    packet, delivered on an idle channel and collided on an occupied one.
    Every count and rate is an array step over all the points at once.
    """
    replications = len(tallies)
    slots = slots_per_replication * replications
    t = tallies.sum(axis=0)
    level_moves = t.sum(axis=(1, 2))
    level_counts = level_moves.sum(axis=2)
    rates = 1.0 - tallies[:, :, 0, 0, 1:].sum(axis=(2, 3)).T / slots_per_replication
    delivered, collided = t[:, :, 0, 1:].sum(axis=(2, 3)).T
    loss = 1.0 - delivered / slots
    if replications > 1:
        t975 = student_t_quantile(0.975, replications - 1)
        ci95 = t975 * (np.std(rates, axis=1, ddof=1) / math.sqrt(replications))
    else:
        ci95 = 1.96 * np.sqrt(np.maximum(loss * (1.0 - loss), 0.0) / slots)
    alarms_idle, alarms_occ = t[:, :, 1].sum(axis=(2, 3)).T.tolist()
    idle = t[:, 0].sum(axis=(1, 2, 3)).tolist()
    outage = t[:, :, 0, 0].sum(axis=(1, 2)).tolist()
    empty = level_counts[:, 0].tolist()
    histogram = level_counts / float(slots)
    delivered, collided, loss, ci95, rates = (
        a.tolist() for a in (delivered, collided, loss, ci95, rates))
    reports = []
    for g in range(len(idle)):
        nonaccess = alarms_idle[g] + alarms_occ[g]
        occupied = slots - idle[g]
        reports.append(SimReport(
            slots=slots,
            replications=replications,
            packets_delivered=delivered[g],
            packets_lost_outage=outage[g],
            packets_lost_false_alarm_or_busy=nonaccess,
            packets_collided=collided[g],
            empirical_packet_loss=loss[g],
            packet_loss_ci95=ci95[g],
            empirical_outage_occupancy=float(empty[g]) / slots,
            empirical_pf=float(alarms_idle[g]) / idle[g] if idle[g] else math.nan,
            empirical_pd=float(alarms_occ[g]) / occupied if occupied else math.nan,
            empirical_delta=1.0 - nonaccess / slots,
            empirical_pi_idle=idle[g] / slots,
            battery_histogram=histogram[g],
            battery_level_counts=level_counts[g],
            battery_transition_counts=level_moves[g],
            idle_slots=idle[g],
            alarms_idle=alarms_idle[g],
            alarms_occupied=alarms_occ[g],
            replication_loss_rates=tuple(rates[g]),
        ))
    return reports
