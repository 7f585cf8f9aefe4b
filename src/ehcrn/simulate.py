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

Sensing modes, the keys of :data:`ehcrn.analytic.SENSING_LAWS`.  A run
takes its false-alarm / detection probabilities from
:func:`ehcrn.analytic.detector_rates` under ``SimConfig.sensing_mode``.
``event`` draws the verdict as a Bernoulli trial with the closed-form
probability of the current channel state; it matches the analytic chain
exactly.  ``signal`` thresholds an energy statistic with the *exact*
finite-N distribution: the average power of N circularly-symmetric complex
Gaussian samples of variance v is v/N times a Gamma(N, 1) variable, which
exceeds the threshold eps with probability Q(N, eps N / v), the
regularized upper incomplete gamma function
(:func:`ehcrn.analytic.gamma_tail`).  So both modes draw one uniform u
per slot and read busy iff u < P, with P the Gaussian tail in event mode
and the Gamma tail in signal mode; in signal mode that is exactly the law
of thresholding a Gamma draw, or the 2N samples themselves.  The mode
exists to expose the Gaussian-approximation error of the closed forms at
small N; a threshold set from a target P_f inverts the Gaussian law, so
in signal mode the false-alarm rate sits above the target.

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
``run_points`` runs one scenario and its detectors on common random
numbers: one set of draws and chain paths for all, and for each detector
the counts ``run_simulation`` gives the scenario with it on the same
seed.  A shared uniform keeps the points' verdicts comonotone: a point
with a higher busy probability reads busy in every slot another one does.

The slots themselves are advanced by the array kernel in
:mod:`ehcrn.kernel`, which takes the one ``Scenario`` the points share
and their detectors' busy rates, and only tallies the slots by what
happened; the report sorts that tally into the loss causes above.
"""

import math
from functools import lru_cache, partial

import numpy as np

from ehcrn import kernel
from ehcrn.analytic import SENSING_LAWS, Scenario
from ehcrn.chains import _POSITIVE, _SEED, RandomStream, _counts, frozen
from ehcrn.gaussian import student_t_quantile

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
# t(0.975, df) on an int df, solved once per df: every report of a run asks for it.
_T975 = lru_cache(maxsize=64)(partial(student_t_quantile, 0.975))


@frozen
class SimConfig:
    """Simulation controls.

    ``slots`` (per replication), ``replications``, ``num_pu_channels`` and
    ``seed`` are integers, stored as ``int``; replications run on distinct
    random substreams and are pooled.  ``sensing_mode`` is a key of
    ``SENSING_LAWS`` (see module docstring).  ``initial_battery`` is
    ``"full"`` or an ``int`` level in [0, L-1]; ``initial_states`` draws the chain
    starts from their stationary laws (``steady-draw``, unbiased
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
        _counts(self, ("slots", "replications", "num_pu_channels"), _POSITIVE)
        _counts(self, ("seed",), _SEED)
        if self.sensing_mode not in SENSING_LAWS:
            raise ValueError(f"sensing_mode must be {' or '.join(map(repr, SENSING_LAWS))}, "
                             f"got {self.sensing_mode!r}")
        if self.initial_states not in ("steady-draw", "fixed"):
            raise ValueError(f"initial_states must be 'steady-draw' or 'fixed', got {self.initial_states!r}")
        if self.initial_battery != "full":
            _counts(self, ("initial_battery",), (0, math.inf, "must be 'full' or a non-negative level"))


@frozen
class SimReport:
    """Slot counts pooled over one or more replications, and the empirical
    estimators that are their ratios.

    Only what is counted, or needs the replications one by one, is stored;
    every ratio, the non-access count (alarms on idle and occupied slots),
    ``replications`` and ``packet_loss_ci95`` are properties of the stored
    fields, so they cannot disagree with them.  Counters partition the
    slots: delivered + outage + non-access + collided == slots.
    ``battery_level_counts[l]`` (the row sums of the transition counts,
    stored) counts the slots that start at level l (``battery_histogram``
    as fractions) and ``battery_transition_counts[l, k]`` the moves from
    level l with k in {0: down, 1: stay, 2: up}.  ``packet_loss_ci95`` is
    the 95 % half-width across the ``replication_loss_rates``,
    t(0.975, R - 1) sd / sqrt(R), when there are R > 1 of them (the spread
    absorbs slot-to-slot correlation), otherwise the binomial one of the
    pooled slots.  The rates pf and pd are NaN when no slot was idle or
    occupied.
    """

    slots: int
    packets_delivered: int
    packets_lost_outage: int
    packets_collided: int
    idle_slots: int
    alarms_idle: int
    alarms_occupied: int
    battery_level_counts: np.ndarray
    battery_transition_counts: np.ndarray
    replication_loss_rates: tuple

    @property
    def replications(self) -> int:
        return len(self.replication_loss_rates)

    @property
    def packet_loss_ci95(self) -> float:
        if self.replications > 1:
            spread = float(np.std(self.replication_loss_rates, ddof=1)) / math.sqrt(self.replications)
            return _T975(self.replications - 1) * spread
        loss = self.empirical_packet_loss
        return 1.96 * math.sqrt(max(loss * (1.0 - loss), 0.0) / self.slots)

    @property
    def packets_lost_false_alarm_or_busy(self) -> int:
        return self.alarms_idle + self.alarms_occupied

    @property
    def empirical_packet_loss(self) -> float:
        return 1.0 - self.packets_delivered / self.slots

    @property
    def empirical_outage_occupancy(self) -> float:
        return float(self.battery_level_counts[0]) / self.slots

    @property
    def empirical_pf(self) -> float:
        return float(self.alarms_idle) / self.idle_slots if self.idle_slots else math.nan

    @property
    def empirical_pd(self) -> float:
        occupied = self.slots - self.idle_slots
        return float(self.alarms_occupied) / occupied if occupied else math.nan

    @property
    def empirical_delta(self) -> float:
        return 1.0 - self.packets_lost_false_alarm_or_busy / self.slots

    @property
    def empirical_pi_idle(self) -> float:
        return self.idle_slots / self.slots

    @property
    def battery_histogram(self) -> np.ndarray:
        return self.battery_level_counts / float(self.slots)


def measure_signal_rate(spectrum_state: int, det, rng: RandomStream, trials: int) -> float:
    """Empirical rate of "busy" verdicts over many signal-level trials.

    Each trial thresholds the average power of N complex samples (noise
    only when idle, signal plus noise when occupied, both circularly
    symmetric Gaussian of total variance v), drawn by its exact law: v / N
    times a Gamma(N, 1) variable, one draw per trial.  Used to check the
    Gaussian approximation of the closed-form rates.
    """
    n = det.sample_count
    stats = (det.variance(spectrum_state) / n) * rng.generator.standard_gamma(n, trials)
    return int(np.count_nonzero(stats > det.threshold)) / trials


def initial_level(scenario: Scenario, cfg: SimConfig) -> int:
    """The battery level a replication starts at.

    Raises ValueError if ``cfg.initial_battery`` is above the top level L - 1.
    """
    top = scenario.battery_levels - 1
    level = top if cfg.initial_battery == "full" else cfg.initial_battery
    if level > top:
        raise ValueError(f"initial_battery {level} exceeds the top level {top}")
    return level


def _initial_states(scenario: Scenario, cfg: SimConfig, rng: RandomStream):
    channels = cfg.num_pu_channels
    if cfg.initial_states == "steady-draw":
        gen = rng.generator
        spec = (gen.random(channels) >= scenario.pi_idle).astype(np.int64)
        energy = 0 if gen.random() < scenario.e_on else 1
    else:
        spec = np.zeros(channels, np.int64)  # all idle
        energy = 1  # not harvesting
    return spec, energy, initial_level(scenario, cfg)


def _replication_counts(scenario: Scenario, rule, cfg: SimConfig, stream_id: int):
    """The (G, 2, 2, L, 3) slot tally of one replication of ``cfg.slots``
    slots on its own stream, for each of the G points of ``rule`` (axes as
    in :func:`ehcrn.kernel.advance`): ``scenario`` holds the chains and the
    battery that the points share, ``rule`` their verdict rates
    (:func:`ehcrn.kernel.sensing`).  The points share the draws and the
    chain paths, so each point's tally is the one it gets alone.  Each block
    of ``_BLOCK`` drawn slots is one :func:`ehcrn.kernel.advance` call,
    looked up on the module so that a wrapper set there sees every block."""
    rng = RandomStream(cfg.seed, stream_id)
    gen = rng.generator
    channels = cfg.num_pu_channels

    spec, energy, level = _initial_states(scenario, cfg, rng)
    state = ((spec, np.zeros(channels, np.int64)), energy, np.full(len(rule.idle), level))
    tally = np.zeros((len(rule.idle), 2, 2, scenario.battery_levels, 3), np.int64)

    done = 0
    while done < cfg.slots:
        b = min(_BLOCK, cfg.slots - done)
        u_spec = gen.random(b)
        u_energy = gen.random(b)
        # int8 up to 128 channels (the smallest signed type that holds them)
        chan_sel = (gen.integers(0, channels, b, np.min_scalar_type(-channels))
                    if channels > 1 else None)
        sense_draw = gen.random(b)
        state = kernel.advance(scenario, rule, state, u_spec, u_energy, chan_sel, sense_draw, tally)
        done += b
    return tally


def run_points(scenario: Scenario, detectors, cfg: SimConfig) -> list[SimReport]:
    """Simulate one point per detector on ``scenario``'s chains and battery
    (its own detector is not read), on common random numbers: each point
    gets the report ``run_simulation`` gives the scenario with that
    detector alone on ``cfg``, from one pass over the shared draws.

    Raises ValueError if there are no detectors.
    """
    detectors = list(detectors)
    if not detectors:
        raise ValueError("run_points needs at least one detector")
    rule = kernel.sensing(detectors, cfg.sensing_mode)
    tallies = np.stack([_replication_counts(scenario, rule, cfg, rep)
                        for rep in range(cfg.replications)])
    return _reports(cfg.slots, tallies)


def run_replication(scenario: Scenario, cfg: SimConfig, stream_id: int) -> SimReport:
    """Simulate one replication of ``cfg.slots`` slots on its own stream."""
    rule = kernel.sensing([scenario.detector], cfg.sensing_mode)
    return _reports(cfg.slots, _replication_counts(scenario, rule, cfg, stream_id)[None])[0]


def run_simulation(scenario: Scenario, cfg: SimConfig) -> SimReport:
    """Run all replications on distinct substreams and pool their counts:
    the one-point case of :func:`run_points`.

    Replication i uses stream id i; pooling is an ordered sum, so the
    result is identical no matter how the replications are executed.
    """
    return run_points(scenario, [scenario.detector], cfg)[0]


def _reports(slots_per_replication: int, tallies: np.ndarray) -> list[SimReport]:
    """The report of each of G points from the (R, G, 2, 2, L, 3) tallies
    t[replication, point, occupied, busy, start, k] of R replications.

    The one place that sorts slots into outcomes: a busy verdict is a
    non-access loss, an idle one an outage at level 0 and otherwise a
    packet, delivered on an idle channel and collided on an occupied one.
    Every count is an array step over all the points at once; the rates
    and the interval are the reports' properties.
    """
    slots = slots_per_replication * len(tallies)
    t = tallies.sum(axis=0)
    level_moves = t.sum(axis=(1, 2))
    level_counts = level_moves.sum(axis=2)
    rates = (1.0 - tallies[:, :, 0, 0, 1:].sum(axis=(2, 3)).T / slots_per_replication).tolist()
    delivered, collided = t[:, :, 0, 1:].sum(axis=(2, 3)).T.tolist()
    alarms_idle, alarms_occ = t[:, :, 1].sum(axis=(2, 3)).T.tolist()
    idle = t[:, 0].sum(axis=(1, 2, 3)).tolist()
    outage = t[:, :, 0, 0].sum(axis=(1, 2)).tolist()
    return [SimReport(
        slots=slots,
        packets_delivered=delivered[g],
        packets_lost_outage=outage[g],
        packets_collided=collided[g],
        idle_slots=idle[g],
        alarms_idle=alarms_idle[g],
        alarms_occupied=alarms_occ[g],
        battery_level_counts=level_counts[g],
        battery_transition_counts=level_moves[g],
        replication_loss_rates=tuple(rates[g]),
    ) for g in range(len(idle))]
