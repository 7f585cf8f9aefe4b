"""Slot simulator: deterministic micro-scenarios, rates, pooling, kernel oracle."""

import math
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.special import gammaincc
from scipy.stats import t as student_t

from ehcrn.analytic import (
    DetectorConfig,
    Scenario,
    access_prob_from_rates,
    detection_prob,
    false_alarm_prob,
)
from ehcrn import kernel, simulate
from ehcrn.chains import RandomStream, TwoStateChain
from ehcrn.gaussian import student_t_quantile
from ehcrn.configio import load_config
from ehcrn.simulate import SimConfig, measure_signal_rate, run_replication, run_simulation
from ehcrn.sweep import campaign

REPO = Path(__file__).resolve().parents[1]

SNR_M15_DB = 10.0 ** (-1.5)


def detector(threshold=1.0, snr=SNR_M15_DB, n=2000, noise_power=1.0):
    return DetectorConfig(
        sensing_duration=n / 1e6, sampling_rate=1e6,
        noise_power=noise_power, threshold=threshold, primary_snr=snr,
    )


def scenario(q_i=0.5, q_o=0.7, p_on=0.7, p_off=0.5, det=None, levels=10):
    return Scenario(
        spectrum=TwoStateChain(q_i, q_o, labels=("idle", "occupied")),
        energy=TwoStateChain(p_on, p_off, labels=("harvesting", "not-harvesting")),
        detector=det if det is not None else detector(),
        battery_levels=levels,
        slot_duration=0.1,
    )


def exact_busy_rate(det, state):
    """Exact law of the averaged-power statistic: v/N times Gamma(N, 1)."""
    variance = det.noise_power * ((det.primary_snr + 1.0) if state == 1 else 1.0)
    n = det.sample_count
    return float(gammaincc(n, n * det.threshold / variance))


class TestSenseEvent:
    """Event-mode verdicts of the simulator on a spectrum chain that never
    leaves one state: (q_i, q_o) = (1, 0) is always idle, (0, 1) always
    occupied."""

    def test_never_alarms_when_pf_zero(self):
        det = detector(threshold=2.0)  # false-alarm underflows to 0
        assert false_alarm_prob(det) == 0.0
        scn = scenario(q_i=1.0, q_o=0.0, det=det)
        r = run_simulation(scn, SimConfig(slots=200, replications=1, seed=1))
        assert r.idle_slots == 200
        assert r.alarms_idle == 0

    def test_always_detects_when_pd_one(self):
        det = detector(threshold=0.2)
        assert detection_prob(det) == 1.0
        scn = scenario(q_i=0.0, q_o=1.0, det=det)
        r = run_simulation(scn, SimConfig(slots=200, replications=1, seed=2))
        assert r.idle_slots == 0
        assert r.alarms_occupied == 200

    def test_empirical_false_alarm_rate(self):
        det = detector(threshold=1.01)
        pf = false_alarm_prob(det)
        trials = 100_000
        scn = scenario(q_i=1.0, q_o=0.0, det=det)
        r = run_simulation(scn, SimConfig(slots=trials, replications=1, seed=3))
        assert r.idle_slots == trials
        assert abs(r.empirical_pf - pf) <= 3.0 * math.sqrt(pf * (1.0 - pf) / trials)


class TestSenseSignal:
    def test_tiny_snr_reduces_to_noise_law(self):
        det = detector(threshold=1.01, snr=1e-12, n=500)
        trials = 4000
        rate = measure_signal_rate(1, det, RandomStream(4, 0), trials)
        pf_exact = exact_busy_rate(det, 0)
        assert abs(rate - pf_exact) <= 3.0 * math.sqrt(pf_exact * (1 - pf_exact) / trials) + 1e-9

    @pytest.mark.parametrize("state", [0, 1])
    def test_batch_rate_matches_exact_law(self, state):
        det = detector(threshold=1.02)
        trials = 40_000
        rate = measure_signal_rate(state, det, RandomStream(5, state), trials)
        exact = exact_busy_rate(det, state)
        assert abs(rate - exact) <= 3.0 * math.sqrt(exact * (1.0 - exact) / trials)

    @pytest.mark.parametrize("state", [0, 1])
    def test_summed_samples_follow_exact_law(self, state):
        # measure_signal_rate draws the statistic as v/N times Gamma(N, 1); here it
        # is formed from its N complex samples, 2N real squares of variance v/2
        det = detector(threshold=1.2, n=50)
        n, trials = det.sample_count, 40_000
        variance = det.noise_power * ((det.primary_snr + 1.0) if state == 1 else 1.0)
        parts = RandomStream(9, state).generator.standard_normal((trials, 2 * n))
        stats = (0.5 * variance / n) * np.einsum("ij,ij->i", parts, parts)
        rate = np.count_nonzero(stats > det.threshold) / trials
        exact = exact_busy_rate(det, state)
        assert abs(rate - exact) <= 3.0 * math.sqrt(exact * (1.0 - exact) / trials)

    def test_same_stream_reproduces(self):
        det = detector(n=100)
        a = measure_signal_rate(1, det, RandomStream(6, 0), 1000)
        b = measure_signal_rate(1, det, RandomStream(6, 0), 1000)
        assert a == b


def drain_scenario(levels=6):
    # always-idle spectrum, never-harvesting energy, zero false alarm
    return scenario(
        q_i=1.0, q_o=0.0, p_on=0.0, p_off=1.0,
        det=detector(threshold=2.0), levels=levels,
    )


class TestDeterministicDrain:
    def test_exact_drain(self):
        scn = drain_scenario(levels=6)
        cfg = SimConfig(slots=5, replications=1, seed=11)
        r = run_simulation(scn, cfg)
        assert r.packets_delivered == 5
        assert r.packets_lost_outage == 0
        assert r.packets_collided == 0
        assert r.packets_lost_false_alarm_or_busy == 0

    def test_one_outage_past_the_drain(self):
        scn = drain_scenario(levels=6)
        r = run_simulation(scn, SimConfig(slots=6, replications=1, seed=11))
        assert r.packets_delivered == 5
        assert r.packets_lost_outage == 1

    def test_histogram_counts_start_levels(self):
        scn = drain_scenario(levels=4)
        r = run_simulation(scn, SimConfig(slots=4, replications=1, seed=11))
        # start-of-slot levels: 3, 2, 1, 0
        assert (r.battery_level_counts == [1, 1, 1, 1]).all()
        assert (r.battery_transition_counts[:, 0] == [0, 1, 1, 1]).all()  # downs from 1..3
        assert r.battery_transition_counts[0, 1] == 1  # stay at empty

    def test_initial_battery_level(self):
        scn = drain_scenario(levels=6)
        cfg = SimConfig(slots=4, replications=1, seed=11, initial_battery=2)
        r = run_simulation(scn, cfg)
        assert r.packets_delivered == 2
        assert r.packets_lost_outage == 2

    def test_initial_battery_out_of_range(self):
        scn = drain_scenario(levels=6)
        with pytest.raises(ValueError, match="initial_battery"):
            run_simulation(scn, SimConfig(slots=1, replications=1, seed=1, initial_battery=6))


class TestReportInvariants:
    def test_counters_partition_slots(self):
        r = run_simulation(scenario(), SimConfig(slots=50_000, replications=2, seed=21))
        total = (r.packets_delivered + r.packets_lost_outage
                 + r.packets_lost_false_alarm_or_busy + r.packets_collided)
        assert total == r.slots == 100_000
        assert abs(r.battery_histogram.sum() - 1.0) <= 1e-12
        assert r.battery_level_counts.sum() == r.slots
        assert r.battery_transition_counts.sum() == r.slots

    def test_transitions_stay_within_one_level(self):
        r = run_simulation(scenario(levels=5), SimConfig(slots=30_000, replications=1, seed=22))
        moves = r.battery_transition_counts
        # by construction columns are down/stay/up; row sums match visits
        assert (moves.sum(axis=1) == r.battery_level_counts).all()
        assert moves[0, 0] == 0  # cannot go below empty

    def test_estimators_converge_at_three_sigma(self):
        # pf/pd are conditionally exact binomials given the state counts;
        # pi_idle gets the two-state-chain autocorrelation inflation
        # (1+r)/(1-r); delta (whose slots are cross-correlated through the
        # state sequence) uses the across-replication standard error.
        scn = scenario(det=detector(threshold=1.03))
        pf, pd = false_alarm_prob(scn.detector), detection_prob(scn.detector)
        reps, slots = 8, 100_000
        cfg = SimConfig(slots=slots, replications=reps, seed=24)
        r = run_simulation(scn, cfg)
        total = r.slots
        occupied = total - r.idle_slots

        sigma_pf = math.sqrt(pf * (1.0 - pf) / r.idle_slots)
        assert abs(r.empirical_pf - pf) <= 3.0 * sigma_pf
        sigma_pd = math.sqrt(pd * (1.0 - pd) / occupied)
        assert abs(r.empirical_pd - pd) <= 3.0 * sigma_pd

        pi_idle = 0.375
        rho = 0.5 + 0.7 - 1.0
        sigma_pi = math.sqrt(pi_idle * (1.0 - pi_idle) / total * (1.0 + rho) / (1.0 - rho))
        assert abs(r.empirical_pi_idle - pi_idle) <= 3.0 * sigma_pi

        delta = access_prob_from_rates(pf, pd, pi_idle)
        per_rep = [run_replication(scn, cfg, i).empirical_delta for i in range(reps)]
        sem = np.std(per_rep, ddof=1) / math.sqrt(reps)
        assert abs(r.empirical_delta - delta) <= 3.0 * sem


class TestPoolingAndDeterminism:
    def test_single_replication_equals_stream_zero(self):
        scn = scenario()
        cfg = SimConfig(slots=20_000, replications=1, seed=31)
        pooled = run_simulation(scn, cfg)
        direct = run_replication(scn, cfg, 0)
        assert pooled.empirical_packet_loss == direct.empirical_packet_loss
        assert (pooled.battery_level_counts == direct.battery_level_counts).all()
        assert (pooled.battery_transition_counts == direct.battery_transition_counts).all()

    def test_pooled_rate_is_mean_of_replications(self):
        scn = scenario()
        cfg = SimConfig(slots=10_000, replications=4, seed=32)
        pooled = run_simulation(scn, cfg)
        assert pooled.empirical_packet_loss == pytest.approx(
            np.mean(pooled.replication_loss_rates), abs=1e-12)
        assert len(pooled.replication_loss_rates) == 4

    @pytest.mark.parametrize("reps", [2, 4])
    def test_ci_uses_student_t(self, reps):
        cfg = SimConfig(slots=10_000, replications=reps, seed=37)
        pooled = run_simulation(scenario(), cfg)
        rates = np.array(pooled.replication_loss_rates)
        expected = student_t.ppf(0.975, reps - 1) * rates.std(ddof=1) / math.sqrt(reps)
        assert pooled.packet_loss_ci95 == pytest.approx(expected, rel=1e-12)

    def test_ci_reaches_its_coverage(self):
        # Harvesting every slot from a full start, the battery never empties,
        # so P_L = 1 - pi_idle (1 - pf) holds exactly in event mode.  Of 1000
        # intervals, the share covering it must lie within 3 binomial sigma
        # of 0.95 (it is 0.939); 1.96 in place of t(0.975, 3) covers 0.822.
        scn = scenario(p_on=1.0, p_off=0.5)
        exact = 1.0 - scn.pi_idle * (1.0 - false_alarm_prob(scn.detector))
        covered = 0
        for seed in range(1000):
            r = run_simulation(scn, SimConfig(slots=2000, replications=4, seed=seed))
            assert r.packets_lost_outage == 0
            covered += abs(r.empirical_packet_loss - exact) <= r.packet_loss_ci95
        assert 0.929 <= covered / 1000 <= 0.971

    def test_single_replication_ci_is_binomial(self):
        r = run_simulation(scenario(), SimConfig(slots=20_000, replications=1, seed=38))
        loss = r.empirical_packet_loss
        assert r.packet_loss_ci95 == 1.96 * math.sqrt(loss * (1.0 - loss) / r.slots)

    def test_bit_identical_reruns(self):
        scn = scenario()
        cfg = SimConfig(slots=20_000, replications=2, seed=33)
        a = run_simulation(scn, cfg)
        b = run_simulation(scn, cfg)
        assert a.empirical_packet_loss == b.empirical_packet_loss
        assert (a.battery_transition_counts == b.battery_transition_counts).all()

    def test_seeds_differ(self):
        scn = scenario()
        a = run_simulation(scn, SimConfig(slots=20_000, replications=1, seed=34))
        b = run_simulation(scn, SimConfig(slots=20_000, replications=1, seed=35))
        assert a.empirical_packet_loss != b.empirical_packet_loss

    def test_fixed_initial_states(self):
        scn = scenario()
        cfg = SimConfig(slots=1000, replications=1, seed=36, initial_states="fixed")
        r = run_simulation(scn, cfg)
        assert r.slots == 1000


def pooled_reference(slots_per_replication, tallies):
    """Reference for the pooling: one point's report from its R (2, 2, L, 3)
    tallies, with sums and rates worked out for this point alone."""
    replications = len(tallies)
    slots = slots_per_replication * replications
    t = sum(tallies)
    level_moves = t.sum(axis=(0, 1))
    level_counts = level_moves.sum(axis=1)
    rates = tuple(1.0 - int(r[0, 0, 1:].sum()) / slots_per_replication for r in tallies)
    idle = int(t[0].sum())
    alarms_idle, alarms_occ = (int(a) for a in t[:, 1].sum(axis=(1, 2)))
    delivered, collided = (int(a) for a in t[:, 0, 1:].sum(axis=(1, 2)))
    nonaccess = alarms_idle + alarms_occ
    occupied = slots - idle
    loss = 1.0 - delivered / slots
    if replications > 1:
        spread = float(np.std(rates, ddof=1)) / math.sqrt(replications)
        ci95 = student_t_quantile(0.975, replications - 1) * spread
    else:
        ci95 = 1.96 * math.sqrt(max(loss * (1.0 - loss), 0.0) / slots)
    return simulate.SimReport(
        slots=slots, replications=replications, packets_delivered=delivered,
        packets_lost_outage=int(t[:, 0, 0].sum()), packets_lost_false_alarm_or_busy=nonaccess,
        packets_collided=collided, empirical_packet_loss=loss, packet_loss_ci95=ci95,
        empirical_outage_occupancy=float(level_counts[0]) / slots,
        empirical_pf=float(alarms_idle) / idle if idle else math.nan,
        empirical_pd=float(alarms_occ) / occupied if occupied else math.nan,
        empirical_delta=1.0 - nonaccess / slots, empirical_pi_idle=idle / slots,
        battery_histogram=level_counts / float(slots), battery_level_counts=level_counts,
        battery_transition_counts=level_moves, idle_slots=idle, alarms_idle=alarms_idle,
        alarms_occupied=alarms_occ, replication_loss_rates=rates,
    )


def assert_same_report(report, reference):
    """Every field equal, bit for bit and of the same type (NaN equal to NaN)."""
    for f in fields(simulate.SimReport):
        got, want = getattr(report, f.name), getattr(reference, f.name)
        assert type(got) is type(want), f.name
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and np.array_equal(got, want), f.name
        elif isinstance(want, float) and math.isnan(want):
            assert math.isnan(got), f.name
        else:
            assert got == want, f.name
            if isinstance(want, tuple):
                assert all(type(a) is type(b) for a, b in zip(got, want)), f.name


class TestPooledReports:
    """``simulate._reports`` builds the reports of all points at once; each
    must equal the per-point reference, field for field."""

    @pytest.mark.parametrize("replications", [1, 2, 9])
    def test_equals_the_per_point_reference(self, replications):
        # point 1 never sees an idle channel (NaN pf), point 2 never an
        # occupied one (NaN pd); the others fill every cell
        rng = np.random.default_rng(replications)
        levels, slots = 4, 5000
        cells = rng.random((5, 2, 2, levels, 3))
        cells[1, 0] = 0.0
        cells[2, 1] = 0.0
        cells /= cells.sum(axis=(1, 2, 3, 4), keepdims=True)
        tallies = np.stack([[rng.multinomial(slots, c.ravel()).reshape(c.shape) for c in cells]
                            for _ in range(replications)])
        reports = simulate._reports(slots, tallies)
        assert len(reports) == len(cells)
        for g, report in enumerate(reports):
            assert_same_report(report, pooled_reference(slots, list(tallies[:, g])))
        assert math.isnan(reports[1].empirical_pf) and math.isnan(reports[2].empirical_pd)


class TestSignalModeSimulation:
    def test_signal_mode_false_alarm_matches_exact_law(self):
        # always-idle spectrum isolates the false-alarm rate
        det = detector(threshold=1.02, n=400)
        scn = scenario(q_i=1.0, q_o=0.0, det=det)
        cfg = SimConfig(slots=150_000, replications=1, seed=41, sensing_mode="signal")
        r = run_simulation(scn, cfg)
        exact = exact_busy_rate(det, 0)
        sigma = math.sqrt(exact * (1.0 - exact) / r.slots)
        assert abs(r.empirical_pf - exact) <= 3.0 * sigma

    def test_signal_and_event_modes_differ_only_statistically(self):
        scn = scenario(det=detector(threshold=1.01, n=500))
        ev = run_simulation(scn, SimConfig(slots=100_000, replications=1, seed=42))
        sg = run_simulation(scn, SimConfig(slots=100_000, replications=1, seed=42,
                                           sensing_mode="signal"))
        assert abs(ev.empirical_packet_loss - sg.empirical_packet_loss) < 0.02


class TestMultiChannel:
    def test_multi_channel_runs_and_estimates_idle(self):
        scn = scenario()
        cfg = SimConfig(slots=100_000, replications=2, seed=51, num_pu_channels=5)
        r = run_simulation(scn, cfg)
        assert r.empirical_pi_idle == pytest.approx(0.375, abs=0.01)

    def test_channel_count_is_statistically_invisible(self):
        scn = scenario()
        base = run_simulation(scn, SimConfig(slots=150_000, replications=2, seed=52))
        multi = run_simulation(scn, SimConfig(slots=150_000, replications=2, seed=52,
                                              num_pu_channels=4))
        assert abs(base.empirical_packet_loss - multi.empirical_packet_loss) < 0.01

    def test_more_channels_than_int8_holds(self):
        # the channel choices are drawn as int8 up to 128 channels and in a
        # wider type beyond
        scn = scenario()
        r = run_simulation(scn, SimConfig(slots=50_000, replications=1, seed=53,
                                          num_pu_channels=300))
        assert r.empirical_pi_idle == pytest.approx(0.375, abs=0.01)


class TestSimConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"slots": 0},
        {"replications": 0},
        {"seed": -1},
        {"sensing_mode": "both"},
        {"initial_states": "warm"},
        {"initial_battery": -3},
        {"num_pu_channels": 0},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("field", ["slots", "replications", "seed", "initial_battery",
                                       "num_pu_channels"])
    def test_rejects_booleans(self, field, value):
        # bool subclasses int, so True would pass for 1 and False for 0
        with pytest.raises(ValueError, match=field):
            SimConfig(**{field: value})


# Counter slots of the oracle, one per SimReport field in COUNTER_FIELDS.
DELIVERED, OUTAGE, NONACCESS, COLLIDED, IDLE, ALARM_IDLE, ALARM_OCC = range(7)
COUNTER_FIELDS = ("packets_delivered", "packets_lost_outage", "packets_lost_false_alarm_or_busy",
                  "packets_collided", "idle_slots", "alarms_idle", "alarms_occupied")


def report_counters(report):
    """The report's counts in the oracle's counter order."""
    return [getattr(report, name) for name in COUNTER_FIELDS]


def oracle_constants(scn, signal):
    """The oracle's slot constants, derived here from the scenario and its
    detector rather than taken from the kernel, so that a wrong constant
    in either one shows as a mismatch: the signal-mode rates from scipy's
    incomplete gamma, the P^k stays from the stationary law written out."""
    det = scn.detector
    stay_idle, stay_occ = scn.spectrum.stay_a, scn.spectrum.stay_b
    pi_idle = (1.0 - stay_occ) / ((1.0 - stay_idle) + (1.0 - stay_occ))
    return SimpleNamespace(
        stay_idle=stay_idle, stay_occ=stay_occ,
        pi_idle=pi_idle, pi_occ=1.0 - pi_idle, lam=stay_idle + stay_occ - 1.0,
        stay_on=scn.energy.stay_a, stay_off=scn.energy.stay_b,
        pf=exact_busy_rate(det, 0) if signal else false_alarm_prob(det),
        pd=exact_busy_rate(det, 1) if signal else detection_prob(det),
        levels=scn.battery_levels,
    )


def slot_loop_oracle(rule, spec_states, spec_ages, carry, u_spec, u_energy, chan_sel, sense_draw,
                     counters, level_counts, level_moves):
    """Per-slot reference for the vectorised slot kernel.

    Advances ``spec_states`` and ``spec_ages`` (per channel: the 0/1 state
    it was last seen in, and the steps it has taken since) and ``carry`` =
    [energy state, battery level] in place, one slot at a time, and adds to
    the counters and tallies exactly as the kernel must.  ``chan_sel`` is
    None for a single channel, which steps by the chain itself every slot.
    Of several channels only the sensed one is stepped, by the k steps it
    has taken since it was last seen: P^k stays idle with probability
    pi_idle + pi_occ lam^k and occupied with pi_occ + pi_idle lam^k.
    """
    n = u_energy.shape[0]
    e_state = carry[0]
    level = carry[1]
    for t in range(n):
        spec_ages += 1
        c = 0 if chan_sel is None else chan_sel[t]
        if chan_sel is None:
            stay_idle, stay_occ = rule.stay_idle, rule.stay_occ
        else:
            power = rule.lam ** int(spec_ages[c])
            stay_idle = rule.pi_idle + rule.pi_occ * power
            stay_occ = rule.pi_occ + rule.pi_idle * power
        if spec_states[c] == 0:
            spec_states[c] = 0 if u_spec[t] < stay_idle else 1
        else:
            spec_states[c] = 1 if u_spec[t] < stay_occ else 0
        spec_ages[c] = 0
        if e_state == 0:
            e_state = 0 if u_energy[t] < rule.stay_on else 1
        else:
            e_state = 1 if u_energy[t] < rule.stay_off else 0
        s = spec_states[c]
        p = rule.pd if s == 1 else rule.pf
        theta = 1 if sense_draw[t] < p else 0
        level_counts[level] += 1
        if s == 0:
            counters[IDLE] += 1
            if theta == 1:
                counters[ALARM_IDLE] += 1
        elif theta == 1:
            counters[ALARM_OCC] += 1
        new_level = level
        if theta == 0:
            if level > 0:
                new_level = level - 1
                if s == 0:
                    counters[DELIVERED] += 1
                else:
                    counters[COLLIDED] += 1
            else:
                counters[OUTAGE] += 1
        else:
            counters[NONACCESS] += 1
        if e_state == 0 and new_level < rule.levels - 1:
            new_level += 1
        level_moves[level, new_level - level + 1] += 1
        level = new_level
    carry[0] = e_state
    carry[1] = level


def draw_block(gen, b, channels):
    """One block of draws, in the simulator's order."""
    u_spec = gen.random(b)
    u_energy = gen.random(b)
    chan_sel = gen.integers(0, channels, b, np.int8) if channels > 1 else None
    sense_draw = gen.random(b)
    return u_spec, u_energy, chan_sel, sense_draw


KERNEL_CASES = {
    "event": (scenario(), {}),
    "signal": (scenario(det=detector(threshold=1.01, n=400)), {"sensing_mode": "signal"}),
    "five-channels": (scenario(), {"num_pu_channels": 5}),
    "ten-channels-signal": (scenario(det=detector(threshold=1.01, n=400)),
                            {"sensing_mode": "signal", "num_pu_channels": 10}),
    "empty-fixed-start": (scenario(levels=4), {"initial_battery": 0, "initial_states": "fixed"}),
    # idle and harvesting absorb: the battery fills and stays full
    "absorbing": (scenario(q_i=1.0, q_o=0.6, p_on=1.0, p_off=0.4, levels=5), {"initial_battery": 1}),
    # rows of both transition matrices equal, L = 2: the battery hits both ends often
    "memoryless-two-levels": (scenario(q_i=0.4, q_o=0.6, p_on=0.5, p_off=0.5, levels=2), {}),
    # a noise power other than 1 tells (snr + 1) * noise apart from snr + noise
    "noise-power-event": (scenario(det=detector(threshold=2.5 * 1.01, n=400, noise_power=2.5)), {}),
    "noise-power-signal": (scenario(det=detector(threshold=2.5 * 1.01, n=400, noise_power=2.5)),
                           {"sensing_mode": "signal"}),
    # never harvesting, the battery drains and sits at empty: only the floor binds
    "lower-form-only": (scenario(p_on=0.0, p_off=1.0, levels=6), {}),
    # always harvesting and always busy, the battery fills and sits at the cap
    "mirror-form-only": (scenario(p_on=1.0, p_off=0.5, det=detector(threshold=0.2), levels=4),
                         {"initial_battery": 1}),
}


def with_detectors(scn, *changes):
    """The scenario once per detector change (a dict of detector fields)."""
    return [replace(scn, detector=replace(scn.detector, **change)) for change in changes]


# Stacks of points that differ only in the detector, as a sweep variant's
# grid does; the spread of thresholds and SNRs takes the batteries apart.
DETECTOR_STACKS = {
    "event-snr": (with_detectors(scenario(p_on=0.3, levels=3, det=detector(threshold=1.01, n=400)),
                                 {"primary_snr": 0.01}, {"primary_snr": 0.04},
                                 {"primary_snr": 0.08}, {"primary_snr": 0.15}), {}),
    "event-threshold-two-levels": (with_detectors(
        scenario(q_i=0.4, q_o=0.6, p_on=0.5, p_off=0.5, levels=2, det=detector(n=400)),
        {"threshold": 0.95}, {"threshold": 1.0}, {"threshold": 1.05}), {}),
    "signal-three-channels": (with_detectors(scenario(p_on=0.3, levels=4,
                                                      det=detector(threshold=1.01, n=400)),
                                             {"threshold": 0.98}, {"threshold": 1.02},
                                             {"primary_snr": 0.3}),
                              {"sensing_mode": "signal", "num_pu_channels": 3}),
    # always busy (mirror form), never busy (lower form) and in between
    # (both boundaries, the fallback) in one batch
    "mixed-battery-branches": (with_detectors(scenario(p_on=0.5, p_off=0.5, levels=3,
                                                       det=detector(n=400)),
                                              {"threshold": 0.2}, {"threshold": 2.0},
                                              {"threshold": 1.0}), {}),
    # thresholds about the balance point at L = 8: rows that meet the cap
    # and then empty next to rows that overflow after meeting empty (the
    # fallback)
    "one-switch-rows": (with_detectors(scenario(p_on=0.5, p_off=0.5, levels=8, det=detector(n=400)),
                                       {"threshold": 0.99}, {"threshold": 1.0},
                                       {"threshold": 1.01}, {"threshold": 1.02}), {}),
}


def clamp_loop(access, harvest, level, top):
    """Battery levels of one point, one slot at a time, and the ends it
    meets in their order, a repeat of the last one dropped: "floor" where a
    transmission finds no unit, "cap" where a harvest overflows."""
    levels, ends = [level], []
    for a, h in zip(access, harvest):
        end = "floor" if a and level == 0 else "cap" if max(level - a, 0) + h > top else None
        if end is not None and ends[-1:] != [end]:
            ends.append(end)
        level = min(max(level - a, 0) + h, top)
        levels.append(level)
    return levels, ends


BRANCHES = {(): "walk", ("floor",): "lower", ("cap",): "mirror",
            ("floor", "cap"): "fallback", ("cap", "floor"): "mirror-lower"}


def battery_branch(access, harvest, level, top):
    """How :func:`ehcrn.kernel.battery_levels` must serve a row: the walk,
    one form, the mirror form reflected at empty, or (for a row that
    overflows the cap after it has met empty) the fallback."""
    return BRANCHES.get(tuple(clamp_loop(access, harvest, level, top)[1]), "fallback")


def overflows_after_empty(access, harvest, level, top):
    """Whether a row's per-slot path meets the cap after it has met empty."""
    ends = clamp_loop(access, harvest, level, top)[1]
    return "floor" in ends and "cap" in ends[ends.index("floor"):]


@st.composite
def battery_inputs(draw):
    top = draw(st.integers(1, 6) | st.sampled_from([29, 1 << 15]))
    n = draw(st.integers(1, 300))
    g = draw(st.integers(1, 4))
    row = st.lists(st.booleans(), min_size=n, max_size=n)
    access = draw(st.lists(row, min_size=g, max_size=g))
    start = draw(st.lists(st.sampled_from([0, top]) | st.integers(0, top), min_size=g, max_size=g))
    return np.array(access, bool), np.array(draw(row), bool), np.array(start), top


# Rows of one call, on one harvest row, that take each way of the scan: the
# walk, the lower form, the mirror form (reaching y[t] == a[t]: it spends its
# last unit), floor then cap (the fallback), cap then floor (the mirror form
# reflected at empty) and floor, cap, floor (the fallback again).
MIXED_HARVEST = np.array([0, 1, 1, 1, 0, 0, 0, 0], bool)
MIXED_ROWS = (np.array([[0, 0, 0, 1, 0, 0, 0, 0], [1, 1, 1, 1, 1, 1, 1, 1],
                        [0, 0, 0, 0, 1, 1, 0, 0], [1, 0, 0, 0, 0, 0, 0, 0],
                        [0, 0, 0, 0, 1, 1, 1, 0], [1, 0, 0, 0, 1, 1, 1, 1]], bool),
              MIXED_HARVEST, np.array([0, 0, 2, 0, 2, 0]), 2)
MIXED_BRANCHES = ["walk", "lower", "mirror", "fallback", "mirror-lower", "fallback"]


def spy_on_clamp_map_scan(patch):
    """Record each call of the kernel's batched fallback scan as the list of
    the rows it serves, (access row, start level) each, in row order."""
    calls = []
    scan = kernel._clamp_map_scan

    def spy(y, a, harvest, top):
        calls.append([(row.astype(bool).tolist(), int(first)) for row, first in zip(a, y[:, 0])])
        return scan(y, a, harvest, top)

    patch.setattr(kernel, "_clamp_map_scan", spy)
    return calls


class TestBatteryLevels:
    """The batched battery scan against the per-slot clamp loop."""

    @given(battery_inputs())
    @example((np.array([[True], [False]]), np.array([True]), np.array([0, 1]), 1))
    @example((np.array([[False], [True]]), np.array([False]), np.array([1, 0]), 1))
    @example(MIXED_ROWS)
    # floor then cap, every row of the call (all of them fall back)
    @example((np.array([[1, 0, 0, 0, 0, 0, 0, 0], [1, 1, 0, 0, 0, 0, 0, 1]], bool),
              MIXED_HARVEST, np.array([0, 0]), 2))
    # cap then floor, one row, and the same at a cap of 1
    @example((np.array([[0, 0, 0, 0, 1, 1, 1, 0]], bool), MIXED_HARVEST, np.array([2]), 2))
    @example((np.array([[0, 1, 0, 1, 1, 0]], bool), np.array([1, 0, 0, 0, 0, 0], bool),
              np.array([1]), 1))
    # floor, cap, floor and cap, floor, cap, floor: alternations that fall back
    @example((np.array([[1, 0, 0, 0, 1, 1, 1, 1]], bool), MIXED_HARVEST, np.array([0]), 2))
    @example((np.array([[0, 1, 1, 1, 0, 0, 0, 1, 1, 1, 1]], bool),
              np.array([1, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0], bool), np.array([2]), 2))
    def test_rows_equal_the_clamp_loop(self, inputs):
        access, harvest, start, top = inputs
        levels = kernel.battery_levels(access, harvest, start, top)
        assert levels.shape == (len(access), len(harvest) + 1)
        for row, a, s in zip(levels, access, start):
            assert row.tolist() == clamp_loop(a.tolist(), harvest.tolist(), int(s), top)[0]

    @given(battery_inputs())
    # a row that meets neither end: no window map is constant, so the scan
    # runs all its rounds, s = 1 ... 256
    @example((np.ones((1, 300), bool), np.ones(300, bool), np.array([15]), 29))
    # one slot: no round at all
    @example((np.array([[True], [False]]), np.array([False]), np.array([0, 1]), 1))
    # a cap of 2^15, where the levels are int32
    @example((np.array([[1, 1, 0, 1, 0], [0, 0, 0, 1, 1]], bool),
              np.array([1, 0, 1, 1, 0], bool), np.array([1 << 15, 0]), 1 << 15))
    @example(MIXED_ROWS)
    def test_clamp_map_scan_equals_the_clamp_loop(self, inputs):
        # the fallback scan alone, on every row and not only the rows that
        # need it, in the dtype that battery_levels picks for them
        access, harvest, start, top = inputs
        levels = np.empty_like(kernel.battery_levels(access, harvest, start, top))
        levels[:, 0] = start
        kernel._clamp_map_scan(levels, access.view(np.int8), harvest, top)
        for row, a, s in zip(levels, access, start):
            assert row.tolist() == clamp_loop(a.tolist(), harvest.tolist(), int(s), top)[0]

    def test_only_rows_that_overflow_after_empty_fall_back(self, monkeypatch):
        access, harvest, start, top = MIXED_ROWS
        branches = [battery_branch(a, harvest, s, top) for a, s in zip(access, start)]
        assert branches == MIXED_BRANCHES
        scanned = spy_on_clamp_map_scan(monkeypatch)
        kernel.battery_levels(access, harvest, start, top)
        # one call, for rows 3 and 5 only, with their start levels
        assert scanned == [[(access[3].tolist(), 0), (access[5].tolist(), 0)]]
        served = [0, 1, 2, 4]
        kernel.battery_levels(access[served], harvest, start[served], top)
        assert len(scanned) == 1  # no call when no row falls back

    @given(battery_inputs())
    def test_clamp_scan_serves_the_rows_that_overflow_after_empty(self, inputs):
        # one call with exactly those rows, in row order with their start
        # levels, or no call when there are none
        access, harvest, start, top = inputs
        with pytest.MonkeyPatch.context() as patch:
            scanned = spy_on_clamp_map_scan(patch)
            kernel.battery_levels(access, harvest, start, top)
        rows = [(a.tolist(), int(s)) for a, s in zip(access, start)
                if overflows_after_empty(a.tolist(), harvest.tolist(), int(s), top)]
        assert scanned == ([rows] if rows else [])


class TestKernelMatchesLoopOracle:
    """The vectorised kernel reproduces the per-slot loop bit for bit."""

    def run_both(self, scenarios, cfg, blocks, seed):
        """Feed the same draws to the kernel, for all ``scenarios`` at once,
        and to the loop oracle, for each scenario alone; compare each point."""
        signal = cfg.sensing_mode == "signal"
        first = scenarios[0]
        rules = [oracle_constants(scn, signal) for scn in scenarios]
        spec, energy, level = simulate._initial_states(first, cfg, RandomStream(seed, 1))
        ages = np.zeros(len(spec), np.int64)
        state = ((spec, ages), energy, np.full(len(scenarios), level))
        tally = np.zeros((len(scenarios), 2, 2, first.battery_levels, 3), np.int64)
        oracles = [SimpleNamespace(
            spec=spec.astype(np.int64), ages=ages.copy(), carry=np.array([energy, level], np.int64),
            counters=np.zeros(len(COUNTER_FIELDS), np.int64),
            counts=np.zeros(first.battery_levels, np.int64),
            moves=np.zeros((first.battery_levels, 3), np.int64),
        ) for _ in scenarios]
        gen = np.random.default_rng(seed)
        sensing = kernel.sensing(scenarios, signal)
        for b in blocks:
            draws = draw_block(gen, b, cfg.num_pu_channels)
            state = kernel.advance_block(scenarios, sensing, state, *draws, tally)
            for g, (rule, o) in enumerate(zip(rules, oracles)):
                slot_loop_oracle(rule, o.spec, o.ages, o.carry, *draws, o.counters, o.counts,
                                 o.moves)
                assert (state[0][0] == o.spec).all() and (state[0][1] == o.ages).all()
                assert (int(state[1]), int(state[2][g])) == (o.carry[0], o.carry[1])
        for o, report in zip(oracles, simulate._reports(sum(blocks), tally[None])):
            counters = np.array(report_counters(report))
            moves = report.battery_transition_counts
            assert (counters == o.counters).all()
            assert (moves.sum(axis=1) == o.counts).all()
            assert (moves == o.moves).all()
            outcomes = (DELIVERED, OUTAGE, NONACCESS, COLLIDED)
            assert counters[list(outcomes)].sum() == sum(blocks)

    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_blocks_across_sub_blocks(self, case):
        scn, kwargs = KERNEL_CASES[case]
        cfg = SimConfig(slots=1, replications=1, seed=61, **kwargs)
        sub = kernel.SUB_BLOCK
        self.run_both([scn], cfg, blocks=(1, sub + 1, 2 * sub - 5, 3000), seed=61)

    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_many_short_sub_blocks(self, case, monkeypatch):
        monkeypatch.setattr(kernel, "SUB_BLOCK", 7)
        scn, kwargs = KERNEL_CASES[case]
        cfg = SimConfig(slots=1, replications=1, seed=62, **kwargs)
        self.run_both([scn], cfg, blocks=(1, 2, 5, 7, 8, 64, 300), seed=62)

    @pytest.mark.parametrize("case", sorted(DETECTOR_STACKS))
    def test_detector_stack_columns(self, case, monkeypatch):
        # each point of a stack keeps its own verdicts and battery on the
        # shared chain paths, across uneven blocks and sub-blocks
        monkeypatch.setattr(kernel, "SUB_BLOCK", 300)
        scenarios, kwargs = DETECTOR_STACKS[case]
        cfg = SimConfig(slots=1, replications=1, seed=64, **kwargs)
        self.run_both(scenarios, cfg, blocks=(1, 299, 301, 1000, 7), seed=64)

    @pytest.mark.parametrize("case, taken", [
        ("lower-form-only", {"lower"}),
        ("mirror-form-only", {"mirror"}),
        ("mixed-battery-branches", {"lower", "mirror", "fallback"}),
        ("one-switch-rows", {"lower", "mirror", "mirror-lower", "fallback"}),
    ])
    def test_battery_branches_taken(self, case, taken, monkeypatch):
        # a spy sorts every row the kernel scans by the ends its per-slot
        # path meets, in order; each battery_levels call makes one fallback
        # scan of exactly its rows that overflow the cap after meeting empty
        # (in row order, with their start levels), or none when it has none,
        # and each case takes the ways it is built for
        monkeypatch.setattr(kernel, "SUB_BLOCK", 300)
        calls = []
        battery_levels = kernel.battery_levels
        scanned = spy_on_clamp_map_scan(monkeypatch)

        def spy(access, harvest, start, top):
            ways = [battery_branch(a, harvest, int(s), top) for a, s in zip(access, start)]
            rows = [(a.tolist(), int(s)) for a, s, way in zip(access, start, ways)
                    if way == "fallback"]
            done = len(scanned)
            levels = battery_levels(access, harvest, start, top)
            calls.append(ways)
            assert scanned[done:] == ([rows] if rows else [])
            return levels

        monkeypatch.setattr(kernel, "battery_levels", spy)
        scenarios, kwargs = DETECTOR_STACKS[case] if case in DETECTOR_STACKS else (
            [KERNEL_CASES[case][0]], KERNEL_CASES[case][1])
        cfg = SimConfig(slots=1, replications=1, seed=65, **kwargs)
        self.run_both(scenarios, cfg, blocks=(1, 299, 301, 1000, 7), seed=65)
        rows = [branch for call in calls for branch in call]
        assert set(rows) - {"walk"} == taken
        assert len(scanned) == sum("fallback" in call for call in calls)
        if len(scenarios) > 1:
            # one call serves rows of three ways at once (of every way, when
            # the case is built for fewer)
            assert any(len(set(call) - {"walk"}) == min(len(taken), 3) for call in calls)

    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_run_replication_matches_oracle(self, case, monkeypatch):
        monkeypatch.setattr(simulate, "_BLOCK", 1000)
        scn, kwargs = KERNEL_CASES[case]
        cfg = SimConfig(slots=2500, replications=1, seed=63, **kwargs)
        report = run_replication(scn, cfg, 2)

        rng = RandomStream(cfg.seed, 2)
        rule = oracle_constants(scn, cfg.sensing_mode == "signal")
        spec, energy, level = simulate._initial_states(scn, cfg, rng)
        spec = spec.astype(np.int64)
        ages = np.zeros(len(spec), np.int64)
        carry = np.array([energy, level], np.int64)
        counters = np.zeros(len(COUNTER_FIELDS), np.int64)
        counts = np.zeros(scn.battery_levels, np.int64)
        moves = np.zeros((scn.battery_levels, 3), np.int64)
        for b in (1000, 1000, 500):
            draws = draw_block(rng.generator, b, cfg.num_pu_channels)
            slot_loop_oracle(rule, spec, ages, carry, *draws, counters, counts, moves)

        assert report_counters(report) == counters.tolist()
        assert (report.battery_level_counts == counts).all()
        assert (report.battery_transition_counts == moves).all()


class TestRunPoints:
    """``run_points`` runs a stack of points on common random numbers: each
    point's tally is the one it gets alone on the same seed."""

    @staticmethod
    def campaign_points(case, sensing_mode, channels):
        """The grid points of each variant of a small stock campaign."""
        bundle = load_config(str(REPO / "configs" / f"case{case}.cfg"))
        spec = campaign(replace(bundle, sim=replace(
            bundle.sim, slots=1500, replications=2, sensing_mode=sensing_mode,
            num_pu_channels=channels)), case)
        for _, points, sim in spec.runs:
            yield points, sim

    @pytest.mark.parametrize("case", ["1", "2"])
    @pytest.mark.parametrize("sensing_mode, channels", [("event", 1), ("signal", 1), ("event", 3)])
    def test_every_point_matches_its_own_run(self, case, sensing_mode, channels, monkeypatch):
        monkeypatch.setattr(simulate, "_BLOCK", 1000)  # two blocks per replication
        signal = sensing_mode == "signal"
        for points, cfg in self.campaign_points(case, sensing_mode, channels):
            for rep in range(cfg.replications):
                batch = simulate._replication_counts(points, kernel.sensing(points, signal), cfg, rep)
                for g, scn in enumerate(points):
                    alone = simulate._replication_counts([scn], kernel.sensing([scn], signal), cfg, rep)
                    assert (batch[g] == alone[0]).all()

    def test_reports_equal_run_simulation(self):
        points, cfg = next(self.campaign_points("1", "event", 1))
        for scn, report in zip(points, simulate.run_points(points, cfg)):
            alone = run_simulation(scn, cfg)
            assert report_counters(report) == report_counters(alone)
            assert report.replication_loss_rates == alone.replication_loss_rates
            assert report.packet_loss_ci95 == alone.packet_loss_ci95

    def test_reports_equal_the_per_point_reference(self):
        # run_points and run_simulation share the pooling, so each point is
        # checked against the per-point reference on its own tallies
        points, cfg = next(self.campaign_points("1", "event", 1))
        rule = kernel.sensing(points, False)
        tallies = [simulate._replication_counts(points, rule, cfg, rep)
                   for rep in range(cfg.replications)]
        for g, report in enumerate(simulate.run_points(points, cfg)):
            assert_same_report(report, pooled_reference(cfg.slots, [t[g] for t in tallies]))

    def test_detector_rates_worked_out_once_per_run(self, monkeypatch):
        # two replications of three sub-blocks each: each point's P_f and
        # P_d are worked out once for the run, not once per sub-block
        monkeypatch.setattr(kernel, "SUB_BLOCK", 100)
        points = DETECTOR_STACKS["event-snr"][0]
        calls = []
        for name in ("false_alarm_prob", "detection_prob"):
            rate = getattr(kernel, name)
            monkeypatch.setattr(kernel, name, lambda det, name=name, rate=rate:
                                calls.append(name) or rate(det))
        simulate.run_points(points, SimConfig(slots=300, replications=2))
        assert calls.count("false_alarm_prob") == calls.count("detection_prob") == len(points)

    def test_signal_rates_worked_out_once_per_run(self, monkeypatch):
        # the same in signal mode: two Gamma tails per point and run
        monkeypatch.setattr(kernel, "SUB_BLOCK", 100)
        points = DETECTOR_STACKS["event-snr"][0]
        calls = []
        gamma_tail = kernel.gamma_tail
        monkeypatch.setattr(kernel, "gamma_tail", lambda n, x: calls.append(n) or gamma_tail(n, x))
        simulate.run_points(points, SimConfig(slots=300, replications=2, sensing_mode="signal"))
        assert len(calls) == 2 * len(points)

    @pytest.mark.parametrize("change", [
        {"spectrum": TwoStateChain(0.5, 0.6)},
        {"energy": TwoStateChain(0.3, 0.5)},
        {"battery_levels": 11},
        {"slot_duration": 0.2},
    ], ids=["spectrum", "energy", "levels", "slot"])
    def test_rejects_points_that_differ_outside_the_detector(self, change):
        scn = scenario()
        with pytest.raises(ValueError, match="outside its detector"):
            simulate.run_points([scn, replace(scn, **change)], SimConfig(slots=10, replications=1))

    @pytest.mark.parametrize("sensing_mode", ["event", "signal"])
    def test_points_differing_in_sample_count_share_a_run(self, sensing_mode):
        # every verdict is one uniform against the point's rate, so the
        # points' sample counts N need not agree; thresholds about each
        # N's noise level keep both verdicts in play
        points = [scenario(p_on=0.3, levels=4,
                           det=detector(threshold=1.0 + 2.0 / math.sqrt(n), n=n))
                  for n in (50, 400, 2000)]
        assert [p.detector.sample_count for p in points] == [50, 400, 2000]
        cfg = SimConfig(slots=5000, replications=2, seed=66, sensing_mode=sensing_mode)
        for scn, report in zip(points, simulate.run_points(points, cfg)):
            alone = run_simulation(scn, cfg)
            assert report_counters(report) == report_counters(alone)
            assert (report.battery_transition_counts == alone.battery_transition_counts).all()
            assert report.replication_loss_rates == alone.replication_loss_rates

    def test_rejects_no_points(self):
        with pytest.raises(ValueError, match="at least one"):
            simulate.run_points([], SimConfig(slots=10, replications=1))
