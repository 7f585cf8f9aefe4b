"""Closed-form detector, access and battery quantities against oracles."""

import copy
import math
import pickle
import re
import warnings
from dataclasses import fields, replace
from fractions import Fraction
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import gammaincc

from ehcrn.analytic import (
    BatteryModel,
    DetectorConfig,
    Scenario,
    access_prob_from_rates,
    battery_diagonals,
    battery_steady_state,
    battery_transition_matrix,
    birth_death_steady_state,
    detector_rates,
    gamma_tail,
    operating_point,
    outage_prob,
    steady_state_numeric,
    threshold_for_target_pf,
)
from ehcrn import validate
from ehcrn.analytic import TARGET_PF_MAX_SAMPLES, _raise_first
from ehcrn.chains import TwoStateChain
from ehcrn.configio import apply_overrides, load_config
from ehcrn.errors import NumericsError
from ehcrn.validate import closed_form_vs_numeric, random_batteries, run_validation

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SNR_M15_DB = 10.0 ** (-1.5)  # -15 dB as a linear ratio

# Frozen oracle values.
# quad_tail((1/(1+SNR_M15_DB) - 1) * sqrt(2000)) -- see test_gaussian.quad_tail.
PD_AT_UNIT_THRESHOLD = 0.9147911766150735
# noise_power * (1 + Qinv(0.01)/sqrt(2000))
THRESHOLD_PF_01_N2000 = 1.0520187198566744
# operating_point(...).packet_loss at the case-1 base point below;
# cross-checked against a 1e7-slot simulation (difference +0.0015, inside
# the max(3sigma, 0.005) Monte-Carlo agreement band used throughout).
CASE1_BASE_PACKET_LOSS = 0.7358965045217091


def detector(threshold=1.0, snr=SNR_M15_DB, tau=0.002, fs=1e6, noise=1.0):
    return DetectorConfig(
        sensing_duration=tau, sampling_rate=fs, noise_power=noise,
        threshold=threshold, primary_snr=snr,
    )


def case1_base_scenario():
    det = detector()
    det = replace(det, threshold=threshold_for_target_pf(0.01, det))
    return Scenario(
        spectrum=TwoStateChain(0.5, 0.7),
        energy=TwoStateChain(0.7, 0.5),
        detector=det,
        battery_levels=100,
        slot_duration=0.1,
    )


batteries = st.builds(
    BatteryModel,
    levels=st.integers(min_value=2, max_value=25),
    access_prob=st.floats(min_value=0.01, max_value=0.99),
    harvest_prob=st.floats(min_value=0.01, max_value=0.99),
)


def loop_transition_matrix(b):
    """The per-level loop that built the battery matrix before it was
    assembled from its diagonals; the bit-for-bit oracle."""
    levels, delta, e_on = b.levels, b.access_prob, b.harvest_prob
    down = delta * (1.0 - e_on)
    up = (1.0 - delta) * e_on
    stay = math.fsum((1.0, -down, -up))
    mat = np.zeros((levels, levels))
    mat[0, 0] = 1.0 - e_on
    mat[0, 1] = e_on
    for l in range(1, levels - 1):
        mat[l, l - 1] = down
        mat[l, l] = stay
        mat[l, l + 1] = up
    mat[levels - 1, levels - 2] = down
    mat[levels - 1, levels - 1] = 1.0 - down
    return mat


# The bodies of battery_diagonals, battery_steady_state and
# birth_death_steady_state before they worked in place: each temporary a
# new array, the padding set by np.where and boolean-index stores.  They
# are the bit-for-bit oracle of the in-place forms.

def reference_batch(b):
    models = [b] if isinstance(b, BatteryModel) else list(b)
    top = np.array([m.levels - 1 for m in models], dtype=int).reshape(-1, 1)
    return models, isinstance(b, BatteryModel), top, np.arange(int(top.max(initial=1)) + 1)


def reference_battery_diagonals(b):
    models, single, top, col = reference_batch(b)
    delta = np.array([m.access_prob for m in models]).reshape(-1, 1)
    e_on = np.array([m.harvest_prob for m in models]).reshape(-1, 1)
    down, up = delta * (1.0 - e_on), (1.0 - delta) * e_on
    mid = np.array([math.fsum((1.0, -d, -u)) for d, u in zip(down.flat, up.flat)]).reshape(-1, 1)
    inner = col[:-1] < top
    downs, ups = np.where(inner, down, 1.0), np.where(inner, up, 0.0)
    ups[:, 0] = e_on[:, 0]
    stay = np.where(col < top, mid, np.where(col == top, 1.0 - down, 0.0))
    stay[:, 0] = 1.0 - e_on[:, 0]
    return (downs[0], stay[0], ups[0]) if single else (downs, stay, ups)


def reference_battery_steady_state(b):
    models, single, top, col = reference_batch(b)
    slope, shift, fixed = np.zeros(len(models)), np.zeros(len(models)), []
    for k, m in enumerate(models):
        delta, e_on = m.access_prob, m.harvest_prob
        if e_on in (0.0, 1.0) or delta == 0.0:
            fixed.append((k, 0 if e_on == 0.0 else m.levels - 1, 1.0))
        elif (d := m._alpha_minus_one()) <= -1.0:
            fixed += [(k, 0, 1.0 - e_on), (k, 1, e_on)]
        else:
            slope[k] = math.log1p(d) if abs(d) < 0.5 else math.log(m.alpha)
            shift[k] = math.log(1.0 - delta)
    logw = col * slope[:, None] - shift[:, None]
    logw[:, 0] = 0.0
    logw[col > top] = -np.inf
    w = np.exp(logw - logw.max(axis=-1, keepdims=True))
    vec = w / w.sum(axis=-1, keepdims=True)
    if fixed:
        rows, cols, values = zip(*fixed)
        vec[list(rows)] = 0.0
        vec[rows, cols] = values
    return vec[0] if single else vec


def reference_birth_death_steady_state(down, stay, up):
    down, stay, up = (np.asarray(v, dtype=float) for v in (down, stay, up))
    rows = stay.copy()
    rows[..., :-1] += up
    rows[..., 1:] += down
    _raise_first(~(np.abs(rows - 1.0) <= 1e-9), "matrix is not row-stochastic in batch row {row}")
    _raise_first(down == 0.0, "a down entry is 0 in batch row {row}; "
                 "the chain is likely not irreducible")
    logw = np.zeros(stay.shape)
    with np.errstate(divide="ignore"):
        np.cumsum(np.log(np.abs(up)) - np.log(np.abs(down)), axis=-1, out=logw[..., 1:])
    pi = np.exp(logw - logw.max(axis=-1, keepdims=True), out=logw)
    flip = np.logical_xor.accumulate((up < 0) != (down < 0), axis=-1)
    np.negative(pi[..., 1:], out=pi[..., 1:], where=flip)
    pi /= pi.sum(axis=-1, keepdims=True)
    flow = pi * stay
    flow[..., 1:] += pi[..., :-1] * up
    flow[..., :-1] += pi[..., 1:] * down
    flow -= pi
    residual, lowest = np.max(np.abs(flow, out=flow), axis=-1), pi.min(axis=-1)
    _raise_first(~((residual <= 1e-12) & (lowest >= -1e-10))[..., None],
                 "stationary solve is unreliable: residual {residual:.3e}, "
                 "min entry {lowest:.3e} in batch row {row}", residual=residual, lowest=lowest)
    return pi


def reference_random_batteries():
    """validate.random_batteries before it was built once per process: a
    generator that draws the 200 instances anew on every call."""
    rng = np.random.default_rng(20240101)
    for i in range(200):
        levels = int(rng.integers(2, 200 + 1))
        delta = float(rng.uniform(0.01, 0.99))
        e_on = delta if i % 10 == 0 else float(rng.uniform(0.01, 0.99))
        yield BatteryModel(levels, delta, e_on)


# Batteries on and next to the boundaries of [0, 1]^2, with L = 2 among them.
MIXED_BOUNDARY_MODELS = [
    BatteryModel(6, 0.4, 0.0), BatteryModel(3, 0.4, 1.0),
    BatteryModel(5, 0.0, 0.3), BatteryModel(4, 1.0, 0.3),
    BatteryModel(7, 1.0 - 2.0**-53, 0.01), BatteryModel(2, 0.3, 0.3),
    BatteryModel(9, 0.02, 0.98), BatteryModel(2, 0.0, 0.0),
]


class TestDetectorConfig:
    def test_sample_count(self):
        assert detector().sample_count == 2000
        # one-ulp-under product still rounds to the intended integer
        assert detector(tau=0.003).sample_count == 3000

    def test_stored_sample_count_follows_the_fields(self):
        det = detector(tau=0.003)
        scenario = replace(case1_base_scenario(), detector=det)
        derived = [
            replace(det, sensing_duration=0.0025), replace(det, sampling_rate=2.5e5),
            apply_overrides(scenario, 0.05, {"primary_snr_db": -10.0})[0].detector,
            apply_overrides(scenario, None, {"normalized_threshold": 1.2})[0].detector,
            copy.copy(det), copy.deepcopy(det), pickle.loads(pickle.dumps(det)),
        ]
        assert [d.sample_count for d in derived] == [
            math.floor(d.sensing_duration * d.sampling_rate * (1.0 + 1e-12)) for d in derived
        ] == [2500, 750, 3000, 3000, 3000, 3000, 3000]

    def test_sample_count_is_not_a_field(self):
        det = detector()
        assert [f.name for f in fields(DetectorConfig)] == [
            "sensing_duration", "sampling_rate", "noise_power", "threshold", "primary_snr"]
        assert det == detector() and det != detector(tau=0.003)
        assert hash(det) == hash(detector()) == hash(tuple(getattr(det, f.name) for f in fields(det)))
        assert repr(det) == ("DetectorConfig(sensing_duration=0.002, sampling_rate=1000000.0, "
                             f"noise_power=1.0, threshold=1.0, primary_snr={SNR_M15_DB!r})")

    @pytest.mark.parametrize("tau, fs", [
        (1e10, 1e300),  # the product itself overflows
        (1.0, 1.7976931348614168e308),  # finite, until the (1 + 1e-12) factor
    ], ids=["product", "factor"])
    def test_overflowing_sample_count(self, tau, fs):
        assert tau * fs * (1.0 + 1e-12) == math.inf
        with pytest.raises(ValueError) as info:
            detector(tau=tau, fs=fs)
        assert str(info.value) == ("sensing_duration * sampling_rate must give a finite sample "
                                   f"count, got {tau!r} * {fs!r}")

    def test_validation(self):
        with pytest.raises(ValueError):
            detector(threshold=0.0)
        with pytest.raises(ValueError):
            detector(snr=-0.5)
        with pytest.raises(ValueError):
            detector(tau=1e-7)  # under one sample
        with pytest.raises(ValueError, match="sensing_duration"):
            detector(tau=True)  # a bool is not a number
        with pytest.raises(ValueError, match="^sampling_rate"):
            detector(fs=10**400)  # an integer too large for a double


def gaussian_rates(**kwargs):
    """(P_f, P_d) of ``detector(**kwargs)`` under the closed forms' Gaussian law."""
    return detector_rates(detector(**kwargs), "event")


class TestFalseAlarm:
    def test_half_at_noise_level(self):
        assert gaussian_rates(threshold=1.0)[0] == 0.5

    def test_table_point(self):
        assert gaussian_rates(threshold=1.052018)[0] == pytest.approx(0.01, abs=1e-4)

    def test_deep_tail(self):
        assert gaussian_rates(threshold=2.0)[0] < 1e-15

    @given(st.floats(min_value=0.5, max_value=2.0), st.floats(min_value=1e-4, max_value=0.5))
    def test_monotone_in_threshold(self, eps, step):
        assert gaussian_rates(threshold=eps + step)[0] <= gaussian_rates(threshold=eps)[0]


class TestDetection:
    def test_half_at_signal_plus_noise_level(self):
        assert gaussian_rates(threshold=1.0 + SNR_M15_DB)[1] == pytest.approx(0.5, abs=1e-12)

    def test_table_point(self):
        pd = gaussian_rates(threshold=1.0)[1]
        assert pd == pytest.approx(0.91475, abs=1e-4)
        assert pd == pytest.approx(PD_AT_UNIT_THRESHOLD, abs=1e-12)

    def test_approaches_one_with_snr(self):
        last = 0.0
        for snr in (0.1, 1.0, 10.0, 100.0):
            pd = gaussian_rates(threshold=1.3, snr=snr)[1]
            assert pd >= last
            last = pd
        assert last > 1.0 - 1e-12

    @given(st.floats(min_value=0.5, max_value=2.0), st.floats(min_value=1e-4, max_value=0.5))
    def test_monotone_in_threshold(self, eps, step):
        assert gaussian_rates(threshold=eps + step)[1] <= gaussian_rates(threshold=eps)[1]

    @given(st.floats(min_value=0.2, max_value=3.0))
    def test_dominates_false_alarm(self, eps):
        pf, pd = gaussian_rates(threshold=eps)
        assert pd >= pf


class TestGammaTail:
    """Q(n, x), the exact law of the energy detector, against scipy."""

    # N = 1 ... 20000 on a log grid (every N up to 30), x / N on [0.01, 3]
    NS = sorted(set(range(1, 31)) | {int(v) for v in np.geomspace(30, 20000, 120)})
    RATIOS = np.concatenate([np.linspace(0.01, 3.0, 300), 1.0 + np.linspace(-0.05, 0.05, 41)])

    def test_matches_scipy(self):
        worst = 0.0
        for n in self.NS:
            for ratio in self.RATIOS:
                x = float(n * ratio)
                want = float(gammaincc(n, x))
                if want >= 1e-300:
                    worst = max(worst, abs(gamma_tail(n, x) - want) / want)
        assert worst <= 1e-10

    @pytest.mark.parametrize("n", [1, 2, 7, 50, 2000, 20000])
    def test_ends(self, n):
        assert gamma_tail(n, 0.0) == 1.0
        assert gamma_tail(n, math.inf) == 0.0

    @pytest.mark.parametrize("x", [1e-300, 1e-9, 0.3, 1.0, 2.0, 17.5, 700.0, 800.0])
    def test_one_sample_is_the_exponential_tail(self, x):
        assert gamma_tail(1, x) == math.exp(-x)

    def test_falls_in_x_and_rises_in_n(self):
        assert gamma_tail(2000, 1990.0) > gamma_tail(2000, 2000.0) > gamma_tail(2000, 2010.0)
        assert gamma_tail(1999, 2000.0) < gamma_tail(2000, 2000.0) < gamma_tail(2001, 2000.0)

    def test_stock_detector_rates(self):
        # target P_f 0.01 at -13 dB: the exact law next to the Gaussian
        # approximation (0.01 and, at N = 2000, 0.467755).  The threshold
        # inverts the Gaussian law, so the exact P_f overshoots the target,
        # the more the fewer samples.
        det = detector(snr=10.0 ** -1.3)
        det = replace(det, threshold=threshold_for_target_pf(0.01, det))
        limit = det.threshold * det.sample_count
        assert gamma_tail(2000, limit) == pytest.approx(0.010878, abs=5e-7)
        assert gamma_tail(2000, limit / (1.0 + det.primary_snr)) == pytest.approx(0.464812, abs=5e-7)
        for n, exact_pf in [(1, 0.03592), (20, 0.01852), (100, 0.01391), (2000, 0.01088)]:
            det = detector(snr=10.0 ** -1.3, tau=n / 1e6)
            det = replace(det, threshold=threshold_for_target_pf(0.01, det))
            pf = detector_rates(det, "signal")[0]
            assert pf == pytest.approx(float(gammaincc(n, det.threshold * n)), rel=1e-10)
            assert pf == pytest.approx(exact_pf, abs=5e-6)

    @pytest.mark.parametrize("noise", [1.0, 0.3, 7.0])
    @pytest.mark.parametrize("tau", [0.00005, 0.002])
    def test_exact_detector_pair(self, noise, tau):
        # busy above eps with probability Q(N, eps N / v): v = N0 when idle,
        # (SNR + 1) N0 when occupied
        det = detector(threshold=1.02 * noise, tau=tau, noise=noise)
        n = det.sample_count
        idle, occupied = noise, (det.primary_snr + 1.0) * noise
        pf, pd = detector_rates(det, "signal")
        assert pf == pytest.approx(float(gammaincc(n, det.threshold * n / idle)), rel=1e-10)
        assert pd == pytest.approx(float(gammaincc(n, det.threshold * n / occupied)), rel=1e-10)
        assert pd > pf

    @pytest.mark.parametrize("n, x", [(0, 1.0), (-1, 1.0), (5, -1.0), (5, math.nan),
                                      (math.nan, 1.0)])
    def test_rejects(self, n, x):
        with pytest.raises(ValueError, match="gamma_tail"):
            gamma_tail(n, x)


class TestThresholdFromTarget:
    def test_half_gives_noise_power(self):
        assert threshold_for_target_pf(0.5, detector()) == pytest.approx(1.0, abs=1e-12)

    def test_table_point(self):
        eps = threshold_for_target_pf(0.01, detector())
        assert eps == pytest.approx(1.052018, abs=1e-5)
        assert eps == pytest.approx(THRESHOLD_PF_01_N2000, abs=1e-12)

    @pytest.mark.parametrize("target", [0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5])
    def test_round_trip(self, target):
        det = detector()
        eps = threshold_for_target_pf(target, det)
        assert detector_rates(replace(det, threshold=eps), "event")[0] == pytest.approx(target, abs=1e-9)

    @pytest.mark.parametrize("target", [0.0, 1.0, -0.2, 2.0])
    def test_domain_error(self, target):
        with pytest.raises(ValueError):
            threshold_for_target_pf(target, detector())

    # 1 s at these rates gives N = 2**52 and 2**52 + 1: the product's 1e-12
    # forgiveness adds 4503.6 samples at this scale.
    AT_BOUND, ABOVE_BOUND = 2.0**52 - 4504, 2.0**52 - 4503

    @pytest.mark.parametrize("noise", [1e-6, 1.0, 1e6])
    def test_round_trip_at_the_sample_bound(self, noise):
        det = detector(tau=1.0, fs=self.AT_BOUND, noise=noise)
        assert det.sample_count == TARGET_PF_MAX_SAMPLES == 2**52
        targets = [10.0**e for e in range(-12, 0)] + [0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99]
        for target in targets:
            eps = threshold_for_target_pf(target, det)
            assert abs(detector_rates(replace(det, threshold=eps), "event")[0] - target) <= 1e-9

    def test_rejects_above_the_sample_bound(self):
        det = detector(tau=1.0, fs=self.ABOVE_BOUND)
        assert det.sample_count == 2**52 + 1
        with pytest.raises(ValueError) as info:
            threshold_for_target_pf(0.01, det)
        assert str(info.value) == ("a target false-alarm probability needs at most 2**52 samples, "
                                   "got 4503599627370497; set normalized_threshold instead")


class TestAccessProb:
    def test_perfect_sensing(self):
        assert access_prob_from_rates(0.0, 1.0, 0.375) == 0.375

    def test_hand_point(self):
        assert access_prob_from_rates(0.01, 0.9, 0.375) == pytest.approx(0.43375, abs=1e-12)

    def test_never_accesses(self):
        assert access_prob_from_rates(1.0, 1.0, 0.375) == 0.0

    def test_composition(self):
        det = detector()
        scn = replace(case1_base_scenario(), detector=det)  # pi_idle 0.375
        expected = access_prob_from_rates(*detector_rates(det, "event"), 0.375)
        assert operating_point(scn).delta == pytest.approx(expected, abs=1e-15)


class TestBatteryModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            BatteryModel(1, 0.5, 0.5)
        with pytest.raises(ValueError):
            BatteryModel(3, -0.1, 0.5)
        with pytest.raises(ValueError):
            BatteryModel(3, 1.1, 0.5)
        with pytest.raises(ValueError):
            BatteryModel(3, 0.5, -0.1)
        for bad in (True, "0.5"):  # neither a bool nor text is a probability
            with pytest.raises(ValueError, match="access probability"):
                BatteryModel(5, bad, 0.5)

    @pytest.mark.parametrize("levels", [np.int64(5), np.int8(5), np.uint16(5)])
    def test_takes_numpy_integer_levels(self, levels):
        battery, plain = BatteryModel(levels, 0.3, 0.6), BatteryModel(5, 0.3, 0.6)
        assert battery == plain and outage_prob(battery) == outage_prob(plain)

    def test_matrix_hand_point(self):
        mat = battery_transition_matrix(BatteryModel(3, 0.5, 0.5))
        expected = np.array([
            [0.5, 0.5, 0.0],
            [0.25, 0.5, 0.25],
            [0.0, 0.25, 0.75],
        ])
        assert (mat == expected).all()

    def test_matrix_no_harvest(self):
        mat = battery_transition_matrix(BatteryModel(4, 0.3, 0.0))
        assert mat[0, 0] == 1.0
        assert (np.triu(mat, k=1) == 0.0).all()  # drift toward empty only

    @given(batteries)
    def test_rows_sum_exactly_one(self, battery):
        mat = battery_transition_matrix(battery)
        # exact under error-free summation; one-ulp under naive summation
        assert all(math.fsum(row) == 1.0 for row in mat)
        assert np.max(np.abs(mat.sum(axis=1) - 1.0)) <= 2e-16
        assert (mat >= 0.0).all()

    @given(batteries)
    def test_tridiagonal(self, battery):
        mat = battery_transition_matrix(battery)
        assert (np.triu(mat, k=2) == 0.0).all()
        assert (np.tril(mat, k=-2) == 0.0).all()

    @pytest.mark.parametrize("levels", [2, 3, 17])
    @pytest.mark.parametrize("delta", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("e_on", [0.0, 0.62, 1.0])
    def test_matches_loop_oracle(self, levels, delta, e_on):
        battery = BatteryModel(levels, delta, e_on)
        assert np.array_equal(battery_transition_matrix(battery), loop_transition_matrix(battery))

    @given(batteries)
    def test_matches_loop_oracle_property(self, battery):
        assert np.array_equal(battery_transition_matrix(battery), loop_transition_matrix(battery))


class TestOutage:
    def test_no_harvest(self):
        assert outage_prob(BatteryModel(5, 0.5, 0.0)) == 1.0

    def test_constant_harvest(self):
        assert outage_prob(BatteryModel(5, 0.5, 1.0)) == 0.0

    def test_balanced_hand_point(self):
        # delta == e_on == 0.5 gives ratio 1; limit value (1-d)/(L-d)
        assert outage_prob(BatteryModel(3, 0.5, 0.5)) == pytest.approx(0.2, abs=1e-15)

    def test_monotone_toward_empty(self):
        last = 0.0
        for e_on in (0.5, 0.2, 0.1, 0.01, 0.001):
            pi0 = outage_prob(BatteryModel(10, 0.8, e_on))
            assert pi0 >= last
            last = pi0

    @given(batteries)
    def test_agrees_with_linear_solver(self, battery):
        numeric = steady_state_numeric(battery_transition_matrix(battery))
        assert abs(outage_prob(battery) - numeric[0]) <= 1e-10

    @pytest.mark.parametrize("gap", [1e-1, 1e-3, 1e-6, 1e-9, 1e-12, 1e-13, 1e-15])
    def test_exact_rationals_as_delta_tends_to_one(self, gap):
        # pi_0 = (1 - delta) / ((1 - delta) + sum_{l=1}^{L-1} alpha^l) of the
        # float inputs in exact rational arithmetic; alpha - 1 -> -1 here
        # and must not cost alpha its digits
        def exact(levels, delta, e_on):
            delta, e_on = Fraction(delta), Fraction(e_on)
            alpha = (1 - delta) * e_on / (delta * (1 - e_on))
            return (1 - delta) / ((1 - delta) + sum(alpha**l for l in range(1, levels)))

        for levels in (2, 5, 100):
            for e_on in (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
                pi0 = outage_prob(BatteryModel(levels, 1.0 - gap, e_on))
                assert abs(pi0 - float(exact(levels, 1.0 - gap, e_on))) <= 8 * 2.0**-53

    def test_extreme_ratio_large_battery(self):
        # drift strongly up: outage underflows to zero, no overflow
        assert outage_prob(BatteryModel(200, 0.02, 0.98)) == 0.0
        # drift strongly down: agrees with the solver, close to always-empty
        battery = BatteryModel(200, 0.98, 0.02)
        numeric = steady_state_numeric(battery_transition_matrix(battery))
        assert outage_prob(battery) == pytest.approx(numeric[0], abs=1e-10)
        assert outage_prob(battery) > 0.9


class TestBatterySteadyState:
    def test_hand_point(self):
        vec = battery_steady_state(BatteryModel(3, 0.5, 0.5))
        assert vec == pytest.approx([0.2, 0.4, 0.4], abs=1e-12)

    def test_boundaries(self):
        assert (battery_steady_state(BatteryModel(4, 0.5, 0.0)) == [1, 0, 0, 0]).all()
        assert (battery_steady_state(BatteryModel(4, 0.5, 1.0)) == [0, 0, 0, 1]).all()

    @pytest.mark.parametrize("gap", [1e-1, 1e-3, 1e-6, 1e-9, 1e-12, 1e-13, 1e-15])
    def test_exact_rationals_as_delta_tends_to_one(self, gap):
        # pi_l = alpha^l pi_0 / (1 - delta) for l >= 1, normalised, of the
        # float inputs in exact rational arithmetic; as in
        # TestOutage.test_exact_rationals_as_delta_tends_to_one, alpha - 1
        # -> -1 here and must not cost alpha its digits
        def exact(levels, delta, e_on):
            delta, e_on = Fraction(delta), Fraction(e_on)
            alpha = (1 - delta) * e_on / (delta * (1 - e_on))
            weights = [Fraction(1)] + [alpha**l / (1 - delta) for l in range(1, levels)]
            total = sum(weights)
            return [float(w / total) for w in weights]

        for levels in (2, 5, 100):
            for e_on in (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
                vec = battery_steady_state(BatteryModel(levels, 1.0 - gap, e_on))
                assert np.max(np.abs(vec - exact(levels, 1.0 - gap, e_on))) <= 16 * 2.0**-53

    @given(batteries)
    def test_agrees_with_linear_solver(self, battery):
        numeric = steady_state_numeric(battery_transition_matrix(battery))
        closed = battery_steady_state(battery)
        assert np.max(np.abs(closed - numeric)) <= 1e-10

    @given(batteries)
    def test_normalised_and_consistent(self, battery):
        vec = battery_steady_state(battery)
        assert abs(vec.sum() - 1.0) <= 1e-12
        assert vec.min() >= 0.0
        assert abs(vec[0] - outage_prob(battery)) <= 1e-12

    @given(batteries)
    def test_balance_recurrences(self, battery):
        # pi_{l+1} delta (1-e) == pi_l (1-delta) e, and the level-0 boundary
        # pi_1 delta (1-e) == pi_0 e.
        vec = battery_steady_state(battery)
        delta, e_on = battery.access_prob, battery.harvest_prob
        down, up = delta * (1.0 - e_on), (1.0 - delta) * e_on
        scale = max(vec.max(), 1e-300)
        assert abs(vec[1] * down - vec[0] * e_on) <= 1e-12 * scale
        for l in range(1, battery.levels - 1):
            assert abs(vec[l + 1] * down - vec[l] * up) <= 1e-12 * scale


class TestBatteryBatch:
    """A list of models gives the one-model diagonals and vectors, row by row."""

    @staticmethod
    def assert_rows_match(models):
        down, stay, up = battery_diagonals(models)
        vec = battery_steady_state(models)
        width = max(b.levels for b in models)
        assert (down.shape, stay.shape, up.shape, vec.shape) == (
            (len(models), width - 1), (len(models), width), (len(models), width - 1),
            (len(models), width))
        for k, battery in enumerate(models):
            n = battery.levels
            one_down, one_stay, one_up = battery_diagonals(battery)
            assert np.array_equal(down[k, :n - 1], one_down) and (down[k, n - 1:] == 1.0).all()
            assert np.array_equal(stay[k, :n], one_stay) and (stay[k, n:] == 0.0).all()
            assert np.array_equal(up[k, :n - 1], one_up) and (up[k, n - 1:] == 0.0).all()
            # the weights match bit for bit, but the normalising sum runs over
            # the padded length in another order: the two sums of at most W
            # positive terms differ by under 2 (W - 1) ulp, plus one rounding
            # in each division
            single = battery_steady_state(battery)
            bound = (2 * width + 2) * 2.0**-53 * single + 2.0**-1074
            assert (np.abs(vec[k, :n] - single) <= bound).all()
            assert not vec[k, n:].any()
        return vec

    def test_random_batteries(self):
        models = list(random_batteries())
        vec = self.assert_rows_match(models)
        for battery, row in zip(models, vec):
            assert np.max(np.abs(row[:battery.levels] - battery_steady_state(battery))) <= 2.3e-16

    def test_mixed_boundary_models(self):
        models = MIXED_BOUNDARY_MODELS
        vec = self.assert_rows_match(models)
        for k in (0, 1, 2, 3, 4, 7):  # the boundary rows are set, not normalised
            n = models[k].levels
            assert vec[k, :n].tolist() == battery_steady_state(models[k]).tolist()

    @given(st.lists(batteries, min_size=1, max_size=8))
    def test_matches_single_calls_property(self, models):
        self.assert_rows_match(models)

    def test_empty_batch(self):
        assert [v.shape for v in battery_diagonals([])] == [(0, 1), (0, 2), (0, 1)]
        assert battery_steady_state([]).shape == (0, 2)

    def test_validate_builds_each_batch_once(self, monkeypatch):
        calls = {"battery_diagonals": 0, "battery_steady_state": 0}
        for name in calls:
            def spy(b, _real=getattr(validate, name), _name=name):
                calls[_name] += 1
                return _real(b)
            monkeypatch.setattr(validate, name, spy)
        closed_form_vs_numeric()
        assert calls == {"battery_diagonals": 1, "battery_steady_state": 1}


class TestSharedRandomBatteries:
    """validate.random_batteries builds the reference's 200 instances once
    per process; every check that uses them still runs in full."""

    @staticmethod
    def bits(models):
        return [tuple(v.hex() if type(v) is float else v
                      for v in (getattr(m, f.name) for f in fields(m))) for m in models]

    def test_same_instances_as_the_reference(self):
        built, want = random_batteries(), tuple(reference_random_batteries())
        assert type(built) is tuple and len(built) == 200
        assert self.bits(built) == self.bits(want)
        assert built == want

    def test_built_once(self):
        assert random_batteries() is random_batteries()

    def test_cold_and_warm_certificates_agree(self):
        random_batteries.cache_clear()
        cold = closed_form_vs_numeric()
        assert random_batteries.cache_info().currsize == 1
        warm = closed_form_vs_numeric()
        assert [x.hex() for x in cold] == [x.hex() for x in warm]

    @pytest.mark.parametrize("case", ["case1", "case2"])
    def test_run_validation_repeats(self, case):
        bundle = load_config(str(CONFIGS / f"{case}.cfg"))
        random_batteries.cache_clear()
        first = run_validation(bundle)
        assert len(first) == 5 and all(r.passed for r in first)
        assert run_validation(bundle) == first


class TestInPlaceOracle:
    """The in-place battery diagonals, vector and solver give the bytes of
    the reference bodies, on the machine that runs the test."""

    @staticmethod
    def assert_same_bytes(b):
        for new, old in zip(battery_diagonals(b), reference_battery_diagonals(b)):
            assert new.shape == old.shape and new.tobytes() == old.tobytes()
        new, old = battery_steady_state(b), reference_battery_steady_state(b)
        assert new.shape == old.shape and new.tobytes() == old.tobytes()

    @staticmethod
    def solve(solver, diagonals):
        """The solver's bytes, or its NumericsError message."""
        try:
            return solver(*diagonals).tobytes()
        except NumericsError as exc:
            return str(exc)

    def assert_same_solve(self, diagonals):
        new = self.solve(birth_death_steady_state, diagonals)
        assert new == self.solve(reference_birth_death_steady_state, diagonals)
        return new

    def test_random_batch(self):
        models = list(random_batteries())
        self.assert_same_bytes(models)
        diagonals = battery_diagonals(models)
        assert isinstance(self.assert_same_solve(diagonals), bytes)
        assert isinstance(self.assert_same_solve([v.reshape(4, 50, -1) for v in diagonals]), bytes)

    def test_each_single_battery(self):
        for battery in random_batteries():
            self.assert_same_bytes(battery)
            assert isinstance(self.assert_same_solve(battery_diagonals(battery)), bytes)

    def test_mixed_boundary_models(self):
        self.assert_same_bytes(MIXED_BOUNDARY_MODELS)
        down, stay, up = battery_diagonals(MIXED_BOUNDARY_MODELS)
        assert self.assert_same_solve((down, stay, up)).startswith("a down entry is 0 in batch row 1;")
        solvable = down.all(axis=-1)
        assert solvable.sum() == 5
        assert isinstance(self.assert_same_solve((down[solvable], stay[solvable], up[solvable])), bytes)
        for battery in MIXED_BOUNDARY_MODELS:
            self.assert_same_bytes(battery)
            self.assert_same_solve(battery_diagonals(battery))

    def test_rejections_give_the_same_message(self):
        # the certificate's message carries the residual and the lowest entry
        def perturbed(row, stay_step, up_step):
            down, stay, up = battery_diagonals(list(islice(random_batteries(), 5)))
            stay[row, 0] += stay_step
            up[row, 0] += up_step
            return down, stay, up

        for diagonals, start, row in (
                (perturbed(3, 1e-6, 0.0), "matrix is not row-stochastic", 3),
                (perturbed(4, 5e-10, 0.0), "stationary solve is unreliable: residual", 4),
                (perturbed(2, 1.0, -1.0), "stationary solve is unreliable: residual", 2)):  # up < 0
            message = self.assert_same_solve(diagonals)
            assert message.startswith(start) and message.endswith(f"in batch row {row}")

    @given(st.lists(batteries, min_size=1, max_size=8))
    def test_matches_reference_property(self, models):
        self.assert_same_bytes(models)
        self.assert_same_solve(battery_diagonals(models))

    @staticmethod
    def negated(negate):
        """Diagonals of three batteries, the first drifting down so hard that
        its upper levels are below 1e-30, with the (diagonal, column) entries
        of its row in ``negate`` negated and each changed row's stay making
        up the difference: the chain passes the certificate with signed levels."""
        down, stay, up = battery_diagonals([BatteryModel(30, 0.9, 0.1), BatteryModel(12, 0.5, 0.5),
                                            BatteryModel(25, 0.3, 0.6)])
        for name, k in negate:
            entries, level = (down, k + 1) if name == "down" else (up, k)
            stay[0, level] += 2.0 * entries[0, k]
            entries[0, k] *= -1.0
        return down, stay, up

    def signs(self, diagonals):
        pi = np.frombuffer(self.assert_same_solve(diagonals)).reshape(3, -1)
        assert (pi[1:] >= 0.0).all()
        return np.flatnonzero(pi[0] < 0.0).tolist()

    def test_negative_down_entry(self):
        # the only negative entry is in down: every level above it flips
        assert self.signs(self.negated([("down", 19)])) == list(range(20, 30))

    def test_two_negatives_in_one_row_toggle_back(self):
        assert self.signs(self.negated([("up", 15), ("down", 19)])) == list(range(16, 20))


class TestNumericSolver:
    def test_symmetric_two_state(self):
        pi = steady_state_numeric(np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert pi == pytest.approx([0.5, 0.5], abs=1e-14)

    def test_battery_hand_point(self):
        pi = steady_state_numeric(battery_transition_matrix(BatteryModel(3, 0.5, 0.5)))
        assert pi == pytest.approx([0.2, 0.4, 0.4], abs=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(NumericsError):
            steady_state_numeric(np.ones((2, 3)))

    def test_rejects_non_stochastic(self):
        with pytest.raises(NumericsError):
            steady_state_numeric(np.array([[0.5, 0.4], [0.5, 0.5]]))

    def test_rejects_reducible(self):
        with pytest.raises(NumericsError, match="irreducible"):
            steady_state_numeric(np.eye(2))

    def test_residual_bound(self):
        battery = BatteryModel(150, 0.37, 0.62)
        mat = battery_transition_matrix(battery)
        pi = steady_state_numeric(mat)
        assert np.max(np.abs(pi @ mat - pi)) <= 1e-12


class TestBoundaryLimits:
    """delta on {0, 1}: finite limits of the closed forms."""

    @pytest.mark.parametrize("e_on", [0.01, 0.3, 0.375, 0.9])
    @pytest.mark.parametrize("levels", [2, 5, 100])
    def test_full_access(self, levels, e_on):
        battery = BatteryModel(levels, 1.0, e_on)
        assert battery.alpha == 0.0
        assert outage_prob(battery) == 1.0 - e_on
        vec = battery_steady_state(battery)
        assert vec[:2].tolist() == [1.0 - e_on, e_on] and not vec[2:].any()
        numeric = steady_state_numeric(battery_transition_matrix(battery))
        assert np.max(np.abs(vec - numeric)) <= 1e-12
        near = BatteryModel(levels, 1.0 - 1e-6, e_on)
        assert abs(outage_prob(near) - outage_prob(battery)) <= 1e-5
        assert np.max(np.abs(battery_steady_state(near) - vec)) <= 1e-5

    # pi_0 ~ delta (1 - e_on) / e_on near delta == 0, so e_on stays >= 0.1
    @pytest.mark.parametrize("e_on", [0.1, 0.3, 0.375, 0.9])
    @pytest.mark.parametrize("levels", [2, 5, 100])
    def test_no_access(self, levels, e_on):
        battery = BatteryModel(levels, 0.0, e_on)
        assert battery.alpha == math.inf
        assert outage_prob(battery) == 0.0
        vec = battery_steady_state(battery)
        assert vec[-1] == 1.0 and not vec[:-1].any()
        numeric = steady_state_numeric(battery_transition_matrix(battery))
        assert np.max(np.abs(vec - numeric)) <= 1e-12
        near = BatteryModel(levels, 1e-6, e_on)
        assert abs(outage_prob(near) - outage_prob(battery)) <= 1e-5
        assert np.max(np.abs(battery_steady_state(near) - vec)) <= 1e-5

    def test_one_ulp_below_full_access(self):
        # alpha - 1 rounds to -1 here, where log1p used to raise; whatever
        # digits the closed form loses this near delta == 1, it stays a law
        battery = BatteryModel(2, 1.0 - 2.0**-53, 0.01)
        assert outage_prob(battery) == 0.99
        assert battery_steady_state(battery).tolist() == [0.99, 0.01]
        for ulps in range(1, 65):
            for e_on in np.linspace(0.01, 0.99, 99):
                battery = BatteryModel(5, 1.0 - ulps * 2.0**-53, float(e_on))
                vec = battery_steady_state(battery)
                assert 0.0 <= outage_prob(battery) <= 1.0
                assert vec.min() >= 0.0 and abs(vec.sum() - 1.0) <= 1e-12

    def test_packet_loss_limits(self):
        # normalized threshold far above / below the noise level drives
        # delta to exactly 1 / 0 in double precision
        base = case1_base_scenario()
        high = replace(base, detector=replace(base.detector, threshold=1.4))
        low = replace(base, detector=replace(base.detector, threshold=0.6))
        op = operating_point(high)
        assert op.delta == 1.0 and op.outage == 1.0 - op.e_on
        assert op.packet_loss == 1.0 - op.e_on * (1.0 - op.pf) * op.pi_idle
        op = operating_point(low)
        assert op.delta == 0.0 and op.alpha == math.inf
        assert op.outage == 0.0 and op.packet_loss == 1.0


class TestBirthDeathSolver:
    def test_matches_dense_on_validate_instances(self):
        count = 0
        for battery in random_batteries():
            fast = birth_death_steady_state(*battery_diagonals(battery))
            dense = steady_state_numeric(battery_transition_matrix(battery))
            assert np.max(np.abs(fast - dense)) <= 1e-12
            count += 1
        assert count == 200

    def test_batch_matches_single_solves(self):
        instances = list(random_batteries())
        batch = birth_death_steady_state(*battery_diagonals(instances))
        assert batch.shape == (200, max(b.levels for b in instances))
        for battery, row in zip(instances, batch):
            single = birth_death_steady_state(*battery_diagonals(battery))
            # the normalising sum runs over the padded length: not bitwise
            assert np.max(np.abs(row[:battery.levels] - single)) <= 2.3e-16
            assert not row[battery.levels:].any()

    def test_batch_axes(self):
        instances = list(islice(random_batteries(), 6))
        down, stay, up = battery_diagonals(instances)
        flat = birth_death_steady_state(down, stay, up)
        shaped = birth_death_steady_state(*(v.reshape(2, 3, -1) for v in (down, stay, up)))
        assert np.array_equal(shaped.reshape(flat.shape), flat)

    def test_batch_names_non_stochastic_row(self):
        down, stay, up = battery_diagonals(list(islice(random_batteries(), 5)))
        stay[3, 0] += 1e-6
        with pytest.raises(NumericsError, match="row-stochastic in batch row 3$"):
            birth_death_steady_state(down, stay, up)

    def test_batch_names_zero_down_row(self):
        down, stay, up = battery_diagonals(list(islice(random_batteries(), 5)))
        stay[2, 1] += down[2, 0]
        down[2, 0] = 0.0
        with pytest.raises(NumericsError, match="down entry is 0 in batch row 2;.*irreducible"):
            birth_death_steady_state(down, stay, up)

    def test_batch_names_unreliable_row(self):
        down, stay, up = battery_diagonals(list(islice(random_batteries(), 5)))
        stay[4, 0] += 5e-10
        with pytest.raises(NumericsError, match=r"unreliable: residual .* in batch row 4$"):
            birth_death_steady_state(down, stay, up)

    @given(batteries)
    def test_matches_dense(self, battery):
        fast = birth_death_steady_state(*battery_diagonals(battery))
        dense = steady_state_numeric(battery_transition_matrix(battery))
        assert np.max(np.abs(fast - dense)) <= 1e-12

    def test_overflowing_product(self):
        # prod of ratios reaches ~1e323 over 200 levels; log space keeps it finite
        battery = BatteryModel(200, 0.02, 0.98)
        pi = birth_death_steady_state(*battery_diagonals(battery))
        assert np.isfinite(pi).all() and pi[-1] > 0.99
        assert np.max(np.abs(pi - battery_steady_state(battery))) <= 1e-12

    def test_hand_point(self):
        pi = birth_death_steady_state(*battery_diagonals(BatteryModel(3, 0.5, 0.5)))
        assert pi == pytest.approx([0.2, 0.4, 0.4], abs=1e-15)

    def test_rejects_non_stochastic(self):
        with pytest.raises(NumericsError, match="row-stochastic"):
            birth_death_steady_state([0.5], [0.5, 0.4], [0.5])

    def test_rejects_zero_down(self):
        with pytest.raises(NumericsError, match="irreducible"):
            birth_death_steady_state([0.0], [0.5, 1.0], [0.5])

    @staticmethod
    def unreliable(down, stay, up):
        """(residual, min entry) reported by the solver's certificate guard."""
        with pytest.raises(NumericsError, match="unreliable") as info:
            birth_death_steady_state(down, stay, up)
        residual, min_entry = re.search(r"residual (\S+), min entry (\S+)", str(info.value)).groups()
        return float(residual), float(min_entry)

    def test_rejects_residual(self):
        # rows sum to 1 within the 1e-9 row guard, but not within the residual bound
        residual, min_entry = self.unreliable([0.5], [0.5 + 5e-10, 0.5], [0.5])
        assert residual > 1e-12 and min_entry >= 0.0

    def test_rejects_negative_entry(self):
        # a negative up entry flips the sign of every level above it
        residual, min_entry = self.unreliable([0.5, 0.5], [1.1, 0.5, 0.5], [-0.1, 0.0])
        assert residual <= 1e-12 and min_entry < -1e-10

    def test_validate_worst_differences(self):
        worst_pi0, worst_vec = closed_form_vs_numeric()
        assert worst_pi0 <= 1e-12 and worst_vec <= 1e-12


# The four types that store their reals as float: a function that makes one
# with ``value`` as one of its reals, that real's attribute, and its
# rejection message.
REAL_CHECKS = {
    "TwoStateChain": (lambda v: TwoStateChain(v, 0.5), "stay_a",
                      "stay_a must lie in [0, 1], got {!r}"),
    "BatteryModel": (lambda v: BatteryModel(5, 0.3, v), "harvest_prob",
                     "harvest probability must lie in [0, 1], got {!r}"),
    "DetectorConfig": (lambda v: detector(noise=v), "noise_power",
                       "noise_power must be a positive finite number, got {!r}"),
    "Scenario": (lambda v: replace(case1_base_scenario(), slot_duration=v), "slot_duration",
                 "slot_duration must be a positive finite number, got {!r}"),
}


class TestRealChecks:
    @pytest.mark.parametrize("kind", list(REAL_CHECKS))
    @pytest.mark.parametrize("value", [np.float32("nan"), np.float64("inf"), True],
                             ids=["float32-nan", "float64-inf", "True"])
    def test_message_shows_the_value_as_given(self, kind, value):
        build, _, message = REAL_CHECKS[kind]
        with pytest.raises(ValueError) as info:
            build(value)
        assert str(info.value) == message.format(value)

    @pytest.mark.parametrize("kind", list(REAL_CHECKS))
    def test_negative_zero(self, kind):
        # a probability may be -0.0, which is stored as given; a positive real may not
        build, attribute, message = REAL_CHECKS[kind]
        if "[0, 1]" in message:
            stored = getattr(build(-0.0), attribute)
            assert type(stored) is float and stored == 0.0 and math.copysign(1.0, stored) == -1.0
        else:
            with pytest.raises(ValueError) as info:
                build(-0.0)
            assert str(info.value) == message.format(-0.0)


class TestScenario:
    def test_sensing_longer_than_slot_rejected(self):
        with pytest.raises(ValueError, match="slot"):
            Scenario(TwoStateChain(0.5, 0.7), TwoStateChain(0.7, 0.5),
                     detector(tau=0.2), 10, 0.1)

    def test_long_sensing_warns(self):
        with pytest.warns(UserWarning, match="tenth"):
            Scenario(TwoStateChain(0.5, 0.7), TwoStateChain(0.7, 0.5),
                     detector(tau=0.05), 10, 0.1)

    @pytest.mark.parametrize("slot", [0.0, -0.1, True, math.inf, math.nan, "0.1",
                                      pytest.param(10**400, id="10**400")])
    def test_rejects_a_bad_slot_duration(self, slot):
        with pytest.raises(ValueError, match="^slot_duration must be a positive finite number"):
            replace(case1_base_scenario(), slot_duration=slot)

    @pytest.mark.parametrize("levels", [np.int64(100), np.int16(100), np.uint8(100)])
    def test_numpy_battery_levels_are_stored_as_int(self, levels):
        # stored as int, so a narrow numpy type cannot overflow in the kernel's bin arithmetic
        scn = replace(case1_base_scenario(), battery_levels=levels)
        assert type(scn.battery_levels) is int and scn == case1_base_scenario()
        assert operating_point(scn) == operating_point(case1_base_scenario())

    def test_float32_reals_are_stored_as_float(self):
        # A float32 field would make the closed forms compute, and overflow, in float32.
        def build(real):
            det = DetectorConfig(real(0.002), real(1e6), real(1.0), real(1.05), real(SNR_M15_DB))
            return Scenario(TwoStateChain(real(0.5), real(0.7)), TwoStateChain(real(0.95), real(0.1)),
                            det, battery_levels=100, slot_duration=real(0.1))

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scn = build(np.float32)
            op = operating_point(scn)
        assert type(scn.slot_duration) is float and type(scn.energy.stay_a) is float
        assert type(scn.detector.primary_snr) is float and type(op.packet_loss) is float
        assert op == operating_point(build(lambda v: float(np.float32(v))))

    def test_stationary_properties(self):
        scn = case1_base_scenario()
        assert scn.pi_idle == pytest.approx(0.375, abs=1e-15)
        assert scn.e_on == pytest.approx(0.625, abs=1e-15)


class TestPacketLoss:
    def test_loss_only_from_occupancy(self):
        # constant harvest => never in outage; loss = 1 - (1-pf) pi_idle
        scn = replace(case1_base_scenario(), energy=TwoStateChain(1.0, 0.0))
        op = operating_point(scn)
        assert op.outage == 0.0
        assert op.packet_loss == pytest.approx(1.0 - (1.0 - op.pf) * op.pi_idle, abs=1e-15)

    def test_permanent_outage(self):
        scn = replace(case1_base_scenario(), energy=TwoStateChain(0.0, 1.0))
        assert operating_point(scn).packet_loss == 1.0

    def test_case1_base_regression(self):
        assert operating_point(case1_base_scenario()).packet_loss == pytest.approx(
            CASE1_BASE_PACKET_LOSS, abs=1e-12)

    def test_bounds(self):
        scn = case1_base_scenario()
        op = operating_point(scn)
        lower = 1.0 - (1.0 - op.pf) * op.pi_idle
        assert lower <= op.packet_loss <= 1.0

    @settings(max_examples=40)
    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.9, max_value=1.15),
    )
    def test_bounds_property(self, q_i, q_o, p_on, p_off, eps):
        scn = Scenario(
            spectrum=TwoStateChain(q_i, q_o),
            energy=TwoStateChain(p_on, p_off),
            detector=detector(threshold=eps),
            battery_levels=30,
            slot_duration=0.1,
        )
        op = operating_point(scn)
        lower = 1.0 - (1.0 - op.pf) * op.pi_idle
        assert lower - 1e-12 <= op.packet_loss <= 1.0


def _stay():
    return st.one_of(st.sampled_from([0.0, 1.0, 1e-9, 1.0 - 1e-9]), st.floats(0.0, 1.0))


def point(spectrum, energy, threshold=1.05, snr=SNR_M15_DB, levels=100):
    """A scenario from its two chains' stays and its detector's threshold and SNR."""
    return Scenario(TwoStateChain(*spectrum), TwoStateChain(*energy),
                    detector(threshold=threshold, snr=snr), levels, 0.1)


stays = st.tuples(_stay(), _stay()).filter(lambda s: s != (1.0, 1.0))  # one state may absorb
points = st.builds(point, stays, stays,
                   st.one_of(st.sampled_from([1e-3, 10.0]), st.floats(0.8, 1.3)),
                   st.one_of(st.sampled_from([1e-6, 1e6]), st.floats(1e-4, 10.0)),
                   st.integers(2, 1000))


# One scenario per branch of the outage formula, with the condition that
# selects the branch.  The detectors at the extremes give pf or pd of
# exactly 0 or 1: a threshold of 1e-3 senses every slot busy, one of 10
# every slot idle, and an SNR of 1e6 detects every occupied slot.
OUTAGE_BRANCHES = {
    "e_on 0": (point((0.5, 0.7), (0.3, 1.0)), lambda op: op.e_on == 0.0),
    "e_on 1": (point((0.5, 0.7), (1.0, 0.3)), lambda op: op.e_on == 1.0),
    "delta 0": (point((0.5, 0.7), (0.7, 0.5), threshold=1e-3),
                lambda op: op.pf == op.pd == 1.0 and op.delta == 0.0),
    "alpha - 1 <= -1": (point((0.5, 0.7), (0.7, 0.5), threshold=10.0),
                        lambda op: op.pf == op.pd == 0.0 and op.delta == 1.0),
    "delta == e_on": (point((0.6, 0.3), (0.6, 0.3), threshold=2.0, snr=1e6),
                      lambda op: (op.pf, op.pd) == (0.0, 1.0) and op.delta == op.e_on),
    "L log alpha > 700": (point((0.01, 0.99), (0.99, 0.01), threshold=2.0, snr=1e6),
                          lambda op: 100 * math.log(op.alpha) > 700.0 and op.outage == 0.0),
    "interior": (case1_base_scenario(), lambda op: 0.0 < op.outage < 1.0),
}


class TestOneOutageFormula:
    """operating_point and the BatteryModel API share one outage formula."""

    @pytest.mark.parametrize("name", list(OUTAGE_BRANCHES))
    def test_branch_example_reaches_its_branch(self, name):
        scn, reaches = OUTAGE_BRANCHES[name]
        assert reaches(operating_point(scn))

    @settings(max_examples=200)
    @given(points)
    @example(OUTAGE_BRANCHES["e_on 0"][0])
    @example(OUTAGE_BRANCHES["e_on 1"][0])
    @example(OUTAGE_BRANCHES["delta 0"][0])
    @example(OUTAGE_BRANCHES["alpha - 1 <= -1"][0])
    @example(OUTAGE_BRANCHES["delta == e_on"][0])
    @example(OUTAGE_BRANCHES["L log alpha > 700"][0])
    @example(OUTAGE_BRANCHES["interior"][0])
    def test_operating_point_matches_the_battery_model(self, scn):
        # BatteryModel rejects a delta outside [0, 1], so this also checks
        # that operating_point could skip that check
        op = operating_point(scn)
        battery = BatteryModel(scn.battery_levels, op.delta, op.e_on)
        assert op.outage.hex() == outage_prob(battery).hex()
        assert op.alpha.hex() == battery.alpha.hex()
