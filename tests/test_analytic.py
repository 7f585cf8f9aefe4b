"""Closed-form detector, access and battery quantities against oracles."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ehcrn.analytic import (
    BatteryModel,
    DetectorConfig,
    Scenario,
    access_prob_from_rates,
    battery_diagonals,
    battery_steady_state,
    battery_transition_matrix,
    birth_death_steady_state,
    detection_prob,
    false_alarm_prob,
    operating_point,
    outage_prob,
    steady_state_numeric,
    threshold_for_target_pf,
)
from ehcrn.chains import TwoStateChain
from ehcrn.errors import NumericsError
from ehcrn.validate import closed_form_vs_numeric

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
        spectrum=TwoStateChain(0.5, 0.7, labels=("idle", "occupied")),
        energy=TwoStateChain(0.7, 0.5, labels=("harvesting", "not-harvesting")),
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


def validate_instances(instances=200, seed=20240101, max_levels=200):
    """The random batteries of ``closed_form_vs_numeric``, drawn the same way."""
    rng = np.random.default_rng(seed)
    for i in range(instances):
        levels = int(rng.integers(2, max_levels + 1))
        delta = float(rng.uniform(0.01, 0.99))
        e_on = delta if i % 10 == 0 else float(rng.uniform(0.01, 0.99))
        yield BatteryModel(levels, delta, e_on)


class TestDetectorConfig:
    def test_sample_count(self):
        assert detector().sample_count == 2000
        # one-ulp-under product still rounds to the intended integer
        assert detector(tau=0.003).sample_count == 3000

    def test_validation(self):
        with pytest.raises(ValueError):
            detector(threshold=0.0)
        with pytest.raises(ValueError):
            detector(snr=-0.5)
        with pytest.raises(ValueError):
            detector(tau=1e-7)  # under one sample


class TestFalseAlarm:
    def test_half_at_noise_level(self):
        assert false_alarm_prob(detector(threshold=1.0)) == 0.5

    def test_table_point(self):
        assert false_alarm_prob(detector(threshold=1.052018)) == pytest.approx(0.01, abs=1e-4)

    def test_deep_tail(self):
        assert false_alarm_prob(detector(threshold=2.0)) < 1e-15

    @given(st.floats(min_value=0.5, max_value=2.0), st.floats(min_value=1e-4, max_value=0.5))
    def test_monotone_in_threshold(self, eps, step):
        assert false_alarm_prob(detector(threshold=eps + step)) <= false_alarm_prob(detector(threshold=eps))


class TestDetection:
    def test_half_at_signal_plus_noise_level(self):
        assert detection_prob(detector(threshold=1.0 + SNR_M15_DB)) == pytest.approx(0.5, abs=1e-12)

    def test_table_point(self):
        pd = detection_prob(detector(threshold=1.0))
        assert pd == pytest.approx(0.91475, abs=1e-4)
        assert pd == pytest.approx(PD_AT_UNIT_THRESHOLD, abs=1e-12)

    def test_approaches_one_with_snr(self):
        last = 0.0
        for snr in (0.1, 1.0, 10.0, 100.0):
            pd = detection_prob(detector(threshold=1.3, snr=snr))
            assert pd >= last
            last = pd
        assert last > 1.0 - 1e-12

    @given(st.floats(min_value=0.5, max_value=2.0), st.floats(min_value=1e-4, max_value=0.5))
    def test_monotone_in_threshold(self, eps, step):
        assert detection_prob(detector(threshold=eps + step)) <= detection_prob(detector(threshold=eps))

    @given(st.floats(min_value=0.2, max_value=3.0))
    def test_dominates_false_alarm(self, eps):
        det = detector(threshold=eps)
        assert detection_prob(det) >= false_alarm_prob(det)


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
        assert false_alarm_prob(replace(det, threshold=eps)) == pytest.approx(target, abs=1e-9)

    @pytest.mark.parametrize("target", [0.0, 1.0, -0.2, 2.0])
    def test_domain_error(self, target):
        with pytest.raises(ValueError):
            threshold_for_target_pf(target, detector())


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
        expected = access_prob_from_rates(
            false_alarm_prob(det), detection_prob(det), 0.375)
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
        for battery in validate_instances():
            fast = birth_death_steady_state(*battery_diagonals(battery))
            dense = steady_state_numeric(battery_transition_matrix(battery))
            assert np.max(np.abs(fast - dense)) <= 1e-12
            count += 1
        assert count == 200

    @staticmethod
    def padded_batch(instances):
        """Stacked diagonals, padded past each chain's top with (1, 0, 0)."""
        width = max(b.levels for b in instances)
        down = np.ones((len(instances), width - 1))
        stay = np.zeros((len(instances), width))
        up = np.zeros((len(instances), width - 1))
        for k, battery in enumerate(instances):
            n = battery.levels
            down[k, :n - 1], stay[k, :n], up[k, :n - 1] = battery_diagonals(battery)
        return down, stay, up

    def test_batch_matches_single_solves(self):
        instances = list(validate_instances())
        batch = birth_death_steady_state(*self.padded_batch(instances))
        assert batch.shape == (200, max(b.levels for b in instances))
        for battery, row in zip(instances, batch):
            single = birth_death_steady_state(*battery_diagonals(battery))
            # the normalising sum runs over the padded length: not bitwise
            assert np.max(np.abs(row[:battery.levels] - single)) <= 2.3e-16
            assert not row[battery.levels:].any()

    def test_batch_axes(self):
        instances = list(validate_instances(instances=6))
        down, stay, up = self.padded_batch(instances)
        flat = birth_death_steady_state(down, stay, up)
        shaped = birth_death_steady_state(*(v.reshape(2, 3, -1) for v in (down, stay, up)))
        assert np.array_equal(shaped.reshape(flat.shape), flat)

    def test_batch_names_non_stochastic_row(self):
        down, stay, up = self.padded_batch(list(validate_instances(instances=5)))
        stay[3, 0] += 1e-6
        with pytest.raises(NumericsError, match="row-stochastic in batch row 3$"):
            birth_death_steady_state(down, stay, up)

    def test_batch_names_zero_down_row(self):
        down, stay, up = self.padded_batch(list(validate_instances(instances=5)))
        stay[2, 1] += down[2, 0]
        down[2, 0] = 0.0
        with pytest.raises(NumericsError, match="down entry is 0 in batch row 2;.*irreducible"):
            birth_death_steady_state(down, stay, up)

    def test_batch_names_unreliable_row(self):
        down, stay, up = self.padded_batch(list(validate_instances(instances=5)))
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


class TestScenario:
    def test_sensing_longer_than_slot_rejected(self):
        with pytest.raises(ValueError, match="slot"):
            Scenario(TwoStateChain(0.5, 0.7), TwoStateChain(0.7, 0.5),
                     detector(tau=0.2), 10, 0.1)

    def test_long_sensing_warns(self):
        with pytest.warns(UserWarning, match="tenth"):
            Scenario(TwoStateChain(0.5, 0.7), TwoStateChain(0.7, 0.5),
                     detector(tau=0.05), 10, 0.1)

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
