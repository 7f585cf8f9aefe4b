"""Gaussian tail function against an independent quadrature oracle; the
Student-t quantile against scipy."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad
from scipy.special import ndtri
from scipy.stats import t as student_t

from ehcrn import simulate
from ehcrn.gaussian import q_tail, q_tail_inverse, student_t_quantile


def quad_tail(x: float) -> float:
    """Independent oracle: numeric quadrature of the standard normal pdf."""
    val, _ = quad(
        lambda u: math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi),
        x, math.inf, epsabs=1e-14, epsrel=1e-13,
    )
    return val


# Frozen oracle values (computed with quad_tail above).
Q_AT_2_3263478 = 0.010000001973347192
Q_AT_1_7 = 0.04456546275854305


def test_half_at_zero():
    assert q_tail(0.0) == 0.5


def test_deep_tail_bound():
    assert q_tail(8.0) < 1e-15


def test_one_percent_point():
    assert q_tail(2.3263478) == pytest.approx(Q_AT_2_3263478, abs=1e-15)
    assert q_tail(2.3263478) == pytest.approx(0.01, abs=1e-7)


@pytest.mark.parametrize("x", [-8.0, -4.0, -1.3, 0.0, 0.5, 1.7, 2.3263478, 4.0, 8.0])
def test_matches_quadrature_oracle(x):
    assert abs(q_tail(x) - quad_tail(x)) <= 1e-12


@given(st.floats(min_value=-8.0, max_value=8.0))
def test_complement_identity(x):
    assert abs(q_tail(x) + q_tail(-x) - 1.0) <= 1e-12


@given(st.floats(min_value=-10.0, max_value=10.0), st.floats(min_value=0.0, max_value=5.0))
def test_monotone_non_increasing(x, step):
    assert q_tail(x + step) <= q_tail(x)


def test_inverse_at_half():
    assert abs(q_tail_inverse(0.5)) <= 1e-12


def test_inverse_one_percent():
    x = q_tail_inverse(0.01)
    assert x == pytest.approx(2.3263478, abs=1e-6)
    assert x == pytest.approx(2.3263478740408408, abs=1e-9)


def test_inverse_round_trip_x_domain():
    assert q_tail_inverse(q_tail(1.7)) == pytest.approx(1.7, abs=1e-10)


@pytest.mark.parametrize("p", [1e-12, 1e-9, 1e-4, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999, 1 - 1e-9])
def test_inverse_round_trip_p_domain(p):
    assert abs(q_tail(q_tail_inverse(p)) - p) <= 1e-10


@given(st.floats(min_value=1e-10, max_value=1.0, exclude_max=True))
def test_inverse_round_trip_property(p):
    assert abs(q_tail(q_tail_inverse(p)) - p) <= 1e-10


@pytest.mark.parametrize("ps", [np.logspace(-300.0, -1.0, 3000), np.linspace(0.1, 0.5, 2001)],
                         ids=["p-1e-300-to-0.1", "p-0.1-to-0.5"])
def test_inverse_matches_ndtri(ps):
    # within 4 ulps of scipy's quantile, the ulp floored at ulp(1.0) near 0
    ours = np.array([q_tail_inverse(float(p)) for p in ps])
    ref = -ndtri(ps)
    ulp = np.maximum(np.spacing(np.abs(ref)), np.spacing(1.0))
    assert np.max(np.abs(ours - ref) / ulp) <= 4.0


def test_inverse_p_residual_lower_half():
    # x <= 0, where q_tail is near 1: the residual is within one ulp of p
    ps = np.linspace(0.5, 1.0 - 1e-12, 2001)
    assert max(abs(q_tail(q_tail_inverse(float(p))) - p) for p in ps) <= 1.2e-16


def test_inverse_stock_targets_exact():
    # the thresholds of the stock configs' target_pf values
    assert q_tail_inverse(0.01) == 2.326347874040841
    assert q_tail_inverse(0.001) == 3.0902323061678136


@pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5, math.nan])
def test_inverse_domain_errors(p):
    with pytest.raises(ValueError):
        q_tail_inverse(p)


@pytest.mark.parametrize("p", [0.025, 0.3, 0.5, 0.6, 0.9, 0.975, 0.995])
def test_student_t_quantile_matches_scipy(p):
    for df in range(1, 101):
        assert student_t_quantile(p, df) == pytest.approx(student_t.ppf(p, df), abs=1e-9)


@pytest.mark.parametrize("p, df", [(0.0, 3), (1.0, 3), (math.nan, 3), (0.975, 0), (0.975, 2.5),
                                   (0.975, True)])
def test_student_t_quantile_domain_errors(p, df):
    with pytest.raises(ValueError):
        student_t_quantile(p, df)


def test_student_t_quantile_takes_a_numpy_integer_df():
    assert student_t_quantile(0.975, np.int64(3)) == student_t_quantile(0.975, 3)


def test_report_quantile_cache_keeps_the_df_check():
    # a report solves t(0.975, R - 1) once per R through a cache keyed on the
    # int df, which would take 1.0 for 1; the public function still rejects it
    assert simulate._T975(1) == student_t_quantile(0.975, 1)
    with pytest.raises(ValueError, match="df must be a positive integer, got 1.0"):
        student_t_quantile(0.975, 1.0)
    with pytest.raises(ValueError, match="df must be a positive integer, got 1.0"):
        student_t_quantile(0.025, 1.0)
