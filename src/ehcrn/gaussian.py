"""Standard Gaussian upper-tail probability and its inverse, and the
Student-t quantile of the across-replication confidence interval.

The tail function is evaluated through the complementary error function,
which the C library computes with a high-accuracy rational approximation;
the inverse starts from the standard library's normal quantile
(``statistics.NormalDist.inv_cdf``, Wichura's rational approximation
AS 241, PPND16, 1988) and is polished by Newton steps on the tail
function.  Accuracy of both is far below the Monte-Carlo noise floor of
any simulation in this package.
"""

import math
from statistics import NormalDist

from ehcrn.chains import _POSITIVE, _count

_SQRT2 = math.sqrt(2.0)
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

_NORMAL = NormalDist()


def q_tail(x: float) -> float:
    """Upper-tail probability P(Z > x) of a standard normal variable Z."""
    return 0.5 * math.erfc(x / _SQRT2)


def _pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / _SQRT_TWO_PI


def q_tail_inverse(p: float) -> float:
    """Solve ``q_tail(x) == p`` for x, with p in the open interval (0, 1).

    ``statistics.NormalDist.inv_cdf`` (AS 241) gives x = -Phi^-1(p) to
    about 1e-16 relative, then two guarded Newton steps on the tail
    function polish the root.

    Raises:
        ValueError: if p is not strictly between 0 and 1.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly inside (0, 1), got {p!r}")
    x = -_NORMAL.inv_cdf(p)
    for _ in range(2):
        d = _pdf(x)
        if d <= 0.0 or not math.isfinite(d):
            break
        x += (q_tail(x) - p) / d
    return x


def _t_cdf(t: float, df: int) -> float:
    """P(T <= t) for Student's t with an integer df >= 1.

    The finite series of Abramowitz & Stegun 26.7.3 (odd df) and 26.7.4
    (even df) in theta = atan(t / sqrt(df)).
    """
    theta = math.atan(t / math.sqrt(df))
    cos2 = math.cos(theta) ** 2
    if df % 2 == 0:
        term = total = 1.0
        for k in range(2, df - 1, 2):
            term *= (k - 1) / k * cos2
            total += term
        inside = math.sin(theta) * total
    else:
        total = 0.0
        if df > 1:
            term = total = math.cos(theta)
            for k in range(3, df - 1, 2):
                term *= (k - 1) / k * cos2
                total += term
        inside = 2.0 / math.pi * (theta + math.sin(theta) * total)
    return 0.5 * (1.0 + inside)


def student_t_quantile(p: float, df: int) -> float:
    """Solve ``P(T <= t) == p`` for Student's t with integer df >= 1.

    The distribution function is concave for t >= 0, so Newton steps
    started at t = 0 climb to the upper quantile from below without
    overshooting; lower quantiles follow by symmetry.

    Raises:
        ValueError: if p is not strictly between 0 and 1 or df is not an int >= 1.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly inside (0, 1), got {p!r}")
    df = _count("df", df, _POSITIVE)
    if p < 0.5:
        return -student_t_quantile(1.0 - p, df)
    log_norm = math.lgamma(0.5 * (df + 1)) - math.lgamma(0.5 * df) - 0.5 * math.log(df * math.pi)
    t = 0.0
    for _ in range(200):
        density = math.exp(log_norm - 0.5 * (df + 1) * math.log1p(t * t / df))
        step = (p - _t_cdf(t, df)) / density
        t += step
        if step <= 1e-15 * t:
            break
    return t
