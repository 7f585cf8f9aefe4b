"""Standard Gaussian upper-tail probability and its inverse, and the
Student-t quantile of the across-replication confidence interval.

The tail function is evaluated through the complementary error function,
which the C library computes with a high-accuracy rational approximation;
the inverse starts from Wichura's rational approximation to the normal
quantile (Algorithm AS 241, PPND16, 1988) and is polished by Newton steps
on the tail function.  Accuracy of both is far below the Monte-Carlo noise
floor of any simulation in this package.
"""

import math

_SQRT2 = math.sqrt(2.0)
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

# Wichura's AS 241 (PPND16): (numerator, denominator) coefficients, highest
# degree first, in r = 0.180625 - (p - 1/2)^2 for |p - 1/2| <= 0.425, and in
# the tails in r = sqrt(-log(min(p, 1 - p))) - 1.6 (up to 5) or - 5 (beyond).
_AS241_CENTRAL = (
    (2509.0809287301227, 33430.57558358813, 67265.7709270087, 45921.95393154987,
     13731.69376550946, 1971.5909503065513, 133.14166789178438, 3.3871328727963665),
    (5226.495278852854, 28729.085735721943, 39307.89580009271, 21213.794301586597,
     5394.196021424751, 687.1870074920579, 42.31333070160091, 1.0))
_AS241_NEAR = (
    (0.0007745450142783414, 0.022723844989269184, 0.2417807251774506, 1.2704582524523684,
     3.6478483247632045, 5.769497221460691, 4.630337846156546, 1.4234371107496835),
    (1.0507500716444169e-09, 0.0005475938084995345, 0.015198666563616457, 0.14810397642748008,
     0.6897673349851, 1.6763848301838038, 2.053191626637759, 1.0))
_AS241_FAR = (
    (2.0103343992922881e-07, 2.7115555687434876e-05, 0.0012426609473880784, 0.026532189526576124,
     0.29656057182850487, 1.7848265399172913, 5.463784911164114, 6.657904643501103),
    (2.0442631033899397e-15, 1.421511758316446e-07, 1.8463183175100548e-05, 0.0007868691311456133,
     0.014875361290850615, 0.1369298809227358, 0.599832206555888, 1.0))


def q_tail(x: float) -> float:
    """Upper-tail probability P(Z > x) of a standard normal variable Z."""
    return 0.5 * math.erfc(x / _SQRT2)


def _pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / _SQRT_TWO_PI


def q_tail_inverse(p: float) -> float:
    """Solve ``q_tail(x) == p`` for x, with p in the open interval (0, 1).

    AS 241 gives x = Phi^-1(1 - p) to about 1e-16 relative, then two
    guarded Newton steps on the tail function polish the root.

    Raises:
        ValueError: if p is not strictly between 0 and 1.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly inside (0, 1), got {p!r}")
    q = 0.5 - p
    central = abs(q) <= 0.425
    if central:
        r, (num, den) = 0.180625 - q * q, _AS241_CENTRAL
    else:
        r = math.sqrt(-math.log(min(p, 1.0 - p)))
        r, (num, den) = (r - 1.6, _AS241_NEAR) if r <= 5.0 else (r - 5.0, _AS241_FAR)
    top = bottom = 0.0
    for a, b in zip(num, den):
        top, bottom = top * r + a, bottom * r + b
    x = q * top / bottom if central else math.copysign(top / bottom, q)
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
        ValueError: if p is not strictly between 0 and 1 or df < 1.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly inside (0, 1), got {p!r}")
    if not (isinstance(df, int) and df >= 1):
        raise ValueError(f"df must be a positive integer, got {df!r}")
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
