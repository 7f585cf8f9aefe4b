"""Closed-form operating characteristics of the sensing / harvesting link.

Model summary.  A licensed channel alternates between idle and occupied as
a correlated two-state chain.  An opportunistic node senses the channel
each slot with an energy detector that averages N = tau_s * f_s samples;
for large N the test statistic is Gaussian, which gives the false-alarm
and detection probabilities as Gaussian tail values (:func:`detector_rates`
under the "event" entry of ``SENSING_LAWS``; the "signal" entry is the
exact finite-N law).  The node transmits one packet whenever the sensing
outcome says "idle" and its battery holds at least one energy unit; a
transmission spends one unit, and one unit is harvested in every slot the
(independent) energy-arrival chain is on, capped at L - 1.  Treating access and harvest as per-slot Bernoulli events
with their stationary probabilities makes the battery level a birth-death
chain whose stationary law is geometric in the ratio

    alpha = (1 - delta) * e_on / (delta * (1 - e_on)),

where delta is the access probability and e_on the stationary harvest
probability.  A packet is lost when the node does not access, accesses a
busy channel, or accesses with an empty battery; the per-slot loss
probability is

    P_L = 1 - (1 - pi_0) * (1 - P_f) * pi_idle.
"""

import math
import warnings

import numpy as np

from ehcrn.chains import _LEVELS, _POSITIVE_REAL, _UNIT, TwoStateChain, _counts, _reals, frozen, steady_state
from ehcrn.errors import NumericsError
from ehcrn.gaussian import q_tail, q_tail_inverse

__all__ = [
    "BatteryModel",
    "DetectorConfig",
    "OperatingPoint",
    "SENSING_LAWS",
    "Scenario",
    "access_prob_from_rates",
    "battery_diagonals",
    "battery_steady_state",
    "battery_transition_matrix",
    "birth_death_steady_state",
    "detector_rates",
    "gamma_tail",
    "operating_point",
    "outage_prob",
    "steady_state_numeric",
    "threshold_for_target_pf",
]


@frozen
class DetectorConfig:
    """Energy detector parameters.

    ``sensing_duration`` is in seconds, ``sampling_rate`` in Hz; ``noise_power`` and
    ``threshold`` are linear powers on the same scale; ``primary_snr`` is the linear
    ratio of primary signal power to noise power as seen at the sensing node; all
    five are positive finite reals, stored as ``float``.  ``sample_count`` is
    the number of averaged samples N, the floor of duration * rate, which
    must be finite and at least 1.
    """

    sensing_duration: float
    sampling_rate: float
    noise_power: float
    threshold: float
    primary_snr: float

    def __post_init__(self):
        _reals(self, ("sensing_duration", "sampling_rate", "noise_power", "threshold", "primary_snr"),
               _POSITIVE_REAL)
        # Round down, but forgive products like 0.003 * 1e6 that land one ulp
        # below the intended integer.
        count = self.sensing_duration * self.sampling_rate * (1.0 + 1e-12)
        if count == math.inf:
            raise ValueError(
                "sensing_duration * sampling_rate must give a finite sample count, "
                f"got {self.sensing_duration!r} * {self.sampling_rate!r}"
            )
        n = int(math.floor(count))
        if n < 1:
            raise ValueError(
                "sensing_duration * sampling_rate must give at least one sample, "
                f"got {self.sensing_duration * self.sampling_rate!r}"
            )
        # An instance attribute, not a field: set by every construction,
        # replace() included, and kept by copy and pickle with the fields.
        self.__dict__["sample_count"] = n

    def variance(self, occupied) -> float:
        """Variance v of a sample: N0 when idle, (SNR + 1) N0 when occupied."""
        return (self.primary_snr + 1.0) * self.noise_power if occupied else self.noise_power


# The busy probability P[statistic > eps] of an energy detector that
# averages N samples of variance v, keyed by sensing mode: "event" is the
# closed forms' Gaussian approximation, "signal" the exact finite-N law
# (:func:`gamma_tail`).  Each law keeps its own order of operations.
SENSING_LAWS = {
    "event": lambda n, eps, v: q_tail((eps / v - 1.0) * math.sqrt(n)),
    "signal": lambda n, eps, v: gamma_tail(n, eps * n / v),
}


def detector_rates(det: DetectorConfig, mode: str) -> tuple[float, float]:
    """The false-alarm and detection probabilities (P_f, P_d) of ``det``
    under the law ``SENSING_LAWS[mode]``: a busy verdict on an idle
    channel (v = N0) and on an occupied one (v = (SNR + 1) N0)."""
    law = SENSING_LAWS[mode]
    n, eps = det.sample_count, det.threshold
    return law(n, eps, det.variance(False)), law(n, eps, det.variance(True))


_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)
# Stirling series of log Gamma(a) - (a - 1/2) log a + a - log(2 pi) / 2, in
# powers of 1 / a^2 after the leading 1 / a: good to 1e-16 from a = 15 on.
_STIRLING = (1.0 / 12, -1.0 / 360, 1.0 / 1260, -1.0 / 1680, 1.0 / 1188)
_TINY = 1e-300  # Lentz's guard against a zero denominator


def gamma_tail(n: float, x: float) -> float:
    """Regularized upper incomplete gamma function Q(n, x) = Gamma(n, x) / Gamma(n).

    The exact law of the energy detector: the average power of N complex
    Gaussian samples of variance v is v / N times a Gamma(N, 1) variable,
    so it exceeds eps with probability Q(N, eps N / v).  Evaluated as in
    Numerical Recipes (section 6.2): the series of P = 1 - Q for x < n + 1
    and Lentz's continued fraction of Q otherwise.  Both carry the factor
    x^n e^-x / Gamma(n), taken in log space with Gamma(n) split into
    Stirling's form and its small remainder (as DiDonato & Morris 1986 do
    for the tails), so that n log(x / n) + n - x, which cancels for large n
    near x = n, is formed as -n (mu - log1p(mu)) with mu = x / n - 1.

    Raises ValueError unless n > 0 and x >= 0.
    """
    if not (n > 0 and x >= 0):
        raise ValueError(f"gamma_tail needs n > 0 and x >= 0, got n={n!r}, x={x!r}")
    a = float(n)
    if x == 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    if a == 1.0:
        return math.exp(-x)
    mu = (x - a) / a
    if abs(mu) < 0.5:
        log_front = -a * (mu - math.log1p(mu))
    else:
        log_front = a * (math.log(x) - math.log(a)) - (x - a)
    if a < 15.0:
        stirling = math.lgamma(a) - (a - 0.5) * math.log(a) + a - _HALF_LOG_TWO_PI
    else:
        stirling = 0.0
        for c in reversed(_STIRLING):
            stirling = stirling / (a * a) + c
        stirling /= a
    log_front += 0.5 * math.log(a) - _HALF_LOG_TWO_PI - stirling
    if x < a + 1.0:
        term = total = 1.0 / a
        denominator = a
        while term > total * 2.0**-53:
            denominator += 1.0
            term *= x / denominator
            total += term
        return 1.0 - math.exp(log_front + math.log(total))
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    fraction = d
    i = 0
    while True:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) >= _TINY else _TINY)
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        step = d * c
        fraction *= step
        if abs(step - 1.0) <= 2.0**-52:
            return math.exp(log_front + math.log(fraction))


# The largest sample count N for which threshold_for_target_pf keeps its
# round trip: past it, 1 + Qinv(target) / sqrt(N) keeps too few digits of
# the excess, and the event false-alarm rate misses the target by more
# than 1e-9 (2.0e-9 at N = 2**53).
TARGET_PF_MAX_SAMPLES = 2**52


def threshold_for_target_pf(target: float, det: DetectorConfig) -> float:
    """Detection threshold (linear power) that yields the given false-alarm rate.

    Inverts the Gaussian ("event") false-alarm law:
    eps = noise_power * (1 + Qinv(target) / sqrt(N)).  The exact ("signal")
    law overshoots the target, the more the fewer the samples: 0.01 gives
    0.03592, 0.01852, 0.01391 and 0.01088 at N = 1, 20, 100 and 2000.

    Raises ValueError unless 0 < target < 1 and N <= TARGET_PF_MAX_SAMPLES
    (2**52), above which the stored threshold no longer carries the target.
    """
    if not 0.0 < target < 1.0:
        raise ValueError(f"target false-alarm probability must lie in (0, 1), got {target!r}")
    if det.sample_count > TARGET_PF_MAX_SAMPLES:
        raise ValueError(
            f"a target false-alarm probability needs at most 2**52 samples, got "
            f"{det.sample_count}; set normalized_threshold instead"
        )
    return det.noise_power * (1.0 + q_tail_inverse(target) / math.sqrt(det.sample_count))


def access_prob_from_rates(pf: float, pd: float, pi_idle: float) -> float:
    """Access probability from the detector rates and idle-state probability.

    Total probability over the two channel states: the node accesses when
    it senses "idle", which happens with probability 1 - pf on an idle
    slot and 1 - pd on an occupied one.
    """
    return (1.0 - pf) * pi_idle + (1.0 - pd) * (1.0 - pi_idle)


@frozen
class BatteryModel:
    """An L-level battery driven by per-slot access and harvest events.

    ``levels`` is L, an integer >= 2 stored as ``int``; ``access_prob`` (delta) and
    ``harvest_prob`` (e_on), reals in [0, 1] stored as floats, may sit on their boundaries,
    where the geometric law degenerates and the stationary quantities take
    their finite limits: delta == 1 confines the battery to levels {0, 1}
    with pi_0 = 1 - e_on (alpha = 0); delta == 0 pins it at the top
    (alpha = inf); e_on == 0 pins it at empty and e_on == 1 keeps it away
    from empty.  The harvest quantum equals the transmit quantum.
    """

    levels: int
    access_prob: float
    harvest_prob: float

    def __post_init__(self):
        _counts(self, ("levels",), _LEVELS)
        _reals(self, ("access_prob", "harvest_prob"), _UNIT)

    @property
    def alpha(self) -> float:
        """Geometric ratio (1 - delta) e_on / (delta (1 - e_on)) of the chain."""
        return _alpha(self.access_prob, self.harvest_prob)


# The battery formulas on plain floats, shared by the BatteryModel API and
# operating_point: delta and e_on in [0, 1], levels an int >= 2.

def _alpha(delta: float, e_on: float) -> float:
    if e_on == 1.0 or delta == 0.0:
        return math.inf
    return (1.0 - delta) * e_on / (delta * (1.0 - e_on))


def _alpha_minus_one(delta: float, e_on: float) -> float:
    # (1-d)e - d(1-e) simplifies to e - d, which avoids cancellation.
    return (e_on - delta) / (delta * (1.0 - e_on))


def _battery_batch(b):
    """(models, was b one model, tops L - 1 as a (B, 1) column, columns 0 .. W - 1 for W = max L)."""
    models = [b] if isinstance(b, BatteryModel) else list(b)
    top = np.array([m.levels - 1 for m in models], dtype=int).reshape(-1, 1)
    return models, isinstance(b, BatteryModel), top, np.arange(int(top.max(initial=1)) + 1)


def battery_diagonals(b: BatteryModel | list[BatteryModel]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (down, stay, up) diagonals of the battery level's transition matrix.

    ``down[l - 1]`` is P[l, l - 1], ``stay[l]`` is P[l, l] and ``up[l]`` is
    P[l, l + 1].  Level 0 cannot transmit, so it only moves up (harvest) or
    stays; an interior level moves down on access-without-harvest, up on
    harvest-without-access, and otherwise stays; the top level absorbs
    harvests into the cap.  The interior diagonal is the correctly-rounded
    complement of the off-diagonal mass (computed with error-free
    summation), so each row sums to 1.0 exactly under math.fsum and to
    within one ulp under naive summation.

    One model gives 1-D arrays; a list of B gives (B, W - 1), (B, W) and
    (B, W - 1) arrays, W the largest L (2 if empty), padded past each top
    with down = 1, stay = 0, up = 0 as :func:`birth_death_steady_state` expects.
    """
    models, single, top, col = _battery_batch(b)
    delta = np.array([m.access_prob for m in models]).reshape(-1, 1)
    e_on = np.array([m.harvest_prob for m in models]).reshape(-1, 1)
    down, up = delta * (1.0 - e_on), (1.0 - delta) * e_on
    mid = np.array([math.fsum((1.0, -d, -u)) for d, u in zip(down.flat, up.flat)]).reshape(-1, 1)
    inner = col[:-1] < top  # the levels below each top; stay's last column never is
    downs, ups, stay = np.ones(inner.shape), np.zeros(inner.shape), np.zeros((len(models), col.size))
    np.copyto(downs, down, where=inner)
    np.copyto(ups, up, where=inner)
    np.copyto(stay[:, :-1], mid, where=inner)
    stay[np.arange(len(models)), top[:, 0]] = 1.0 - down[:, 0]
    ups[:, 0] = e_on[:, 0]
    stay[:, 0] = 1.0 - e_on[:, 0]
    return (downs[0], stay[0], ups[0]) if single else (downs, stay, ups)


def battery_transition_matrix(b: BatteryModel) -> np.ndarray:
    """Row-stochastic tridiagonal transition matrix of the battery level,
    assembled from :func:`battery_diagonals`."""
    down, stay, up = battery_diagonals(b)
    return np.diag(stay) + np.diag(down, -1) + np.diag(up, 1)


def outage_prob(b: BatteryModel) -> float:
    """Stationary probability pi_0 that the battery is empty.

    Closed form of the birth-death chain: with alpha the geometric ratio
    and d = alpha - 1,

        pi_0 = (1 - delta) / ((1 - delta) + alpha (alpha^(L-1) - 1) / d)

    for alpha != 1, and the limit (1 - delta) / ((1 - delta) + (L - 1)) at
    alpha == 1.  alpha^(L-1) - 1 goes through expm1 of (L - 1) log(alpha),
    with log(alpha) = log1p(d) near alpha == 1, so the sum of positive
    terms is stable on both sides of alpha == 1, keeps alpha's digits as
    delta -> 1 (where d -> -1) and does not overflow for large alpha^L.
    The boundaries short circuit to their limits: never harvesting pins the
    battery at empty, harvesting every slot or never accessing keeps it
    away from empty, and accessing every slot gives 1 - e_on.

    Two corners have no unique stationary law.  At delta == e_on == 0 the
    battery never moves, every level absorbs, and pi_0 = 1 by convention
    (the never-harvesting limit).  At delta == e_on == 1 every level >= 1
    absorbs, level 0 is left at once, and pi_0 = 0 for every stationary law.

    The formula is written once, in ``_outage(levels, delta, e_on)`` on
    plain floats, which :func:`operating_point` also calls; it takes alpha
    and alpha - 1 from ``_alpha`` and ``_alpha_minus_one``, as
    :attr:`BatteryModel.alpha` does.
    """
    return _outage(b.levels, b.access_prob, b.harvest_prob)


def _outage(levels: int, delta: float, e_on: float) -> float:
    if e_on == 0.0:
        return 1.0
    if e_on == 1.0 or delta == 0.0:
        return 0.0
    d = _alpha_minus_one(delta, e_on)
    if d <= -1.0:
        # delta == 1, or so near it that alpha - 1 rounds to -1
        return 1.0 - e_on
    if d == 0.0:
        return (1.0 - delta) / (levels - delta)
    alpha = _alpha(delta, e_on)
    lg = math.log1p(d) if abs(d) < 0.5 else math.log(alpha)
    if levels * lg > 700.0:
        # alpha^L overflows a double; pi_0 has underflowed to zero.
        return 0.0
    return (1.0 - delta) / ((1.0 - delta) + alpha * math.expm1((levels - 1) * lg) / d) + 0.0


def battery_steady_state(b: BatteryModel | list[BatteryModel]) -> np.ndarray:
    """Full stationary vector [pi_0, ..., pi_{L-1}] of the battery chain.

    pi_l = alpha^l * pi_0 / (1 - delta) for l >= 1.  The vector is
    assembled from log-weights and normalised, which keeps the entries
    finite for any alpha and makes the sum exactly 1 up to rounding.

    A list of B models gives a (B, W) array, W the largest L, with 0
    past each L; its rows are normalised over W, so they may differ from
    the one-model vectors in the last bit.
    """
    models, single, top, col = _battery_batch(b)
    slope, shift, fixed = np.zeros(len(models)), np.zeros(len(models)), []
    for k, m in enumerate(models):
        delta, e_on = m.access_prob, m.harvest_prob
        if e_on in (0.0, 1.0) or delta == 0.0:
            fixed.append((k, 0 if e_on == 0.0 else m.levels - 1, 1.0))
        elif (d := _alpha_minus_one(delta, e_on)) <= -1.0:  # as in outage_prob
            fixed += [(k, 0, 1.0 - e_on), (k, 1, e_on)]
        else:  # log alpha as in outage_prob
            slope[k] = math.log1p(d) if abs(d) < 0.5 else math.log(_alpha(delta, e_on))
            shift[k] = math.log(1.0 - delta)
    vec = np.multiply(col, slope[:, None])  # the log-weights, normalised in place
    vec -= shift[:, None]
    vec[:, 0] = 0.0
    np.copyto(vec, -np.inf, where=col > top)
    vec -= vec.max(axis=-1, keepdims=True)
    np.exp(vec, out=vec)
    vec /= vec.sum(axis=-1, keepdims=True)
    if fixed:
        rows, cols, values = zip(*fixed)
        vec[list(rows)] = 0.0
        vec[rows, cols] = values
    return vec[0] if single else vec


def steady_state_numeric(matrix: np.ndarray) -> np.ndarray:
    """Stationary distribution of a row-stochastic matrix by direct solve.

    Replaces one equilibrium equation with the normalisation sum(pi) == 1
    and solves the resulting linear system.  Serves as the independent
    oracle for the closed-form battery law.

    Raises:
        NumericsError: singular / non-irreducible input, or a residual
            above 1e-12.
    """
    mat = np.asarray(matrix, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise NumericsError(f"transition matrix must be square, got shape {mat.shape}")
    n = mat.shape[0]
    rowsum = mat.sum(axis=1)
    if not np.allclose(rowsum, 1.0, rtol=0.0, atol=1e-9):
        raise NumericsError(f"matrix is not row-stochastic: row sums {rowsum}")
    system = mat.T - np.eye(n)
    system[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        pi = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(
            f"stationary solve failed ({exc}); the chain is likely not irreducible"
        ) from exc
    residual = float(np.max(np.abs(pi @ mat - pi)))
    if residual > 1e-12 or pi.min() < -1e-10:
        raise NumericsError(
            f"stationary solve is unreliable: residual {residual:.3e}, min entry {pi.min():.3e}"
        )
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def birth_death_steady_state(down: np.ndarray, stay: np.ndarray, up: np.ndarray) -> np.ndarray:
    """Stationary distributions of tridiagonal chains from their diagonals.

    Grassmann-Taksar-Heyman state reduction on a birth-death chain gives
    pi_l proportional to prod_{k <= l} P[k - 1, k] / P[k, k - 1]: an O(L),
    subtraction-free solve, taken in log space so that long products
    neither overflow nor underflow.  Certified with the guards of
    :func:`steady_state_numeric`, row by row.

    The diagonals may have leading batch axes, shapes (..., L - 1), (..., L)
    and (..., L - 1), solved along the last axis.  Pad a chain shorter than
    the batch with down = 1, stay = 0, up = 0: those levels get exactly 0.
    A level's sign flips with each negative ratio below it; that sign pass
    runs only when some up or down entry is negative, since otherwise it
    could not change a byte.

    Raises:
        NumericsError: naming the first batch row (flat index) with a row sum off 1,
            a zero down entry (not irreducible), a residual above 1e-12 or a negative entry.
    """
    down, stay, up = (np.asarray(v, dtype=float) for v in (down, stay, up))
    # Each temporary is as large as the batch, so there are two, worked in
    # place: pi (first each row sum's distance from 1, then the log-weights)
    # and flow, with ``part`` (one column fewer) for every partial term.
    pi = stay.copy()
    pi[..., :-1] += up
    pi[..., 1:] += down
    pi -= 1.0
    _raise_first(~(np.abs(pi, out=pi) <= 1e-9), "matrix is not row-stochastic in batch row {row}")
    _raise_first(down == 0.0, "a down entry is 0 in batch row {row}; "
                 "the chain is likely not irreducible")
    part, logw = np.abs(down), pi[..., 1:]
    pi[..., 0] = 0.0
    with np.errstate(divide="ignore"):
        np.log(np.abs(up, out=logw), out=logw)
        logw -= np.log(part, out=part)
    np.cumsum(logw, axis=-1, out=logw)
    pi -= pi.max(axis=-1, keepdims=True)
    np.exp(pi, out=pi)
    negative = (up < 0) != (down < 0)
    if negative.any():
        flip = np.logical_xor.accumulate(negative, axis=-1)
        np.negative(pi[..., 1:], out=pi[..., 1:], where=flip)
    pi /= pi.sum(axis=-1, keepdims=True)
    flow = np.multiply(pi, stay)
    flow[..., 1:] += np.multiply(pi[..., :-1], up, out=part)
    flow[..., :-1] += np.multiply(pi[..., 1:], down, out=part)
    flow -= pi
    residual, lowest = np.max(np.abs(flow, out=flow), axis=-1), pi.min(axis=-1)
    _raise_first(~((residual <= 1e-12) & (lowest >= -1e-10))[..., None],
                 "stationary solve is unreliable: residual {residual:.3e}, "
                 "min entry {lowest:.3e} in batch row {row}", residual=residual, lowest=lowest)
    return pi


def _raise_first(bad: np.ndarray, message: str, **per_row):
    """Raise NumericsError with ``message`` formatted for the first batch row flagged in ``bad``."""
    hit = np.flatnonzero(np.any(bad, axis=-1))
    if hit.size:
        row = int(hit[0])
        raise NumericsError(message.format(row=row, **{k: v.flat[row] for k, v in per_row.items()}))


@frozen
class Scenario:
    """Full description of one operating point of the link.

    ``spectrum`` is the idle/occupied chain (state A = idle), ``energy``
    the harvest arrival chain (state A = harvesting), ``battery_levels``
    the battery size L (an integer >= 2, stored as ``int``) and ``slot_duration``
    the slot length in seconds (a positive finite real, stored as ``float``).
    """

    spectrum: TwoStateChain
    energy: TwoStateChain
    detector: DetectorConfig
    battery_levels: int
    slot_duration: float

    def __post_init__(self):
        _counts(self, ("battery_levels",), _LEVELS)
        _reals(self, ("slot_duration",), _POSITIVE_REAL)
        tau = self.detector.sensing_duration
        if tau > self.slot_duration:
            raise ValueError(
                f"sensing duration {tau!r} s exceeds the slot duration {self.slot_duration!r} s"
            )
        if tau > self.slot_duration / 10.0:
            warnings.warn(
                f"sensing duration {tau} s is more than a tenth of the slot "
                f"({self.slot_duration} s); the model assumes sensing is short",
                stacklevel=3,  # past __init__, to the line that built the Scenario
            )

    @property
    def pi_idle(self) -> float:
        return steady_state(self.spectrum)[0]

    @property
    def e_on(self) -> float:
        return steady_state(self.energy)[0]


@frozen
class OperatingPoint:
    """All closed-form quantities of a scenario in one record."""

    pf: float
    pd: float
    delta: float
    pi_idle: float
    e_on: float
    alpha: float
    outage: float
    packet_loss: float


def operating_point(scenario: Scenario) -> OperatingPoint:
    """Evaluate every closed-form quantity for the scenario, with the
    detector rates of the Gaussian ("event") law.

    The outage and alpha come from ``_outage`` and ``_alpha``, the
    formulas of :func:`outage_prob` and :attr:`BatteryModel.alpha`, on the
    numbers derived here: no ``BatteryModel`` is built.
    """
    pf, pd = detector_rates(scenario.detector, "event")
    pi_idle = steady_state(scenario.spectrum)[0]
    e_on = steady_state(scenario.energy)[0]
    delta = access_prob_from_rates(pf, pd, pi_idle)
    # No BatteryModel check could fire here: L comes from a checked
    # Scenario, pi_idle and e_on are stationary probabilities, and
    # delta = (1 - pf) pi_idle + (1 - pd) (1 - pi_idle) rounds into [0, 1]:
    # pf and pd lie in [0, 1], rounding is monotone, so each product is at
    # most its stationary factor, and pi_idle + (1 - pi_idle) rounds to at
    # most 1.
    pi0 = _outage(scenario.battery_levels, delta, e_on)
    # pf, pd, delta, pi_idle, e_on, alpha, outage, packet_loss
    return OperatingPoint(pf, pd, delta, pi_idle, e_on, _alpha(delta, e_on), pi0,
                          1.0 - (1.0 - pi0) * (1.0 - pf) * pi_idle)
