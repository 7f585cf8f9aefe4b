"""Closed-form operating characteristics of the sensing / harvesting link.

Model summary.  A licensed channel alternates between idle and occupied as
a correlated two-state chain.  An opportunistic node senses the channel
each slot with an energy detector that averages N = tau_s * f_s samples;
for large N the test statistic is Gaussian, which gives the false-alarm
and detection probabilities as Gaussian tail values.  The node transmits
one packet whenever the sensing outcome says "idle" and its battery holds
at least one energy unit; a transmission spends one unit, and one unit is
harvested in every slot the (independent) energy-arrival chain is on,
capped at L - 1.  Treating access and harvest as per-slot Bernoulli events
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
from dataclasses import dataclass

import numpy as np

from ehcrn.chains import TwoStateChain, steady_state
from ehcrn.errors import NumericsError
from ehcrn.gaussian import q_tail, q_tail_inverse

__all__ = [
    "BatteryModel",
    "DetectorConfig",
    "OperatingPoint",
    "Scenario",
    "access_prob_from_rates",
    "battery_diagonals",
    "battery_steady_state",
    "battery_transition_matrix",
    "birth_death_steady_state",
    "detection_prob",
    "false_alarm_prob",
    "gamma_tail",
    "operating_point",
    "outage_prob",
    "steady_state_numeric",
    "threshold_for_target_pf",
]


def _sample_count(sensing_duration: float, sampling_rate: float) -> int:
    # Round down, but forgive products like 0.003 * 1e6 that land one ulp
    # below the intended integer.
    return int(math.floor(sensing_duration * sampling_rate * (1.0 + 1e-12)))


@dataclass(frozen=True)
class DetectorConfig:
    """Energy detector parameters.

    ``sensing_duration`` is in seconds, ``sampling_rate`` in Hz;
    ``noise_power`` and ``threshold`` are linear powers on the same scale;
    ``primary_snr`` is the linear ratio of primary signal power to noise
    power as seen at the sensing node.
    """

    sensing_duration: float
    sampling_rate: float
    noise_power: float
    threshold: float
    primary_snr: float

    def __post_init__(self):
        for name in ("sensing_duration", "sampling_rate", "noise_power", "threshold", "primary_snr"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be a positive finite number, got {v!r}")
        if _sample_count(self.sensing_duration, self.sampling_rate) < 1:
            raise ValueError(
                "sensing_duration * sampling_rate must give at least one sample, "
                f"got {self.sensing_duration * self.sampling_rate!r}"
            )

    @property
    def sample_count(self) -> int:
        """Number of averaged samples N (floor of duration * rate)."""
        return _sample_count(self.sensing_duration, self.sampling_rate)

    @property
    def normalized_threshold(self) -> float:
        """Detection threshold divided by the noise power."""
        return self.threshold / self.noise_power


def false_alarm_prob(det: DetectorConfig) -> float:
    """Probability of declaring the channel busy when it is idle."""
    return q_tail((det.normalized_threshold - 1.0) * math.sqrt(det.sample_count))


def detection_prob(det: DetectorConfig) -> float:
    """Probability of declaring the channel busy when it is occupied."""
    scaled = det.threshold / ((det.primary_snr + 1.0) * det.noise_power)
    return q_tail((scaled - 1.0) * math.sqrt(det.sample_count))


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


def threshold_for_target_pf(target: float, det: DetectorConfig) -> float:
    """Detection threshold (linear power) that yields the given false-alarm rate.

    Inverts the false-alarm expression:
    eps = noise_power * (1 + Qinv(target) / sqrt(N)).
    """
    if not 0.0 < target < 1.0:
        raise ValueError(f"target false-alarm probability must lie in (0, 1), got {target!r}")
    return det.noise_power * (1.0 + q_tail_inverse(target) / math.sqrt(det.sample_count))


def access_prob_from_rates(pf: float, pd: float, pi_idle: float) -> float:
    """Access probability from the detector rates and idle-state probability.

    Total probability over the two channel states: the node accesses when
    it senses "idle", which happens with probability 1 - pf on an idle
    slot and 1 - pd on an occupied one.
    """
    return (1.0 - pf) * pi_idle + (1.0 - pd) * (1.0 - pi_idle)


@dataclass(frozen=True)
class BatteryModel:
    """An L-level battery driven by per-slot access and harvest events.

    ``access_prob`` (delta) and ``harvest_prob`` (e_on) may sit on their
    boundaries, where the geometric law degenerates and the stationary
    quantities take their finite limits: delta == 1 confines the battery
    to levels {0, 1} with pi_0 = 1 - e_on (alpha = 0); delta == 0 pins it
    at the top (alpha = inf); e_on == 0 pins it at empty and e_on == 1
    keeps it away from empty.  The harvest quantum equals the transmit
    quantum.
    """

    levels: int
    access_prob: float
    harvest_prob: float

    def __post_init__(self):
        if not (isinstance(self.levels, int) and self.levels >= 2):
            raise ValueError(f"levels must be an integer >= 2, got {self.levels!r}")
        if not 0.0 <= self.access_prob <= 1.0:
            raise ValueError(f"access probability must lie in [0, 1], got {self.access_prob!r}")
        if not 0.0 <= self.harvest_prob <= 1.0:
            raise ValueError(f"harvest probability must lie in [0, 1], got {self.harvest_prob!r}")

    @property
    def alpha(self) -> float:
        """Geometric ratio (1 - delta) e_on / (delta (1 - e_on)) of the chain."""
        if self.harvest_prob == 1.0 or self.access_prob == 0.0:
            return math.inf
        return (1.0 - self.access_prob) * self.harvest_prob / (
            self.access_prob * (1.0 - self.harvest_prob)
        )

    def _alpha_minus_one(self) -> float:
        # (1-d)e - d(1-e) simplifies to e - d, which avoids cancellation.
        return (self.harvest_prob - self.access_prob) / (
            self.access_prob * (1.0 - self.harvest_prob)
        )


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
    inner = col[:-1] < top
    downs, ups = np.where(inner, down, 1.0), np.where(inner, up, 0.0)
    ups[:, 0] = e_on[:, 0]
    stay = np.where(col < top, mid, np.where(col == top, 1.0 - down, 0.0))
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
    """
    if b.harvest_prob == 0.0:
        return 1.0
    if b.harvest_prob == 1.0 or b.access_prob == 0.0:
        return 0.0
    delta = b.access_prob
    d = b._alpha_minus_one()
    if d <= -1.0:
        # delta == 1, or so near it that alpha - 1 rounds to -1
        return 1.0 - b.harvest_prob
    if d == 0.0:
        return (1.0 - delta) / (b.levels - delta)
    alpha = b.alpha
    lg = math.log1p(d) if abs(d) < 0.5 else math.log(alpha)
    if b.levels * lg > 700.0:
        # alpha^L overflows a double; pi_0 has underflowed to zero.
        return 0.0
    return (1.0 - delta) / ((1.0 - delta) + alpha * math.expm1((b.levels - 1) * lg) / d) + 0.0


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
        elif (d := m._alpha_minus_one()) <= -1.0:  # as in outage_prob
            fixed += [(k, 0, 1.0 - e_on), (k, 1, e_on)]
        else:  # log alpha as in outage_prob
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

    Raises:
        NumericsError: naming the first batch row (flat index) with a row sum off 1,
            a zero down entry (not irreducible), a residual above 1e-12 or a negative entry.
    """
    down, stay, up = (np.asarray(v, dtype=float) for v in (down, stay, up))
    rows = stay.copy()
    rows[..., :-1] += up
    rows[..., 1:] += down
    _raise_first(~(np.abs(rows - 1.0) <= 1e-9), "matrix is not row-stochastic in batch row {row}")
    _raise_first(down == 0.0, "a down entry is 0 in batch row {row}; "
                 "the chain is likely not irreducible")
    del rows  # each temporary is as large as the batch: keep few alive at once
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


def _raise_first(bad: np.ndarray, message: str, **per_row):
    """Raise NumericsError with ``message`` formatted for the first batch row flagged in ``bad``."""
    hit = np.flatnonzero(np.any(bad, axis=-1))
    if hit.size:
        row = int(hit[0])
        raise NumericsError(message.format(row=row, **{k: v.flat[row] for k, v in per_row.items()}))


@dataclass(frozen=True)
class Scenario:
    """Full description of one operating point of the link.

    ``spectrum`` is the idle/occupied chain (state A = idle), ``energy``
    the harvest arrival chain (state A = harvesting), ``battery_levels``
    the battery size L, ``slot_duration`` the slot length in seconds.
    """

    spectrum: TwoStateChain
    energy: TwoStateChain
    detector: DetectorConfig
    battery_levels: int
    slot_duration: float

    def __post_init__(self):
        if not (isinstance(self.battery_levels, int) and self.battery_levels >= 2):
            raise ValueError(f"battery_levels must be an integer >= 2, got {self.battery_levels!r}")
        if not self.slot_duration > 0:
            raise ValueError(f"slot_duration must be positive, got {self.slot_duration!r}")
        tau = self.detector.sensing_duration
        if tau > self.slot_duration:
            raise ValueError(
                f"sensing duration {tau!r} s exceeds the slot duration {self.slot_duration!r} s"
            )
        if tau > self.slot_duration / 10.0:
            warnings.warn(
                f"sensing duration {tau} s is more than a tenth of the slot "
                f"({self.slot_duration} s); the model assumes sensing is short",
                stacklevel=2,
            )

    @property
    def pi_idle(self) -> float:
        return steady_state(self.spectrum)[0]

    @property
    def e_on(self) -> float:
        return steady_state(self.energy)[0]


@dataclass(frozen=True)
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
    """Evaluate every closed-form quantity for the scenario."""
    pf = false_alarm_prob(scenario.detector)
    pd = detection_prob(scenario.detector)
    pi_idle = scenario.pi_idle
    e_on = scenario.e_on
    delta = access_prob_from_rates(pf, pd, pi_idle)
    battery = BatteryModel(scenario.battery_levels, delta, e_on)
    pi0 = outage_prob(battery)
    loss = 1.0 - (1.0 - pi0) * (1.0 - pf) * pi_idle
    return OperatingPoint(
        pf=pf, pd=pd, delta=delta, pi_idle=pi_idle, e_on=e_on,
        alpha=battery.alpha, outage=pi0, packet_loss=loss,
    )
