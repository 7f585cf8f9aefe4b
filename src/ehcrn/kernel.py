"""Array kernel of the slot simulator.

:func:`advance` steps a run of slots with array scans, ``SUB_BLOCK`` slots
at a time: the chain paths with a doubling scan of their step maps (of the
licensed channels, only the path of the channel sensed in each slot), the
battery levels with one running sum and a running extreme at each end it
meets, and a tally of what happened in each slot with one ``bincount``;
:mod:`ehcrn.simulate` sorts the tally into loss causes.  One pass serves G
points, one scenario with G detectors (the grid of a sweep variant):
the chain paths are worked out once and shared, and the verdicts
(:func:`verdicts`, two comparisons of the shared sensing uniform), the
battery levels and the tally of all G points in one array step each.

The battery level is a random walk of harvests and transmissions held in
[0, top], reflected at the cap and then at empty by one push (:func:`_push`)
against a bound all points share: minus the running maximum of its excess
over top, then plus the running deficit of the pushed path below the
slot's harvest (Lindley's recursion).  Only the rows whose level overflows
the cap after it has met empty take one batched doubling scan of the
slots' clamp maps instead, as the chain paths do of their step maps.  The
kernel reads the chains and L from the one ``Scenario`` the points share,
and their detectors' rates under the run's sensing law as one
:class:`Sensing` (:func:`sensing`), and gives every point the same counts,
bit for bit, as stepping its slots one at a time by the rules in
:mod:`ehcrn.simulate`; the tests hold that per-slot loop, with constants
of its own, as the reference.
"""

from typing import NamedTuple

import numpy as np

from ehcrn.analytic import detector_rates
from ehcrn.chains import steady_state

# Slots the kernel works on at once; bounds its temporaries, which would
# otherwise grow with the block (and with the channel count and the points).
SUB_BLOCK = 1 << 13


def chain_path(u, stay_a, stay_b, start):
    """States of two-state chains after each step driven by the uniforms ``u``.

    Axis 0 of ``u`` is time; ``start`` holds the states before the first
    step (0/1 or bool, broadcast against a step of ``u``).  A step keeps
    state 0 if u < stay_a and state 1 if u < stay_b (scalars, or one pair
    per step): it is the map x -> (x & a) ^ b, with b = (u >= stay_a) the
    image of 0 and a = b ^ (u < stay_b) true where the step keeps x
    (identity or swap), false where it is constant (stays (1, 0) map to 0,
    (0, 1) to 1).  Such maps compose into maps of the same form, so a
    doubling scan gives every prefix: the round of shift s composes row t
    with row t - s, leaving in row t the map of the 2s steps ending at t
    (of all of them for t < 2s).  The scan stops once every row t >= s
    holds a constant map: such a window holds a constant step, which wipes
    out the steps before it, so its map is the prefix map, and the rows
    t < s hold full prefixes; the state is then (start & a) ^ b.  With no
    constant step (stay_a == stay_b, say) the scan would never stop early,
    and the state is the running parity of the swaps XOR ``start``.
    Returns a bool array shaped like ``u``.
    """
    b = u >= stay_a
    a = b ^ (u < stay_b)
    start = np.asarray(start, bool)
    if a.all():
        return np.bitwise_xor.accumulate(b, axis=0) ^ start
    s = 1
    while s < len(u) and (rest := a[s:]).flat[rest.argmax()]:  # any(), stopping at a True
        b[s:] ^= b[:-s] & rest
        rest &= a[:-s].copy()  # cheaper than numpy's own copy for the overlap
        s *= 2
    b ^= a & start
    return b


def sensed_channel(u, chan_sel, chain, carry):
    """Whether the sensed channel is occupied in each slot, and the carry after.

    ``carry`` is (state, age) of each of C channels: the state in which it
    was last seen (sensed, or drawn at the start) and the steps it has taken
    since.  ``chan_sel`` holds the channel sensed in each slot, None for a
    single channel, and ``u`` one uniform per slot.  Every channel takes a
    step of the two-state ``chain`` each slot, but only the sensed one is
    read, and the channels are i.i.d. and independent of the rest of the
    link; so a channel is stepped only when it is read, by the k steps since
    it was last seen at once (:func:`_k_step_stays`).  Sorted by channel,
    stably so that each channel's slots stay in time order, the slots form
    one run per sensed channel, a two-state chain with per-step stays.  A
    run's first step is written as the constant step to its image of the
    channel's carried state, which wipes out the run before it, so one
    :func:`chain_path` call serves all the runs.  A single channel is read
    every slot and steps by the chain itself, its age staying 0.
    """
    states, ages = carry
    if chan_sel is None:
        path = chain_path(u, chain.stay_a, chain.stay_b, states)
        return path, (path[-1:], ages)
    n = len(u)
    order = np.argsort(chan_sel, kind="stable")
    counts = np.bincount(chan_sel, minlength=len(states))
    seen = np.flatnonzero(counts)
    ends = np.cumsum(counts[seen])
    runs = ends - counts[seen]
    gaps = np.empty(n, np.intp)  # steps since the slot's channel was last read
    np.subtract(order[1:], order[:-1], out=gaps[1:])
    gaps[runs] = 0
    stay_a, stay_b = (table[gaps] for table in _k_step_stays(chain, np.arange(gaps.max() + 1)))
    stay_a[runs], stay_b[runs] = _k_step_stays(chain, ages[seen] + order[runs] + 1)
    u = u[order]
    image = np.where(states[seen], u[runs] < stay_b[runs], u[runs] >= stay_a[runs])
    stay_a[runs], stay_b[runs] = ~image, image
    path = chain_path(u, stay_a, stay_b, False)
    occupied = np.empty(n, bool)
    occupied[order] = path
    states, ages = states.copy(), ages + n
    states[seen] = path[ends - 1]
    ages[seen] = n - 1 - order[ends - 1]
    return occupied, (states, ages)


def _k_step_stays(chain, k):
    """The stays of ``chain`` over k steps (an array): P^k keeps idle with
    probability pi_0 + pi_1 lam^k and occupied with pi_1 + pi_0 lam^k, with
    lam = stay_a + stay_b - 1 and (pi_0, pi_1) the stationary law."""
    pi_0, pi_1 = steady_state(chain)
    power = np.power(chain.stay_a + chain.stay_b - 1.0, k)
    return pi_0 + pi_1 * power, pi_1 + pi_0 * power


def battery_levels(access, harvest, start, top):
    """Battery level of each of G points before each slot and after the last.

    ``access`` is the (G, n) bool transmit attempts, ``harvest`` the (n,)
    bool harvests that the points share and ``start`` the (G,) levels
    before the first slot; returns the (G, n + 1) levels.  Slot t maps the
    level x to clamp(x + h - a, h, top) with a = ``access[g, t]`` and
    h = ``harvest[t]``: a transmission spends a unit if there is one and
    the harvest lands after it, capped at ``top``.

    Every row starts from one running sum, the walk P[t] = start +
    sum_{s<t} (h[s] - a[s]), and one push (:func:`_push`) reflects it at
    each end it reaches: down by the running maximum U of its excess over
    ``top``, then up by the running deficit Lam of y = P - U below the
    harvests (Lindley's recursion): R = P - U + Lam.  y[t + 1] - h[t] =
    y[t] - a[t] - (U[t + 1] - U[t]) differs from the lift y[t] - a[t] only
    where U grows, y[t + 1] = top and both are >= top - 1 >= 0; so Lam is
    the lift's deficit below empty, growing only where R spends a unit it
    lacks, and R = top + Lam where U grows.  A row whose R stays at or below
    ``top`` thus has Lam = 0 wherever U grows, each push grows only at its
    own end, and R is the two-sided reflection of the walk on [0, top],
    unique (Kruk, Lehoczky, Ramanan & Shreve 2007): the levels.  Rows whose
    R passes ``top`` (their per-slot path overflows the cap after meeting
    empty) take one doubling scan of clamp maps (:func:`_clamp_map_scan`).
    """
    a, h = access.view(np.int8), harvest.view(np.int8)
    levels = np.empty((len(a), len(h) + 1), np.int16 if top + len(h) < 1 << 15 else np.int32)
    levels[:, 0] = start
    np.subtract(h, a, out=levels[:, 1:])
    np.cumsum(levels, axis=1, out=levels)
    _reflect(levels, levels.max(axis=1) > top, _push, top, np.maximum)
    _reflect(levels, (levels[:, 1:] < h).any(axis=1), _push, h, np.minimum)
    over = levels.max(axis=1) > top
    _reflect(levels, over, _clamp_map_scan, a[over], harvest, top)
    return levels


def _reflect(levels, rows, form, *args):
    """Apply ``form(y, *args)`` in place to the rows y of ``levels`` that
    the bool ``rows`` picks; ``args`` are not picked, as a push's bound fits every row."""
    picked = np.count_nonzero(rows)
    if picked == len(rows):
        form(levels, *args)
    elif picked:
        y = levels[rows]
        form(y, *args)
        levels[rows] = y


def _push(y, bound, extreme):
    """Reflect the paths ``y`` (rows of levels) at one end, in place:
    y[t + 1] -= extreme(0, extreme_{s<=t} (y[s + 1] - bound[s])), at the cap
    with np.maximum and ``top``, at empty with np.minimum and the harvests."""
    excess = y[:, 1:] - bound
    extreme(excess[:, 0], 0, out=excess[:, 0])  # the 0 folded into the first term
    extreme.accumulate(excess, axis=1, out=excess)
    y[:, 1:] -= excess


def _clamp_map_scan(y, a, harvest, top):
    """Fill the rows ``y`` (y[:, 0] the start levels, ``a`` their int8
    transmit attempts) with their levels by a doubling scan of clamp maps.

    Slot t maps x to clamp(x + d, lo, hi) with d = h - a, lo = h and
    hi = top, and such maps compose into maps of the same form (the
    discrete two-sided Skorokhod map): (d1, lo1, hi1) and then
    (d2, lo2, hi2) is (d1 + d2, clamp(lo1 + d2, lo2, hi2),
    clamp(hi1 + d2, lo2, hi2)).  As in :func:`chain_path`, the round of
    shift s composes row t with row t - s, and the scan stops once every
    row t >= s holds a constant map (lo == hi), which is then the prefix
    map; the levels are clamp(start + d, lo, hi).
    """
    lo = np.empty(a.shape, y.dtype)  # C order (astype of a broadcast is F order, slower)
    lo[...] = harvest
    d = lo - a
    hi = np.full_like(lo, top)
    s = 1
    while s < len(harvest) and (wide := lo[:, s:] != hi[:, s:]).flat[wide.argmax()]:
        late_lo, late_hi, late_d = lo[:, s:], hi[:, s:], d[:, s:]
        lo_in = lo[:, :-s] + late_d
        np.maximum(lo_in, late_lo, out=lo_in)
        np.minimum(hi[:, :-s] + late_d, late_hi, out=late_hi)
        np.maximum(late_hi, late_lo, out=late_hi)
        # max(lo1 + d2, lo2) <= max(hi1 + d2, lo2), so capping it at the new
        # hi caps it at hi2
        np.minimum(lo_in, late_hi, out=late_lo)
        late_d += d[:, :-s].copy()  # cheaper than numpy's own copy for the overlap
        s *= 2
    np.add(y[:, :1], d, out=y[:, 1:])
    np.maximum(y[:, 1:], lo, out=y[:, 1:])
    np.minimum(y[:, 1:], hi, out=y[:, 1:])


class Sensing(NamedTuple):
    """The probabilities P_f and P_d of a busy verdict on an idle and on an
    occupied channel, of each of G points, as (G, 1) columns; the rates
    that :func:`verdicts` compares the sensing uniforms with."""

    idle: np.ndarray
    occupied: np.ndarray


def sensing(detectors, mode):
    """The :class:`Sensing` of ``detectors``, one point each: their
    :func:`~ehcrn.analytic.detector_rates` under the sensing law ``mode``.
    The detectors do not change within a run, so a run works these out once
    and hands them to every :func:`advance`."""
    rates = [detector_rates(det, mode) for det in detectors]
    return Sensing(*np.array(rates).T[:, :, None])


def verdicts(sense_draw, occupied, rule):
    """The (G, n) bool busy verdicts of the G points of ``rule`` (a
    :class:`Sensing`) on the n slots: slot t reads busy at point g when
    ``sense_draw[t]`` is below the point's P_d if the sensed channel is
    ``occupied[t]``, and below its P_f if not.

    Two comparisons of the shared uniforms, each masked by the sensed
    channel's state, in place on bool arrays: the same doubles compared
    with the same rates as picking each slot's rate first, without the
    (G, n) float table that picking would build.
    """
    busy = np.less(sense_draw, rule.occupied)
    busy &= occupied
    idle = np.less(sense_draw, rule.idle)
    idle &= ~occupied
    busy |= idle
    return busy


def advance(scenario, rule, state, u_spec, u_energy, chan_sel, sense_draw, tally):
    """Advance the link over any run of slots at G points at once,
    ``SUB_BLOCK`` slots at a time; returns the state after it.

    ``scenario`` holds what the points share, the chains and the battery
    size L; ``rule`` is their :class:`Sensing`, one row per point, and
    gives G.  The chain paths and the sensed channel are shared, while each
    point has its own verdicts (:func:`verdicts`) and battery.  ``state``
    is (channel carry of :func:`sensed_channel`, energy state, battery
    level of each point, shape (G,)) with 1 / True meaning occupied and not
    harvesting.  Each slot draws one spectrum uniform ``u_spec``, one
    energy uniform, the sensed channel ``chan_sel`` (None for a single
    channel) and one uniform ``sense_draw``, which reads busy when it is
    below the point's P_d (occupied) or P_f (idle).  Counts each slot of
    point g in the (G, 2, 2, L, 3) int64 ``tally`` at [g, sensed channel
    occupied, verdict busy, battery level at slot start, move
    k = after - start + 1 (0 down, 1 stay, 2 up)].
    """
    spec, energy, level = state
    size = scenario.battery_levels
    # the flat bin of (g, occupied, busy, start, k); int32 scalars keep it int32
    point_bins = np.arange(1, 12 * size * len(rule.idle), 12 * size, dtype=np.int32)[:, None]
    for i in range(0, len(u_energy), SUB_BLOCK):
        j = i + SUB_BLOCK
        occupied, spec = sensed_channel(u_spec[i:j], None if chan_sel is None else chan_sel[i:j],
                                        scenario.spectrum, spec)
        off_path = chain_path(u_energy[i:j], scenario.energy.stay_a, scenario.energy.stay_b, energy)
        busy = verdicts(sense_draw[i:j], occupied, rule)
        # Row g of the (G, n) verdicts gives point g's levels on the shared harvests.
        levels = battery_levels(~busy, ~off_path, level, size - 1)
        code = np.multiply(levels[:, :-1], 2, dtype=np.int32)
        code += levels[:, 1:]
        code += point_bins
        code += occupied * np.int32(6 * size)
        code += busy * np.int32(3 * size)
        tally += np.bincount(code.ravel(), minlength=tally.size).reshape(tally.shape)
        energy, level = off_path[-1], levels[:, -1].copy()
    return spec, energy, level
