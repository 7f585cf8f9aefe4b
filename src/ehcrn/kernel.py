"""Array kernel of the slot simulator.

A block of slots is advanced with array scans, a few thousand slots at a
time: the chain paths with a running XOR and a running maximum, the
battery levels with a blocked scan of clamp maps, and a tally of what
happened in each slot with one ``bincount``; :mod:`ehcrn.simulate` sorts
the tally into loss causes.  It reads the chains, L and the detector from
the ``Scenario`` and gives the same counts, bit for bit, as stepping the
slots one at a time by the rules in :mod:`ehcrn.simulate`; the tests hold
that per-slot loop, with constants of its own, as the reference.
"""

import math

import numpy as np

from ehcrn.analytic import Scenario, detection_prob, false_alarm_prob

# Slots the kernel works on at once; bounds its temporaries, which would
# otherwise grow with the block (and with the channel count).
SUB_BLOCK = 1 << 13


def chain_path(u, stay_a, stay_b, start):
    """States of two-state chains after each step driven by the uniforms ``u``.

    Axis 0 of ``u`` is time; ``start`` holds the states before the first
    step (0/1 or bool, broadcast against a step of ``u``).  A step keeps
    state 0 if u < stay_a and state 1 if u < stay_b, so each step is one of
    four maps of {0, 1}: identity, swap, constant 0 or constant 1.  The
    state after a step is the value of the last constant map XOR the parity
    of the swaps since (``start`` XOR the parity when no constant map came
    yet): a running XOR gives the parity and a running maximum over keys
    the last constant map.

    The constant step at t (from 0) gets the key 2t + 2 + (its value XOR
    the parity at t), every other step the key 0, so a running maximum
    holds the latest constant step's key, whose low bit XOR the parity is
    the state.  The start state (0 or 1) is folded into the first key with
    one maximum: it stays the running maximum until the first constant
    step, whose key of at least 2 beats it.  Keys reach 2n + 1 for n steps,
    so they are int16 where that fits (every sub-block of :func:`advance`),
    otherwise int32.  Returns a bool array shaped like ``u``.
    """
    n = len(u)
    image_0 = u >= stay_a
    image_1 = u < stay_b
    parity = np.bitwise_xor.accumulate(image_0 > image_1, axis=0)
    dtype = np.int16 if 2 * n + 1 <= np.iinfo(np.int16).max else np.int32
    t = np.arange(2, 2 * n + 2, 2, dtype=dtype).reshape((-1,) + (1,) * (u.ndim - 1))
    key = t + (image_0 ^ parity)
    key *= image_0 == image_1
    np.maximum(key[:1], np.asarray(start, dtype), out=key[:1])
    np.maximum.accumulate(key, axis=0, out=key)
    key &= 1
    return key != parity


def battery_levels(access, harvest, level, top):
    """Battery level before each slot and after the last one (n + 1 values).

    Slot t maps the level x to clamp(x + h - a, h, top) with a = ``access[t]``
    and h = ``harvest[t]``: a transmission spends a unit if there is one and
    the harvest lands after it, capped at ``top``.  Maps of the form
    clamp(x + d, lo, hi) compose into maps of the same form (the discrete
    two-sided Skorokhod map on [0, top]), so a blocked scan gives every
    level: the slots are cut into chunks of about sqrt(n) / 4 slots, the
    maps from each chunk start are composed for all chunks at once (one
    vector step per slot of a chunk), the chunk starts then follow one
    after another (one cheaper scalar step per chunk), and each slot's level
    is its prefix map applied to its chunk start.
    """
    n = len(access)
    width = math.isqrt(n) // 4 + 1
    chunks = -(-n // width)
    floor = np.zeros(chunks * width, np.int32)  # padding slots are the identity map
    floor[:n] = harvest
    shift = floor.copy()
    shift[:n] -= access
    # Row j holds slot j of every chunk, twice: once for lo, once for hi.
    floor = np.tile(floor.reshape(chunks, width).T, 2)
    shift = np.tile(shift.reshape(chunks, width).T, 2)
    # bounds[j] = (lo, hi) of the map composed over the first j slots of every chunk
    bounds = np.empty((width + 1, 2 * chunks), np.int32)
    bounds[0, :chunks] = 0
    bounds[0, chunks:] = top
    for j in range(width):
        row = bounds[j + 1]
        np.add(bounds[j], shift[j], out=row)
        np.maximum(row, floor[j], out=row)
        np.minimum(row, top, out=row)
    lo, hi = bounds[:, :chunks], bounds[:, chunks:]
    offset = np.zeros((width + 1, chunks), np.int32)
    np.cumsum(shift[:, :chunks], axis=0, out=offset[1:])
    starts = []
    for d, low, high in zip(offset[-1].tolist(), lo[-1].tolist(), hi[-1].tolist()):
        starts.append(level)
        level += d
        level = low if level < low else high if level > high else level
    within = np.clip(offset[:-1] + np.array(starts, np.int32), lo[:-1], hi[:-1])
    levels = np.empty(chunks * width + 1, np.int32)
    levels[:-1].reshape(chunks, width)[...] = within.T
    levels[n] = level
    return levels[: n + 1]


def advance(scenario: Scenario, signal, state, u_spec, u_energy, chan_sel, sense_draw, tally):
    """Advance the link over one run of slots; returns the state after it.

    ``state`` is (channel states, energy state, battery level) with 1 /
    True meaning occupied and not harvesting.  ``chan_sel`` is None for a
    single channel.  The sensed channel reads busy, in event mode, when
    its uniform draw is below P_d (occupied) or P_f (idle); in signal mode
    when v * g > eps * N for its Gamma(N, 1) draw g and its state's signal
    variance v.  Counts each slot in the (2, 2, L, 3) int64 ``tally`` at
    [sensed channel occupied, verdict busy, battery level at slot start,
    move k = after - start + 1 (0 down, 1 stay, 2 up)].
    """
    spec, energy, level = state
    n, c = u_spec.shape
    det = scenario.detector
    size = scenario.battery_levels
    spec_path = chain_path(u_spec, scenario.spectrum.stay_a, scenario.spectrum.stay_b, spec)
    off_path = chain_path(u_energy, scenario.energy.stay_a, scenario.energy.stay_b, energy)
    flat = spec_path.ravel()  # row t of the (n, c) path starts at t * c
    occupied = flat if chan_sel is None else flat[np.arange(0, c * n, c) + chan_sel]
    if signal:
        variance = np.where(occupied, (det.primary_snr + 1.0) * det.noise_power, det.noise_power)
        with np.errstate(over="ignore"):  # a huge finite SNR gives v * g = inf: busy
            busy = variance * sense_draw > det.threshold * det.sample_count
    else:
        busy = sense_draw < np.where(occupied, detection_prob(det), false_alarm_prob(det))
    levels = battery_levels(~busy, ~off_path, level, size - 1)
    # the flat bin of (occupied, busy, start, k); int32 scalars keep it int32
    code = 2 * levels[:-1] + levels[1:] + 1
    code += occupied * np.int32(6 * size)
    code += busy * np.int32(3 * size)
    tally += np.bincount(code, minlength=12 * size).reshape(tally.shape)
    return spec_path[-1], off_path[-1], int(levels[-1])


def advance_block(scenario, signal, state, u_spec, u_energy, chan_sel, sense_draw, tally):
    """:func:`advance` over a block, ``SUB_BLOCK`` slots at a time."""
    for i in range(0, len(u_energy), SUB_BLOCK):
        j = i + SUB_BLOCK
        state = advance(scenario, signal, state, u_spec[i:j], u_energy[i:j],
                        None if chan_sel is None else chan_sel[i:j], sense_draw[i:j], tally)
    return state
