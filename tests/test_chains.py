"""Two-state chain construction, stationary law, stepping and streams.

Stepping is checked on :func:`ehcrn.kernel.chain_path` and
:func:`ehcrn.kernel.sensed_channel`, the code the simulator runs.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ehcrn.chains import RandomStream, TwoStateChain, steady_state
from ehcrn.kernel import SUB_BLOCK, chain_path, sensed_channel

probs = st.floats(min_value=0.0, max_value=1.0)


def test_rejects_out_of_range():
    # a stay is a real in [0, 1]: not nan, and neither text nor a bool
    for stays, name in [((-0.1, 0.5), "stay_a"), ((0.5, 1.2), "stay_b"), ((math.nan, 0.5), "stay_a"),
                        (("0.5", 0.5), "stay_a"), ((True, 0.5), "stay_a"), ((0.5, False), "stay_b")]:
        with pytest.raises(ValueError, match=name):
            TwoStateChain(*stays)


def test_rejects_double_absorbing():
    with pytest.raises(ValueError, match="absorbing"):
        TwoStateChain(1.0, 1.0)


def test_steady_state_table_point():
    # idle self-transition 0.5, occupied self-transition 0.7
    pi_idle, pi_occ = steady_state(TwoStateChain(0.5, 0.7))
    assert pi_idle == pytest.approx(0.375, abs=1e-15)
    assert pi_idle + pi_occ == 1.0


def test_steady_state_symmetric():
    assert steady_state(TwoStateChain(0.5, 0.5)) == (0.5, 0.5)


def test_steady_state_absorbing_a():
    assert steady_state(TwoStateChain(1.0, 0.0)) == (1.0, 0.0)


def test_steady_state_one_ulp_from_double_absorbing():
    assert steady_state(TwoStateChain(0.9999999999999999, 1.0)) == (0.0, 1.0)
    assert steady_state(TwoStateChain(1.0, 0.9999999999999999)) == (1.0, 0.0)


@given(probs, probs)
def test_steady_state_is_fixed_point(stay_a, stay_b):
    if stay_a == 1.0 and stay_b == 1.0:
        return
    chain = TwoStateChain(stay_a, stay_b)
    pi = np.array(steady_state(chain))
    mat = np.array([[stay_a, 1.0 - stay_a], [1.0 - stay_b, stay_b]])
    assert pi.sum() == 1.0
    assert pi.min() >= 0.0
    assert np.max(np.abs(pi @ mat - pi)) <= 1e-12


def test_step_absorbing_state():
    gen = RandomStream(1, 0).generator
    path = chain_path(gen.random(100), 1.0, 0.5, 0)
    assert not path.any()


def test_step_forced_exit():
    # 100 independent single steps out of state B, one per column
    gen = RandomStream(2, 0).generator
    path = chain_path(gen.random((1, 100)), 0.5, 0.0, np.ones(100, bool))
    assert not path.any()


def test_long_run_state_frequency_matches_steady_state():
    # The empirical state-A frequency over T slots converges to pi_a with
    # variance inflated by the chain's integrated autocorrelation time
    # (1+r)/(1-r), r = stay_a + stay_b - 1.
    for seed, stay_a, stay_b in ((101, 0.7, 0.4), (102, 0.9, 0.85), (103, 0.2, 0.6)):
        chain = TwoStateChain(stay_a, stay_b)
        pi_a = steady_state(chain)[0]
        gen = RandomStream(seed, 0).generator
        start = 0 if gen.random() < pi_a else 1
        slots = 200_000
        path = chain_path(gen.random(slots), stay_a, stay_b, start)
        hits = slots - int(np.count_nonzero(path))
        r = stay_a + stay_b - 1.0
        t_eff = slots * (1.0 - r) / (1.0 + r)
        sigma = math.sqrt(pi_a * (1.0 - pi_a) / t_eff)
        assert abs(hits / slots - pi_a) <= 3.0 * sigma


def test_step_empirical_stay_frequency():
    # Stay frequency out of state A over one million steps, binomial 3-sigma.
    gen = RandomStream(20240817, 0).generator
    path = chain_path(gen.random(1_000_000), 0.7, 0.4, 0)
    before = np.concatenate(([False], path[:-1]))
    from_a = int(np.count_nonzero(~before))
    stays = int(np.count_nonzero(~before & ~path))
    freq = stays / from_a
    sigma = math.sqrt(0.7 * 0.3 / from_a)
    assert abs(freq - 0.7) <= 3.0 * sigma


def step_path(u, stay_a, stay_b, start):
    """chain_path one step at a time: the reference it must match."""
    state = np.broadcast_to(np.asarray(start, bool), u.shape[1:])
    path = np.empty(u.shape, bool)
    for t, row in enumerate(u):
        state = np.where(state, row < stay_b, row >= stay_a)
        path[t] = state
    return path


# (stay_a, stay_b): mixed chains with either constant map (identity, swap
# and constant 0 or 1 steps), then all identity, all swap, all constant 1,
# all constant 0 and a memoryless chain of identity and swap steps (no
# constant step, the running parity).
STAYS = [(0.7, 0.4), (0.3, 0.6), (1.0, 1.0), (0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (0.5, 0.5)]


@pytest.mark.parametrize("stays", STAYS, ids=["mixed-const0", "mixed-const1", "identity", "swap",
                                          "const1", "const0", "memoryless"])
@pytest.mark.parametrize("n", [1, 2, 16383, 16384])
def test_chain_path_matches_step_reference(n, stays):
    # 16383 and 16384 steps are one short of and at 2^14, the longest path
    # whose every row the scan's shifts 1, 2, ..., 8192 make a full prefix.
    gen = RandomStream(31, n).generator
    u = gen.random((n, 4))
    # End on constant, swap, constant: the last state must come from the
    # last constant step, not from the earlier one through the swap.
    u[-3:] = [[0.5], [0.9], [0.5]][-n:]
    paths = [step_path(u, *stays, start) for start in (0, 1)]
    earlier = chain_path(gen.random((5, 4)), 0.5, 0.5, np.array([1, 0, 1, 0]))
    starts = [
        0, 1, np.bool_(False), np.bool_(True),
        np.array([0, 1, 1, 0], np.int64),  # as drawn by simulate._initial_states
        earlier[-1],                       # the carry between sub-blocks
    ]
    for start in starts:
        expect = np.where(np.asarray(start, bool), paths[1], paths[0])
        assert (chain_path(u, *stays, start) == expect).all(), start
    for start in (0, 1, np.bool_(True), earlier[-1, 0]):
        expect = paths[1][:, 0] if start else paths[0][:, 0]
        assert (chain_path(u[:, 0], *stays, start) == expect).all(), start


# Stays (0.7, 0.4) make u = 0.5 a constant step (to 0), u = 0.1 the
# identity and u = 0.9 a swap.
CONST, KEEP, SWAP = 0.5, 0.1, 0.9


def crafted(n, lo, hi, seed):
    """n steps, identity or swap at lo <= t < hi and constant elsewhere."""
    u = np.full(n, CONST)
    u[lo:hi] = np.where(np.random.default_rng(seed).random(hi - lo) < 0.5, KEEP, SWAP)
    return u


@pytest.mark.parametrize("n, lo, hi", [
    (4096, 4096 - 37, 4096),  # the only window without a constant step at the end
    (4096, 0, 37),            # ... at the start, where the rows are full prefixes
    (4096, 1020, 1030),       # ... straddling 1024
    (777, 300, 555),          # n not a power of two
    (3000, 2047, 2049),       # ... straddling 2048 in a longer path
    (1000, 0, 999),           # one constant step, the last
    (1000, 1, 1000),          # one constant step, the first
])
def test_chain_path_exits_where_every_window_holds_a_constant_step(n, lo, hi):
    u = crafted(n, lo, hi, n + lo)
    for start in (0, 1):
        assert (chain_path(u, 0.7, 0.4, start) == step_path(u, 0.7, 0.4, start)).all()
    # one column per window, each with its own start
    cols = np.stack([crafted(n, lo, hi, 1), crafted(n, 0, hi - lo, 2),
                     crafted(n, n - (hi - lo), n, 3), np.full(n, CONST)], axis=1)
    start = np.array([1, 0, 1, 1], bool)
    assert (chain_path(cols, 0.7, 0.4, start) == step_path(cols, 0.7, 0.4, start)).all()


@pytest.mark.parametrize("n, late", [(1000, 990), (1024, 1000), (3001, 2050)])
def test_chain_path_with_one_late_constant_step(n, late):
    # the rows before the constant step need every round, up to a shift past them
    u = crafted(n, 0, n, late)
    u[late] = CONST
    for start in (0, 1):
        assert (chain_path(u, 0.7, 0.4, start) == step_path(u, 0.7, 0.4, start)).all()
    cols = np.stack([u, u[::-1], crafted(n, 0, n, 4)], axis=1)
    start = np.array([0, 1, 1], bool)
    assert (chain_path(cols, 0.7, 0.4, start) == step_path(cols, 0.7, 0.4, start)).all()


stays_with_ends = st.sampled_from([0.0, 1.0]) | probs


@given(st.integers(1, 3000), st.integers(1, 12), stays_with_ends, stays_with_ends,
       st.integers(0, 2**32 - 1), st.booleans())
def test_chain_path_matches_step_reference_anywhere(n, k, stay_a, stay_b, seed, flat):
    rng = np.random.default_rng(seed)
    u = rng.random(n if flat else (n, k))
    start = rng.random() < 0.5 if flat else rng.random(k) < 0.5
    expect = step_path(u, stay_a, stay_b, start)
    assert (chain_path(u, stay_a, stay_b, start) == expect).all()


def run_step_path(u, stay_a, stay_b, runs, starts):
    """chain_path over runs, one step at a time: at each index in ``runs``
    the state restarts from that run's entry of ``starts``."""
    stay_a, stay_b = np.broadcast_to(stay_a, u.shape), np.broadcast_to(stay_b, u.shape)
    restart = dict(zip(runs.tolist(), np.asarray(starts, bool).tolist()))
    path = np.empty(u.shape, bool)
    state = False
    for t in range(len(u)):
        state = restart.get(t, state)
        state = u[t] < stay_b[t] if state else u[t] >= stay_a[t]
        path[t] = state
    return path


@st.composite
def run_inputs(draw):
    n = draw(st.integers(1, 600))
    runs = sorted({0} | set(draw(st.lists(st.integers(0, n - 1), max_size=20))))
    per_step = st.lists(stays_with_ends, min_size=n, max_size=n).map(np.array)
    stay_a = draw(stays_with_ends | per_step)
    stay_b = draw(stays_with_ends | per_step)
    starts = draw(st.lists(st.booleans(), min_size=len(runs), max_size=len(runs)))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).random(n), stay_a, stay_b, np.array(runs), starts


@given(run_inputs())
def test_chain_path_over_runs_matches_step_reference(inputs):
    # per-step stays; each run's first step, mapping from the run's own
    # start, is written as the constant step to its image, as
    # sensed_channel writes it: stays (1, 0) to 0 and (0, 1) to 1
    u, stay_a, stay_b, runs, starts = inputs
    expect = run_step_path(u, stay_a, stay_b, runs, starts)
    stay_a, stay_b = (np.array(np.broadcast_to(s, u.shape), float) for s in (stay_a, stay_b))
    for t, start in zip(runs.tolist(), starts):
        image = u[t] < stay_b[t] if start else u[t] >= stay_a[t]
        stay_a[t], stay_b[t] = (0.0, 1.0) if image else (1.0, 0.0)
    assert (chain_path(u, stay_a, stay_b, False) == expect).all()


def sensed_paths(chain, channels, slots, seed, states):
    """Run :func:`sensed_channel` over ``slots`` slots, a sub-block at a
    time as the kernel does, from the channel states ``states`` (age 0);
    returns the channel read and whether it was occupied, in each slot."""
    gen = np.random.default_rng(seed)
    carry = (np.asarray(states, np.int64), np.zeros(channels, np.int64))
    chans, occupied = [], []
    for _ in range(0, slots, SUB_BLOCK):
        u = gen.random(SUB_BLOCK)
        sel = gen.integers(0, channels, SUB_BLOCK, np.int8)
        occ, carry = sensed_channel(u, sel, chain, carry)
        chans.append(sel)
        occupied.append(occ)
    return np.concatenate(chans), np.concatenate(occupied)


class TestSensedChannel:
    """Of C i.i.d. channels only the sensed one is stepped, by P^k since it
    was last seen; the reads must follow the law of stepping them all."""

    CHAIN = TwoStateChain(0.5, 0.7)  # pi = (0.375, 0.625), lam = 0.2
    CHANNELS = 10
    SLOTS = 1 << 21

    @pytest.fixture(scope="class")
    def reads(self):
        pi_idle = steady_state(self.CHAIN)[0]
        states = np.random.default_rng(7).random(self.CHANNELS) >= pi_idle  # drawn stationary
        return sensed_paths(self.CHAIN, self.CHANNELS, self.SLOTS, 8, states)

    def test_sensed_occupancy(self, reads):
        # reads of one channel d slots apart have covariance pi_0 pi_1 lam^d,
        # of two channels none, and a slot reads the same channel as one d
        # slots before it with probability 1 / C: the mean's variance is
        # pi_0 pi_1 (1 + 2 lam / (C (1 - lam))) / T
        _, occupied = reads
        pi_idle, pi_occ = steady_state(self.CHAIN)
        lam = self.CHAIN.stay_a + self.CHAIN.stay_b - 1.0
        inflation = 1.0 + 2.0 * lam / (self.CHANNELS * (1.0 - lam))
        sigma = math.sqrt(pi_idle * pi_occ * inflation / self.SLOTS)
        assert abs(occupied.mean() - pi_occ) <= 4.0 * sigma

    @pytest.mark.parametrize("gap", [1, 2, 3, 8])
    def test_same_channel_stays(self, reads, gap):
        # from one read of a channel to its next, k slots later: P^k keeps
        # idle with pi_0 + pi_1 lam^k and occupied with pi_1 + pi_0 lam^k,
        # a binomial trial given the state it starts from (Markov property)
        chans, occupied = reads
        order = np.argsort(chans, kind="stable")
        same = chans[order][1:] == chans[order][:-1]
        pairs = same & (np.diff(order) == gap)
        before, after = occupied[order][:-1][pairs], occupied[order][1:][pairs]
        pi_idle, pi_occ = steady_state(self.CHAIN)
        power = (self.CHAIN.stay_a + self.CHAIN.stay_b - 1.0) ** gap
        for state, exact in ((False, pi_idle + pi_occ * power), (True, pi_occ + pi_idle * power)):
            trials = int(np.count_nonzero(before == state))
            stays = int(np.count_nonzero((before == state) & (after == state)))
            assert trials > 1000
            assert abs(stays / trials - exact) <= 4.0 * math.sqrt(exact * (1.0 - exact) / trials)

    def test_flipping_chain_follows_the_parity_of_the_slot(self):
        # stay_a = stay_b = 0: lam = -1, every channel flips every slot, so
        # the read at slot t (after t + 1 steps) is the start state flipped
        # t + 1 times, whatever the age since the channel was last read
        states = np.arange(self.CHANNELS) % 2 == 1
        chans, occupied = sensed_paths(TwoStateChain(0.0, 0.0), self.CHANNELS, 4 * SUB_BLOCK, 9,
                                       states)
        t = np.arange(len(chans))
        assert (occupied == states[chans] ^ (t % 2 == 0)).all()

    @pytest.mark.parametrize("stay_b", [0.0, 0.97])
    def test_absorbing_idle_state(self, stay_b):
        # stay_a = 1: a channel that starts idle reads idle forever, and one
        # read idle once reads idle from then on
        states = np.arange(self.CHANNELS) % 3 == 0
        chans, occupied = sensed_paths(TwoStateChain(1.0, stay_b), self.CHANNELS, 4 * SUB_BLOCK,
                                       10, states)
        assert not occupied[~states[chans]].any()
        for c in range(self.CHANNELS):
            reads = occupied[chans == c]
            assert not reads[np.argmin(reads):].any() or reads.all()
        assert occupied.any() == (stay_b > 0.0)


def test_stream_reproducible():
    a = RandomStream(1234, 5).generator.random(1000)
    b = RandomStream(1234, 5).generator.random(1000)
    assert (a == b).all()


def test_stream_ids_differ():
    a = RandomStream(1234, 0).generator.random(1000)
    b = RandomStream(1234, 1).generator.random(1000)
    assert (a != b).any()


def test_stream_scalar_matches_array():
    # the simulator draws its initial states one scalar at a time
    first = RandomStream(99, 2).generator.random()
    assert first == RandomStream(99, 2).generator.random(1)[0]


def test_stream_validation():
    # out of range, or not an integer: rejected, not truncated
    for seed, stream_id in [(-1, 0), (2**64, 0), (0, -1), (42.9, 0), (True, 0), (0, 1.5), (0, True)]:
        with pytest.raises(ValueError):
            RandomStream(seed, stream_id)
    for seed, key in [(42.9, 1), (True, 1), (42, 1.5), (42, True), (42, -1)]:
        with pytest.raises(ValueError):
            RandomStream.derive_seed(seed, key)


def test_derive_seed_deterministic():
    a = RandomStream.derive_seed(42, 1, 2)
    assert a == RandomStream.derive_seed(42, 1, 2)
    assert a != RandomStream.derive_seed(42, 2, 1)
    assert 0 <= a < 2**64
