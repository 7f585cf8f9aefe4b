"""Two-state chain construction, stationary law, stepping and streams.

Stepping is checked on :func:`ehcrn.kernel.chain_path`, the code the
simulator runs.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ehcrn.chains import RandomStream, TwoStateChain, steady_state
from ehcrn.kernel import chain_path

probs = st.floats(min_value=0.0, max_value=1.0)


def test_rejects_out_of_range():
    with pytest.raises(ValueError):
        TwoStateChain(-0.1, 0.5)
    with pytest.raises(ValueError):
        TwoStateChain(0.5, 1.2)
    with pytest.raises(ValueError):
        TwoStateChain(math.nan, 0.5)


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
# and constant 0 or 1 steps), then all identity, all swap, all constant 1
# and all constant 0.
STAYS = [(0.7, 0.4), (0.3, 0.6), (1.0, 1.0), (0.0, 0.0), (0.0, 1.0), (1.0, 0.0)]


@pytest.mark.parametrize("stays", STAYS, ids=["mixed-const0", "mixed-const1", "identity", "swap",
                                          "const1", "const0"])
@pytest.mark.parametrize("n", [1, 2, 16383, 16384])
def test_chain_path_matches_step_reference(n, stays):
    # 16383 steps are the longest path with int16 keys (they reach 2n + 1),
    # 16384 the shortest with int32 ones.
    gen = RandomStream(31, n).generator
    u = gen.random((n, 4))
    # End on constant, swap, constant: the last key is the largest, and a
    # wrapped one would leave the earlier constant step's (other) low bit.
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
    with pytest.raises(ValueError):
        RandomStream(-1, 0)
    with pytest.raises(ValueError):
        RandomStream(2**64, 0)
    with pytest.raises(ValueError):
        RandomStream(0, -1)


def test_derive_seed_deterministic():
    a = RandomStream.derive_seed(42, 1, 2)
    assert a == RandomStream.derive_seed(42, 1, 2)
    assert a != RandomStream.derive_seed(42, 2, 1)
    assert 0 <= a < 2**64
