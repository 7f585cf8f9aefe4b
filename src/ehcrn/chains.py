"""Correlated two-state Markov chains and reproducible random streams.

Both the spectrum occupancy process (idle / occupied) and the energy
arrival process (harvesting / not harvesting) are instances of the same
two-state chain, parameterised by the two self-transition probabilities.
The simulator encodes state A as 0 and state B as 1 and advances the chains
with :func:`ehcrn.kernel.chain_path`.
"""

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TwoStateChain:
    """A correlated binary Markov process.

    ``stay_a`` and ``stay_b`` are the probabilities, reals in [0, 1] stored as
    ``float``, of remaining in state A and in state B on the next slot; the two
    stays are the whole law, so chains with equal stays are equal.
    """

    stay_a: float
    stay_b: float

    def __post_init__(self):
        for name, p in (("stay_a", self.stay_a), ("stay_b", self.stay_b)):
            x = p if type(p) is float else float(p) if _is_real(p) else math.nan
            if not 0.0 <= x <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {p!r}")
            if x is not p:
                object.__setattr__(self, name, x)
        if self.stay_a == 1.0 and self.stay_b == 1.0:
            raise ValueError(
                "degenerate chain: both self-transition probabilities are 1, so both states are "
                "absorbing and no unique stationary distribution exists"
            )


def steady_state(chain: TwoStateChain) -> tuple[float, float]:
    """Stationary probabilities (pi_a, pi_b) of the chain.

    pi_a = (1 - stay_b) / (2 - stay_a - stay_b); the pair is the fixed
    point of the 2x2 transition matrix and sums to 1 exactly because the
    second entry is constructed as the complement.  The denominator is
    summed as (1 - stay_a) + (1 - stay_b): 2 - stay_a - stay_b rounds to 0
    when one probability is 1 and the other one ulp below it.
    """
    pi_a = (1.0 - chain.stay_b) / ((1.0 - chain.stay_a) + (1.0 - chain.stay_b))
    return pi_a, 1.0 - pi_a


class RandomStream:
    """A reproducible random source addressed by (seed, stream_id).

    Identical (seed, stream_id) pairs yield identical sample sequences
    across runs and across degrees of parallelism; distinct stream ids on
    the same seed give statistically independent substreams.  Each stream
    is single-owner: one simulation replication per instance.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        if not (_is_integer(seed) and 0 <= seed < 2**64):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
        if not (_is_integer(stream_id) and 0 <= stream_id < 2**32):
            raise ValueError(f"stream_id must be an integer in [0, 2**32), got {stream_id!r}")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,)))
        )

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy generator (single-owner, stateful)."""
        return self._gen

    @staticmethod
    def derive_seed(seed: int, *key: int) -> int:
        """Derive a child seed from a base seed and an integer key path.

        Deterministic and collision-resistant; used to give every sweep
        variant its own independent seed that is reported alongside the
        results.

        Raises ValueError if the seed or a key is not a non-negative integer.
        """
        for value in (seed, *key):
            if not (_is_integer(value) and value >= 0):
                raise ValueError(f"derive_seed takes non-negative integers, got {value!r}")
        ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key))
        return int(ss.generate_state(1, np.uint64)[0])

    def __repr__(self):
        return f"RandomStream(seed={self.seed}, stream_id={self.stream_id})"


def _is_integer(value) -> bool:
    """An integer, Python's or numpy's, that is not a bool; exact ``int`` is tested first."""
    return type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, bool))


def _is_real(value) -> bool:
    """A finite integer or float, Python's or numpy's, not a bool, within a double's range."""
    if type(value) is float or isinstance(value, (float, np.floating)):
        return math.isfinite(value)
    return _is_integer(value) and -sys.float_info.max <= value <= sys.float_info.max
