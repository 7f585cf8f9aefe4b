"""Correlated two-state Markov chains and reproducible random streams.

Both the spectrum occupancy process (idle / occupied) and the energy
arrival process (harvesting / not harvesting) are instances of the same
two-state chain, parameterised by the two self-transition probabilities.
The simulator encodes state A as 0 and state B as 1 and advances the chains
with :func:`ehcrn.kernel.chain_path`.  The package's shared private helpers
live here too: :func:`frozen`, which builds every model record, and the two
rules that check every number the package takes, :func:`_reals` and
:func:`_count` (:func:`_counts` on a record), with their kinds of number.
"""

import math
import numbers
import sys
from dataclasses import MISSING, dataclass, fields

import numpy as np


def frozen(cls):
    """``dataclass(frozen=True)`` with an ``__init__`` that stores each field
    in the instance ``__dict__`` directly, as ``functools.cached_property``
    does, where the stdlib's generated ``__init__`` makes one call of the base
    ``__setattr__`` per field, which costs several times as much.

    The class is made a dataclass with ``init=False``, so ``repr``, ``==``,
    ``hash``, ``fields``, ``replace``, pickling and ``FrozenInstanceError`` on
    assignment are the stdlib's; its ``__init__`` is then built with ``exec``,
    as ``dataclasses`` builds its own.  That ``__init__`` takes the ``init``
    fields by the same names, in the same order and with the same trailing
    defaults, calls ``__post_init__`` when the class has one, and has the
    qualified name ``Cls.__init__``, so a wrong call raises the same
    ``TypeError``.  A ``__post_init__`` that normalises a field writes
    ``self.__dict__[name]`` in the same way.

    Raises TypeError on a field with a ``default_factory``, a non-``init``
    field with a default, or a field without a default after one with one.
    """
    cls = dataclass(frozen=True, init=False)(cls)
    params, defaults = [], []
    for f in fields(cls):
        if f.default_factory is not MISSING or (not f.init and f.default is not MISSING):
            raise TypeError(f"frozen: field {cls.__qualname__}.{f.name} needs a default it cannot store")
        if not f.init:
            continue
        if f.default is not MISSING:
            defaults.append(f.default)
        elif defaults:
            raise TypeError(f"frozen: non-default field {cls.__qualname__}.{f.name} follows a default")
        params.append(f)
    # ``__d`` cannot name a field: a class body would have mangled it.
    lines = [f"def __init__(self, {', '.join(f.name for f in params)}):", "    __d = self.__dict__"]
    lines += [f"    __d[{f.name!r}] = {f.name}" for f in params]
    if hasattr(cls, "__post_init__"):
        lines.append("    self.__post_init__()")
    namespace = {}
    exec("\n".join(lines), namespace)
    init = namespace["__init__"]
    init.__defaults__ = tuple(defaults) or None
    init.__annotations__ = {**{f.name: f.type for f in params}, "return": None}
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    return cls


@frozen
class TwoStateChain:
    """A correlated binary Markov process.

    ``stay_a`` and ``stay_b`` are the probabilities, reals in [0, 1] stored as
    ``float``, of remaining in state A and in state B on the next slot; the two
    stays are the whole law, so chains with equal stays are equal.
    """

    stay_a: float
    stay_b: float

    def __post_init__(self):
        _reals(self, ("stay_a", "stay_b"), _UNIT)
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
        self.seed = _count("seed", seed, _SEED)
        self.stream_id = _count("stream_id", stream_id, (0, 2**32, "must be an integer in [0, 2**32)"))
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
        seed = _count("seed", seed, _NON_NEGATIVE)
        key = tuple(_count("key", k, _NON_NEGATIVE) for k in key)
        ss = np.random.SeedSequence(seed, spawn_key=key)
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


# Kinds of number, each (low, high, requirement): a count is an integer in
# [low, high), a real one in [low, high] (math.ulp(0.0) is the least
# positive double); the requirement is its message.
_POSITIVE = (1, math.inf, "must be a positive integer")
_NON_NEGATIVE = (0, math.inf, "must be a non-negative integer")
_LEVELS = (2, math.inf, "must be an integer >= 2")  # a battery size L
_SEED = (0, 2**64, "must be a 64-bit unsigned integer")
_UNIT = (0.0, 1.0, "must lie in [0, 1]")
_POSITIVE_REAL = (math.ulp(0.0), sys.float_info.max, "must be a positive finite number")


def _count(name: str, value, kind) -> int:
    """The count rule: ``value`` as ``int`` if it is of ``kind``, else ValueError naming ``name``."""
    low, high, requirement = kind
    if not (_is_integer(value) and low <= value < high):
        raise ValueError(f"{name} {requirement}, got {value!r}")
    return int(value)


def _counts(record, names, kind) -> None:
    """The count rule on a record's named fields, stored only when not already in-range ``int``s."""
    d = record.__dict__
    low, high, _ = kind
    for name in names:
        v = d[name]
        if type(v) is not int or not low <= v < high:
            d[name] = _count(name, v, kind)


def _reals(record, names, kind) -> None:
    """The real rule on a record's named fields: each a real of ``kind``, stored
    only when not already an in-range ``float``; else ValueError naming it."""
    d = record.__dict__
    low, high, requirement = kind
    for name in names:
        v = d[name]
        if type(v) is not float or not low <= v <= high:
            x = float(v) if _is_real(v) else math.nan
            if not low <= x <= high:
                raise ValueError(f"{name} {requirement}, got {v!r}")
            d[name] = x
