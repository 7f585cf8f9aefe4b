"""One contract for every model record: each dataclass the ehcrn modules
define is built by ``chains.frozen`` and behaves as ``dataclass(frozen=True)``."""

import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil
from dataclasses import FrozenInstanceError, fields, replace
from functools import cache
from pathlib import Path

import numpy as np
import pytest

import ehcrn
from ehcrn.analytic import BatteryModel, operating_point
from ehcrn.chains import frozen
from ehcrn.configio import load_config
from ehcrn.simulate import run_simulation
from ehcrn.sweep import campaign, run_sweep
from ehcrn.validate import run_validation

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

MODULES = [importlib.import_module(f"ehcrn.{info.name}")
           for info in pkgutil.iter_modules(ehcrn.__path__) if not info.name.startswith("__")]
RECORDS = sorted((obj for module in MODULES for obj in vars(module).values()
                  if inspect.isclass(obj) and dataclasses.is_dataclass(obj)
                  and obj.__module__ == module.__name__), key=lambda cls: cls.__name__)


@cache
def samples():
    """One instance of each record, by class name, built from the stock configs."""
    bundle = load_config(str(CONFIGS / "case1.cfg"))
    small = replace(bundle, sim=replace(bundle.sim, slots=512, replications=2))
    scenario, spec = bundle.scenario, campaign(small, "1")
    op = operating_point(scenario)
    out = [scenario.spectrum, scenario.detector, BatteryModel(scenario.battery_levels, op.delta, op.e_on),
           scenario, op, bundle.sim, run_simulation(scenario, small.sim), spec.sweep,
           load_config(str(CONFIGS / "case2.cfg")), run_sweep(spec)[0], spec, run_validation(bundle)[0]]
    return {type(x).__name__: x for x in out}


def test_every_record_has_a_sample():
    assert sorted(samples()) == [cls.__name__ for cls in RECORDS]


def assert_same(a, b):
    """``a == b`` and equal hashes; a record that holds arrays (``SimReport``)
    is compared field by field, since ``==`` on two arrays is not a bool."""
    assert type(a) is type(b)
    values = [(getattr(a, f.name), getattr(b, f.name)) for f in fields(a) if f.compare]
    if any(isinstance(x, np.ndarray) for x, _ in values):
        for x, y in values:
            assert np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
    else:
        assert a == b
    assert hash_or_none(a) == hash_or_none(b)


def hash_or_none(x):
    try:
        return hash(x)
    except TypeError:  # a field holds a dict (SweepDef's variants) or an array
        return None


def reference(cls):
    """A plain ``dataclass(frozen=True)`` with ``cls``'s fields and name: the stdlib's ``__init__``."""
    return dataclasses.make_dataclass(
        cls.__name__, [(f.name, f.type, dataclasses.field(default=f.default, init=f.init))
                       for f in fields(cls)], frozen=True)


def call_error(fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except TypeError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
class TestFrozenRecord:
    def test_built_by_frozen(self, cls):
        params = cls.__dataclass_params__
        assert params.frozen and params.eq and not params.init
        assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"

    def test_assignment_and_deletion_raise(self, cls):
        record = samples()[cls.__name__]
        name = fields(cls)[0].name
        with pytest.raises(FrozenInstanceError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(FrozenInstanceError):
            delattr(record, name)

    @pytest.mark.parametrize("how", ["replace", "copy", "deepcopy", "pickle"])
    def test_round_trip(self, cls, how):
        record = samples()[cls.__name__]
        twin = {"replace": replace, "copy": copy.copy, "deepcopy": copy.deepcopy,
                "pickle": lambda x: pickle.loads(pickle.dumps(x))}[how](record)
        assert twin is not record
        assert_same(twin, record)
        assert vars(twin).keys() == vars(record).keys()

    def test_signature_is_the_stdlib_one(self, cls):
        signature = inspect.signature(cls)
        assert [(p.name, p.default) for p in signature.parameters.values()] == [
            (f.name, inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default)
            for f in fields(cls) if f.init]
        assert signature == inspect.signature(reference(cls))

    def test_wrong_calls_name_the_init(self, cls):
        ref, count = reference(cls), len(inspect.signature(cls).parameters)
        unknown = call_error(cls, _not_a_field=None)
        assert unknown.startswith(f"{cls.__qualname__}.__init__() ")
        assert unknown == call_error(ref, _not_a_field=None)
        assert call_error(cls, *range(count + 1)) == call_error(ref, *range(count + 1))
        if any(p.default is inspect.Parameter.empty for p in inspect.signature(cls).parameters.values()):
            missing = call_error(cls)
            assert missing.startswith(f"{cls.__qualname__}.__init__() missing ")
            assert missing == call_error(ref)


@pytest.mark.parametrize("spec", [
    {"x": (list, dataclasses.field(default_factory=list))},
    {"x": (int, dataclasses.field(default=0, init=False))},
    {"x": (int, 0), "y": (int, dataclasses.MISSING)},
], ids=["default_factory", "non-init default", "default before non-default"])
def test_frozen_refuses_a_field_it_cannot_build(spec):
    namespace = {"__annotations__": {k: t for k, (t, _) in spec.items()},
                 **{k: v for k, (_, v) in spec.items() if v is not dataclasses.MISSING}}
    with pytest.raises(TypeError, match=r"^frozen: .* Record\.[xy] "):
        frozen(type("Record", (), namespace))
