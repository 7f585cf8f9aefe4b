"""Strict INI-style configuration files.

One file describes one scenario plus its simulation controls, and may
optionally carry a [sweep] section for custom sweep campaigns.  Parsing is
strict: unknown sections or keys are errors, so typos cannot silently fall
back to defaults.  The grammar is documented in the repository README.

Each decision is one table here: ``_SCHEMA`` says which keys exist and
which are required (the optional [sim] keys are the ``SimConfig`` fields,
and their defaults live there alone), ``OVERRIDE_FIELDS`` names the
override keys that ``apply_overrides``, beside it, turns into scenario
fields for config files and sweeps alike, ``SWEEP_VARIABLES`` the sweep
variables, and ``SweepDef`` checks, when it is built, what makes a sweep
definition valid.  ``_number`` parses every number, and a value the model
rejects leaves through one door, ``errors.as_config_error``, as a
``ConfigError`` that names the part of the config that set it.
"""

import configparser
import math
import re
from dataclasses import fields, replace

from ehcrn.analytic import DetectorConfig, Scenario, threshold_for_target_pf
from ehcrn.chains import TwoStateChain, frozen
from ehcrn.errors import ConfigError, as_config_error
from ehcrn.simulate import SimConfig, initial_level

__all__ = ["OVERRIDE_FIELDS", "SWEEP_VARIABLES", "LoadedConfig", "SweepDef", "apply_overrides",
           "load_config"]

# Section -> {key: required}.  The [sweep] section is optional as a whole
# and also takes any number of variant_<n> keys.
_SCHEMA = {
    "spectrum": {"q_i": True, "q_o": True},
    "energy": {"p_on": True, "p_off": True},
    "detector": {
        "sensing_duration": True, "sampling_rate": True, "noise_power": True,
        "primary_snr_db": True, "target_pf": False, "normalized_threshold": False,
        "threshold": False,
    },
    "battery": {"levels": True},
    "sim": {"slot_duration": True, **{f.name: False for f in fields(SimConfig)}},
    "sweep": {"variable": True, "grid": True},
}
_VARIANT_KEY = re.compile(r"variant_\d+")

# Override key -> (part, field) it sets, in config files and sweep variants
# alike.  The parts are the two chains, the scenario itself and the
# detector; ``target_pf`` sets the threshold through the target
# false-alarm rate.
OVERRIDE_FIELDS = {
    "q_i": ("spectrum", "stay_a"),
    "q_o": ("spectrum", "stay_b"),
    "p_on": ("energy", "stay_a"),
    "p_off": ("energy", "stay_b"),
    "levels": ("scenario", "battery_levels"),
    "primary_snr_db": ("detector", "primary_snr"),
    "normalized_threshold": ("detector", "threshold"),
    "target_pf": ("detector", "threshold"),
}

# Sweep variable -> plot axis label.
SWEEP_VARIABLES = {
    "primary_snr_db": "primary SNR (dB)",
    "normalized_threshold": "normalized detection threshold",
}

# Override keys that fix the detection threshold; at most one may be set.
_THRESHOLD_KEYS = frozenset({"target_pf", "normalized_threshold"})

# Variant labels become words of a quoted gnuplot string and CSV cells, so
# they may hold no quote, backslash, comma or blank.
_LABEL = re.compile(r"[A-Za-z0-9_.+-]+")


@frozen
class SweepDef:
    """A sweep campaign without its scenario: the swept variable, its grid
    and the labelled variants, as (label, {override key: value}) pairs.

    Raises ``ValueError`` when built unless it is well formed, which needs
    no scenario: a known variable, a grid of at least 2 strictly increasing
    values, at least one variant, unique labels that match ``_LABEL``, and
    known, non-empty overrides.  A variant sets at most one threshold key,
    and no key the grid point sets: the variable, and for a threshold
    variable every threshold key.
    """

    variable: str
    grid: tuple
    variants: tuple

    def __post_init__(self):
        variable, grid = self.variable, self.grid
        if variable not in SWEEP_VARIABLES:
            raise ValueError(f"variable must be one of {tuple(SWEEP_VARIABLES)}, got {variable!r}")
        if len(grid) < 2:
            raise ValueError(f"grid needs at least 2 values, got {len(grid)}")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("grid values must be strictly increasing")
        if not self.variants:
            raise ValueError("at least one variant is required")
        grid_keys = _THRESHOLD_KEYS if variable in _THRESHOLD_KEYS else {variable}
        seen = set()
        for label, overrides in self.variants:
            if not _LABEL.fullmatch(label):
                raise ValueError(f"variant label {label!r} must match {_LABEL.pattern}")
            if label in seen:
                raise ValueError(f"duplicate variant label {label!r}")
            seen.add(label)
            if not overrides:
                raise ValueError(f"variant {label!r} has no overrides")
            for key in overrides:
                if key not in OVERRIDE_FIELDS:
                    raise ValueError(
                        f"variant {label!r}: unknown override {key!r} (allowed: {sorted(OVERRIDE_FIELDS)})"
                    )
            _one_threshold_key(overrides, f"variant {label!r}: ")
            clash = sorted(grid_keys & overrides.keys())
            if clash:
                raise ValueError(f"variant {label!r}: cannot override {clash}, which the {variable} grid sets")


@frozen
class LoadedConfig:
    """Everything a config file describes."""

    scenario: Scenario
    sim: SimConfig
    target_pf: float | None
    sweep: SweepDef | None


def _one_threshold_key(overrides, where: str = "") -> None:
    """Raise ``ValueError`` if the overrides set both threshold keys (the later would win)."""
    if _THRESHOLD_KEYS <= overrides.keys():
        raise ValueError(f"{where}set one of {sorted(_THRESHOLD_KEYS)}, not both")


def snr_db_to_linear(snr_db: float) -> float:
    """The power ratio of ``snr_db``; raises ``ValueError`` if it overflows a float."""
    try:
        return 10.0 ** (snr_db / 10.0)
    except OverflowError:
        raise ValueError(f"primary_snr_db {snr_db!r} overflows a float") from None


def apply_overrides(scenario: Scenario, target_pf, overrides: dict):
    """Rebuild a scenario with labelled parameter overrides applied.

    Returns the new scenario and the target false-alarm probability in
    force: a ``target_pf`` override replaces ``target_pf``, and a
    ``normalized_threshold`` override clears it since it pins the threshold
    directly.  A target in force derives the threshold from the rebuilt
    detector; a target of None keeps the threshold.  Only the parts that
    the overrides or a target in force change are rebuilt, and so checked
    again; a part that rejects its values raises ``ValueError`` naming the
    keys that set it.
    """
    _one_threshold_key(overrides)
    changes = {}
    for key, value in overrides.items():
        if key not in OVERRIDE_FIELDS:
            raise ValueError(f"unknown override key {key!r}")
        if key == "target_pf":
            target_pf = value
            continue
        part, name = OVERRIDE_FIELDS[key]
        if key == "primary_snr_db":
            value = snr_db_to_linear(value)
        elif key == "normalized_threshold":
            value *= scenario.detector.noise_power
            target_pf = None
        changes.setdefault(part, {})[name] = value
    new = changes.pop("scenario", {})
    try:
        for part, values in changes.items():
            new[part] = replace(getattr(scenario, part), **values)
        if target_pf is not None:
            part, det = "target_pf", new.get("detector", scenario.detector)
            new["detector"] = replace(det, threshold=threshold_for_target_pf(target_pf, det))
        part = "scenario"
        return (replace(scenario, **new) if new else scenario), target_pf
    except ValueError as exc:
        keys = " ".join(f"{k}={v!r}" for k, v in overrides.items() if part in (k, OVERRIDE_FIELDS[k][0]))
        raise ValueError(f"{exc} (from {keys})" if keys else str(exc)) from None


def _number(where, raw, integer=False):
    """``raw`` as an ``int`` or a finite ``float``, else a ``ConfigError`` naming ``where``."""
    try:
        v = int(raw) if integer else float(raw)
    except ValueError:
        raise ConfigError(f"{where}: expected {'an integer' if integer else 'a number'}, got {raw!r}") from None
    if not (integer or math.isfinite(v)):
        raise ConfigError(f"{where}: value must be finite, got {raw!r}")
    return v


def _sim_value(field, raw):
    """A [sim] value as its ``SimConfig`` field takes it: text for text
    fields and for a text default (``initial_battery = full``), else an
    integer."""
    if field.type is str or raw == field.default:
        return raw
    return _number(f"sim.{field.name}", raw, integer=True)


def _parse_variant(key: str, raw: str):
    label, sep, rest = raw.partition(":")
    if not sep:
        raise ConfigError(f"sweep.{key}: expected '<label>: key=value ...', got {raw!r}")
    overrides = {}
    for token in rest.split():
        name, sep, value = token.partition("=")
        if not sep:
            raise ConfigError(f"sweep.{key}: expected key=value, got {token!r}")
        if name in overrides:
            raise ConfigError(f"sweep: {key} sets {name!r} more than once")
        overrides[name] = _number(f"sweep.{key}", value, integer=name == "levels")
    return label.strip(), overrides


def _parse_sweep(section) -> SweepDef:
    variable = section["variable"].strip()
    grid = tuple(_number("sweep.grid", tok) for tok in section["grid"].split(","))
    variants = tuple(_parse_variant(k, section[k]) for k in section if _VARIANT_KEY.fullmatch(k))
    with as_config_error("sweep"):
        return SweepDef(variable, grid, variants)


def load_config(path: str) -> LoadedConfig:
    """Parse and validate a config file into model objects.

    Raises:
        ConfigError: a missing or non-UTF-8 file, syntax errors (with line
            numbers from the parser), unknown sections/keys, missing
            required keys, a malformed [sweep] section (``SweepDef``), or
            any model invariant violation (reported with the field name).
    """
    parser = configparser.ConfigParser(
        delimiters=("=",),
        inline_comment_prefixes=("#", ";"),
        interpolation=None,
        default_section="__never_used__",
        strict=True,
    )
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            parser.read_file(fh, source=str(path))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"parse error in {path!r}: {exc}") from exc

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}] in {path!r}")
        for key in parser[section]:
            if key not in _SCHEMA[section] and not (section == "sweep" and _VARIANT_KEY.fullmatch(key)):
                raise ConfigError(f"unknown key '{section}.{key}' in {path!r}")
    for section, keys in _SCHEMA.items():
        if section == "sweep" and section not in parser:
            continue
        for key, required in keys.items():
            if required and (section not in parser or key not in parser[section]):
                raise ConfigError(f"missing required key '{section}.{key}' in {path!r}")

    found = [k for k in ("target_pf", "normalized_threshold", "threshold") if k in parser["detector"]]
    if len(found) != 1:
        raise ConfigError("detector: exactly one of target_pf, normalized_threshold or threshold "
                          f"is required, found {found or 'none'}")

    # A probe scenario from the keys that are not overrides; each section's
    # override keys then replace its placeholders (chains, battery size,
    # primary SNR and threshold) as in a sweep variant, so errors name their
    # part.  Only [detector] may hold target_pf, which the config reports.
    num = {section: {key: _number(f"{section}.{key}", raw, integer=key == "levels")
                     for key, raw in parser[section].items()}
           for section in ("spectrum", "energy", "battery", "detector")}
    det = num["detector"]
    with as_config_error("detector"):
        detector = DetectorConfig(det["sensing_duration"], det["sampling_rate"], det["noise_power"],
                                  threshold=det.get("threshold", det["noise_power"]), primary_snr=1.0)
    with as_config_error("scenario"):
        scenario = Scenario(
            TwoStateChain(0.5, 0.5), TwoStateChain(0.5, 0.5), detector, battery_levels=2,
            slot_duration=_number("sim.slot_duration", parser["sim"]["slot_duration"]),
        )
    for section, values in num.items():
        overrides = {key: v for key, v in values.items() if key in OVERRIDE_FIELDS}
        with as_config_error("scenario" if section == "battery" else section):
            scenario = apply_overrides(scenario, None, overrides)[0]

    # Only the keys the file sets: the defaults live in SimConfig alone.
    given = {f.name: _sim_value(f, parser["sim"][f.name])
             for f in fields(SimConfig) if f.name in parser["sim"]}
    with as_config_error("sim"):
        sim = SimConfig(**given)
        initial_level(scenario, sim)

    sweep = _parse_sweep(parser["sweep"]) if "sweep" in parser else None
    return LoadedConfig(scenario=scenario, sim=sim, target_pf=det.get("target_pf"), sweep=sweep)
