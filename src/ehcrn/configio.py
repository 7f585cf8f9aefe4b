"""Strict INI-style configuration files.

One file describes one scenario plus its simulation controls, and may
optionally carry a [sweep] section for custom sweep campaigns.  Parsing is
strict: unknown sections or keys are errors, so typos cannot silently fall
back to defaults.  The grammar is documented in the repository README.

Sections and keys::

    [spectrum]   q_i, q_o                  # self-transition probabilities
    [energy]     p_on, p_off
    [detector]   sensing_duration (s), sampling_rate (Hz), noise_power,
                 primary_snr_db, and exactly one of:
                 target_pf | normalized_threshold | threshold
    [battery]    levels
    [sim]        slot_duration (s, required), slots, replications, seed,
                 sensing_mode, initial_battery, initial_states,
                 num_pu_channels
    [sweep]      variable, grid, variant_<n> = <label>: key=value ...
"""

import configparser
import math
from dataclasses import dataclass

from ehcrn.analytic import DetectorConfig, Scenario, threshold_for_target_pf
from ehcrn.chains import TwoStateChain
from ehcrn.errors import ConfigError
from ehcrn.simulate import SimConfig, initial_level

__all__ = ["OVERRIDE_FIELDS", "SWEEP_VARIABLES", "LoadedConfig", "CustomSweepDef", "load_config"]

_REQUIRED = (
    ("spectrum", "q_i"),
    ("spectrum", "q_o"),
    ("energy", "p_on"),
    ("energy", "p_off"),
    ("detector", "sensing_duration"),
    ("detector", "sampling_rate"),
    ("detector", "noise_power"),
    ("detector", "primary_snr_db"),
    ("battery", "levels"),
    ("sim", "slot_duration"),
)

_KNOWN = {
    "spectrum": {"q_i", "q_o"},
    "energy": {"p_on", "p_off"},
    "detector": {
        "sensing_duration", "sampling_rate", "noise_power", "primary_snr_db",
        "target_pf", "normalized_threshold", "threshold",
    },
    "battery": {"levels"},
    "sim": {
        "slot_duration", "slots", "replications", "seed", "sensing_mode",
        "initial_battery", "initial_states", "num_pu_channels",
    },
    "sweep": None,  # validated separately (variant keys are enumerated)
}

# Sweep variant override key -> (part, field) it sets.  The parts are the
# two chains, the detector, the scenario itself, and "target" for the
# target false-alarm rate that fixes the threshold.
OVERRIDE_FIELDS = {
    "q_i": ("spectrum", "stay_a"),
    "q_o": ("spectrum", "stay_b"),
    "p_on": ("energy", "stay_a"),
    "p_off": ("energy", "stay_b"),
    "levels": ("scenario", "battery_levels"),
    "primary_snr_db": ("detector", "primary_snr"),
    "normalized_threshold": ("detector", "threshold"),
    "target_pf": ("target", "target_pf"),
}

# Sweep variable -> plot axis label.
SWEEP_VARIABLES = {
    "primary_snr_db": "primary SNR (dB)",
    "normalized_threshold": "normalized detection threshold",
}


@dataclass(frozen=True)
class CustomSweepDef:
    """Sweep campaign parsed from a [sweep] section."""

    variable: str
    grid: tuple
    variants: tuple  # of (label, {key: value}) pairs


@dataclass(frozen=True)
class LoadedConfig:
    """Everything a config file describes."""

    scenario: Scenario
    sim: SimConfig
    target_pf: float | None
    sweep: CustomSweepDef | None
    path: str


def snr_db_to_linear(snr_db: float) -> float:
    return 10.0 ** (snr_db / 10.0)


def _float(section, key, raw):
    try:
        v = float(raw)
    except ValueError:
        raise ConfigError(f"{section}.{key}: expected a number, got {raw!r}") from None
    if not math.isfinite(v):
        raise ConfigError(f"{section}.{key}: value must be finite, got {raw!r}")
    return v


def _int(section, key, raw):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{section}.{key}: expected an integer, got {raw!r}") from None


def _parse_variant(key: str, raw: str):
    label, sep, rest = raw.partition(":")
    if not sep:
        raise ConfigError(f"sweep.{key}: expected '<label>: key=value ...', got {raw!r}")
    label = label.strip()
    if not label or any(ch in label for ch in ", \t"):
        raise ConfigError(f"sweep.{key}: label {label!r} must be non-empty, without commas or spaces")
    overrides = {}
    for token in rest.split():
        name, sep, value = token.partition("=")
        if not sep:
            raise ConfigError(f"sweep.{key}: expected key=value, got {token!r}")
        if name not in OVERRIDE_FIELDS:
            raise ConfigError(
                f"sweep.{key}: unknown override {name!r} (allowed: {sorted(OVERRIDE_FIELDS)})"
            )
        overrides[name] = _int("sweep", key, value) if name == "levels" else _float("sweep", key, value)
    if not overrides:
        raise ConfigError(f"sweep.{key}: variant {label!r} has no overrides")
    return label, overrides


def _parse_sweep(section) -> CustomSweepDef:
    keys = list(section.keys())
    fixed = {"variable", "grid"}
    for k in keys:
        if k not in fixed and not k.startswith("variant"):
            raise ConfigError(f"unknown key 'sweep.{k}'")
    for k in fixed:
        if k not in section:
            raise ConfigError(f"missing required key 'sweep.{k}'")
    variable = section["variable"].strip()
    if variable not in SWEEP_VARIABLES:
        raise ConfigError(f"sweep.variable must be one of {tuple(SWEEP_VARIABLES)}, got {variable!r}")
    grid = tuple(_float("sweep", "grid", tok) for tok in section["grid"].split(","))
    variants = tuple(_parse_variant(k, section[k]) for k in keys if k.startswith("variant"))
    if not variants:
        raise ConfigError("sweep: at least one variant_<n> entry is required")
    return CustomSweepDef(variable=variable, grid=grid, variants=variants)


def load_config(path: str) -> LoadedConfig:
    """Parse and validate a config file into model objects.

    Raises:
        ConfigError: missing file, syntax errors (with line numbers from
            the parser), unknown sections/keys, missing required keys, or
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
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh, source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"parse error in {path!r}: {exc}") from exc

    for section in parser.sections():
        if section not in _KNOWN:
            raise ConfigError(f"unknown section [{section}] in {path!r}")
        if _KNOWN[section] is not None:
            for key in parser[section]:
                if key not in _KNOWN[section]:
                    raise ConfigError(f"unknown key '{section}.{key}' in {path!r}")
    for section, key in _REQUIRED:
        if section not in parser or key not in parser[section]:
            raise ConfigError(f"missing required key '{section}.{key}' in {path!r}")

    def get(section, key, default=None):
        if key in parser[section]:
            return parser[section][key].strip()
        return default

    try:
        spectrum = TwoStateChain(
            stay_a=_float("spectrum", "q_i", get("spectrum", "q_i")),
            stay_b=_float("spectrum", "q_o", get("spectrum", "q_o")),
            labels=("idle", "occupied"),
        )
    except ValueError as exc:
        raise ConfigError(f"spectrum: {exc}") from exc
    try:
        energy = TwoStateChain(
            stay_a=_float("energy", "p_on", get("energy", "p_on")),
            stay_b=_float("energy", "p_off", get("energy", "p_off")),
            labels=("harvesting", "not-harvesting"),
        )
    except ValueError as exc:
        raise ConfigError(f"energy: {exc}") from exc

    snr_db = _float("detector", "primary_snr_db", get("detector", "primary_snr_db"))
    threshold_keys = [
        k for k in ("target_pf", "normalized_threshold", "threshold") if get("detector", k) is not None
    ]
    if len(threshold_keys) != 1:
        raise ConfigError(
            "detector: exactly one of target_pf, normalized_threshold or threshold "
            f"is required, found {threshold_keys or 'none'}"
        )
    noise_power = _float("detector", "noise_power", get("detector", "noise_power"))
    base = dict(
        sensing_duration=_float("detector", "sensing_duration", get("detector", "sensing_duration")),
        sampling_rate=_float("detector", "sampling_rate", get("detector", "sampling_rate")),
        noise_power=noise_power,
        primary_snr=snr_db_to_linear(snr_db),
    )
    target_pf = None
    try:
        key = threshold_keys[0]
        if key == "threshold":
            detector = DetectorConfig(threshold=_float("detector", key, get("detector", key)), **base)
        elif key == "normalized_threshold":
            detector = DetectorConfig(
                threshold=_float("detector", key, get("detector", key)) * noise_power, **base
            )
        else:
            target_pf = _float("detector", key, get("detector", key))
            probe = DetectorConfig(threshold=noise_power, **base)
            detector = DetectorConfig(threshold=threshold_for_target_pf(target_pf, probe), **base)
    except ValueError as exc:
        raise ConfigError(f"detector: {exc}") from exc

    try:
        scenario = Scenario(
            spectrum=spectrum,
            energy=energy,
            detector=detector,
            battery_levels=_int("battery", "levels", get("battery", "levels")),
            slot_duration=_float("sim", "slot_duration", get("sim", "slot_duration")),
        )
    except ValueError as exc:
        raise ConfigError(f"scenario: {exc}") from exc

    raw_battery = get("sim", "initial_battery", "full")
    initial_battery = raw_battery if raw_battery == "full" else _int("sim", "initial_battery", raw_battery)
    try:
        sim = SimConfig(
            slots=_int("sim", "slots", get("sim", "slots", "1000000")),
            replications=_int("sim", "replications", get("sim", "replications", "4")),
            seed=_int("sim", "seed", get("sim", "seed", "42")),
            sensing_mode=get("sim", "sensing_mode", "event"),
            initial_battery=initial_battery,
            initial_states=get("sim", "initial_states", "steady-draw"),
            num_pu_channels=_int("sim", "num_pu_channels", get("sim", "num_pu_channels", "1")),
        )
        initial_level(scenario, sim)
    except ValueError as exc:
        raise ConfigError(f"sim: {exc}") from exc

    sweep = _parse_sweep(parser["sweep"]) if "sweep" in parser else None
    return LoadedConfig(scenario=scenario, sim=sim, target_pf=target_pf, sweep=sweep, path=str(path))

