"""Strict config parsing: happy paths, defaults, and every error family."""

from pathlib import Path

import pytest

from ehcrn.configio import OVERRIDE_FIELDS, SweepDef, apply_overrides, load_config
from ehcrn.errors import ConfigError

REPO = Path(__file__).resolve().parents[1]

VALID = """
[spectrum]
q_i = 0.5
q_o = 0.7
[energy]
p_on = 0.7
p_off = 0.5
[detector]
sensing_duration = 0.002
sampling_rate = 1e6
noise_power = 1.0
primary_snr_db = -15.0
target_pf = 0.01
[battery]
levels = 100
[sim]
slot_duration = 0.1
slots = 5000
replications = 2
seed = 9
"""


def write(tmp_path, text, name="t.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestBundledConfigs:
    def test_case1(self):
        bundle = load_config(str(REPO / "configs" / "case1.cfg"))
        scenario, sim = bundle.scenario, bundle.sim
        assert scenario.battery_levels == 100
        assert scenario.slot_duration == 0.1
        assert scenario.detector.sensing_duration == 0.002
        assert scenario.detector.sampling_rate == 1e6
        assert scenario.detector.sample_count == 2000
        assert scenario.spectrum.stay_b == 0.7  # occupied self-transition
        assert scenario.spectrum.stay_a == 0.5  # idle self-transition
        assert sim.slots == 1_000_000 and sim.replications == 4
        assert bundle.target_pf == 0.01

    def test_byte_order_mark(self, tmp_path):
        # a UTF-8 file that starts with a byte-order mark, as some editors save it
        stock = REPO / "configs" / "case1.cfg"
        path = tmp_path / "bom.cfg"
        path.write_bytes(b"\xef\xbb\xbf" + stock.read_bytes())
        bom, bundle = load_config(str(path)), load_config(str(stock))
        assert (bom.scenario, bom.sim, bom.target_pf, bom.sweep) == (
            bundle.scenario, bundle.sim, bundle.target_pf, bundle.sweep)

    def test_case2(self):
        bundle = load_config(str(REPO / "configs" / "case2.cfg"))
        assert bundle.target_pf is None
        det = bundle.scenario.detector
        assert det.threshold / det.noise_power == pytest.approx(1.05)
        assert bundle.scenario.energy.stay_a == 0.5
        assert bundle.scenario.energy.stay_b == 0.7


class TestHappyPath:
    def test_full_round_trip(self, tmp_path):
        bundle = load_config(write(tmp_path, VALID))
        assert bundle.scenario.pi_idle == pytest.approx(0.375)
        assert bundle.scenario.e_on == pytest.approx(0.625)
        assert bundle.sim.slots == 5000
        assert bundle.sim.seed == 9
        assert bundle.sweep is None

    def test_sim_defaults(self, tmp_path):
        text = VALID.replace("slots = 5000\n", "").replace(
            "replications = 2\n", "").replace("seed = 9\n", "")
        bundle = load_config(write(tmp_path, text))
        assert bundle.sim.slots == 1_000_000
        assert bundle.sim.replications == 4
        assert bundle.sim.seed == 42
        assert bundle.sim.sensing_mode == "event"
        assert bundle.sim.initial_battery == "full"
        assert bundle.sim.num_pu_channels == 1

    def test_threshold_variants(self, tmp_path):
        text = VALID.replace("target_pf = 0.01", "normalized_threshold = 1.05")
        bundle = load_config(write(tmp_path, text))
        assert bundle.scenario.detector.threshold == pytest.approx(1.05)
        text = VALID.replace("target_pf = 0.01", "threshold = 1.03")
        bundle = load_config(write(tmp_path, text))
        assert bundle.scenario.detector.threshold == 1.03

    def test_inline_comments(self, tmp_path):
        text = VALID.replace("q_i = 0.5", "q_i = 0.5  ; idle stay probability")
        assert load_config(write(tmp_path, text)).scenario.spectrum.stay_a == 0.5

    def test_sweep_section(self, tmp_path):
        text = VALID + """
[sweep]
variable = normalized_threshold
grid = 1.0, 1.02, 1.04
variant_1 = a: q_o=0.7 q_i=0.5
variant_2 = b: q_o=0.3 q_i=0.5
"""
        bundle = load_config(write(tmp_path, text))
        assert bundle.sweep.variable == "normalized_threshold"
        assert bundle.sweep.grid == (1.0, 1.02, 1.04)
        assert bundle.sweep.variants[0] == ("a", {"q_o": 0.7, "q_i": 0.5})


# A key means the same in a file and in a variant: (base file, line the
# file replaces, key, value) with every override key, and each threshold
# key over a base of either kind.
NORMALIZED = VALID.replace("target_pf = 0.01", "normalized_threshold = 1.05")
SAME_KEY = [
    (VALID, "q_i = 0.5", "q_i", 0.6),
    (VALID, "q_o = 0.7", "q_o", 0.4),
    (VALID, "p_on = 0.7", "p_on", 0.3),
    (VALID, "p_off = 0.5", "p_off", 0.6),
    (VALID, "levels = 100", "levels", 7),
    (VALID, "primary_snr_db = -15.0", "primary_snr_db", -10.0),
    (VALID, "target_pf = 0.01", "target_pf", 0.02),
    (VALID, "target_pf = 0.01", "normalized_threshold", 1.02),
    (NORMALIZED, "normalized_threshold = 1.05", "normalized_threshold", 1.02),
    (NORMALIZED, "normalized_threshold = 1.05", "target_pf", 0.02),
]


def test_same_key_covers_every_override_key():
    assert {key for _, _, key, _ in SAME_KEY} == set(OVERRIDE_FIELDS)


@pytest.mark.parametrize("base, old, key, value", SAME_KEY,
                         ids=[f"{key}-over-{'normalized' if base is NORMALIZED else 'target'}"
                              for base, _, key, _ in SAME_KEY])
def test_a_key_means_the_same_in_a_file_and_a_variant(tmp_path, base, old, key, value):
    bundle = load_config(write(tmp_path, base, "base.cfg"))
    loaded = load_config(write(tmp_path, base.replace(old, f"{key} = {value}")))
    assert apply_overrides(bundle.scenario, None, {key: value})[0] == loaded.scenario
    assert apply_overrides(bundle.scenario, bundle.target_pf, {key: value}) == (
        loaded.scenario, loaded.target_pf)


class TestErrors:
    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/nonexistent/path.cfg")

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "t.cfg"
        path.write_bytes(b"[spectrum]\nq_i = 0.5\xff\n")
        with pytest.raises(ConfigError) as info:
            load_config(str(path))
        assert str(info.value) == (f"cannot read config file {str(path)!r}: 'utf-8' codec can't decode "
                                   "byte 0xff in position 20: invalid start byte")

    def test_empty_file_names_first_missing_field(self, tmp_path):
        with pytest.raises(ConfigError, match=r"spectrum\.q_i"):
            load_config(write(tmp_path, ""))

    def test_missing_required_key(self, tmp_path):
        with pytest.raises(ConfigError, match=r"battery\.levels"):
            load_config(write(tmp_path, VALID.replace("levels = 100", "")))

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError, match=r"unknown section \[detectors\]"):
            load_config(write(tmp_path, VALID + "\n[detectors]\nx = 1\n"))

    def test_unknown_key_strict(self, tmp_path):
        text = VALID.replace("q_i = 0.5", "q_i = 0.5\nq_x = 0.2")
        with pytest.raises(ConfigError, match=r"spectrum\.q_x"):
            load_config(write(tmp_path, text))

    def test_bad_number(self, tmp_path):
        with pytest.raises(ConfigError, match=r"spectrum\.q_i"):
            load_config(write(tmp_path, VALID.replace("q_i = 0.5", "q_i = fast")))

    def test_degenerate_chain_cites_stationary_law(self, tmp_path):
        text = VALID.replace("q_i = 0.5", "q_i = 1.0").replace("q_o = 0.7", "q_o = 1.0")
        with pytest.raises(ConfigError, match="stationary"):
            load_config(write(tmp_path, text))

    # The whole message, section prefix included: each part of the file
    # reports under its own name.
    @pytest.mark.parametrize("old, new, message", [
        ("q_o = 0.7", "q_o = 1.0",
         "spectrum: degenerate chain: both self-transition probabilities are 1, "
         "so both states are absorbing and no unique stationary distribution exists "
         "(from q_i=1.0 q_o=1.0)"),
        ("p_on = 0.7", "p_on = 1.5", "energy: stay_a must lie in [0, 1], got 1.5 (from p_on=1.5 p_off=0.5)"),
        ("sensing_duration = 0.002", "sensing_duration = -1",
         "detector: sensing_duration must be a positive finite number, got -1.0"),
        ("slot_duration = 0.1", "slot_duration = 0.001",
         "scenario: sensing duration 0.002 s exceeds the slot duration 0.001 s"),
        ("levels = 100", "levels = 1", "scenario: battery_levels must be an integer >= 2, got 1 (from levels=1)"),
        ("target_pf = 0.01", "target_pf = 1.5",
         "detector: target false-alarm probability must lie in (0, 1), got 1.5 (from target_pf=1.5)"),
        ("primary_snr_db = -15.0", "primary_snr_db = 4000",
         "detector: primary_snr_db 4000.0 overflows a float"),
        ("seed = 9", "seed = 9\nsensing_mode = both",
         "sim: sensing_mode must be 'event' or 'signal', got 'both'"),
        ("q_i = 0.5", "q_i = nan", "spectrum.q_i: value must be finite, got 'nan'"),
        ("levels = 100", "levels = 7.5", "battery.levels: expected an integer, got '7.5'"),
        ("slots = 5000", "slots = 1e6", "sim.slots: expected an integer, got '1e6'"),
        ("seed = 9", "seed = 9\n[sweep]\nvariable = primary_snr_db\ngrid = -20, -10\nvariant_1 = a: p_on",
         "sweep.variant_1: expected key=value, got 'p_on'"),
        ("seed = 9", "seed = 9\n[sweep]\nvariable = primary_snr_db\ngrid = -10\nvariant_1 = a: p_on=0.5",
         "sweep: grid needs at least 2 values, got 1"),
        ("seed = 9", "seed = 9\n[sweep]\nvariable = primary_snr_db\ngrid = -20, x\nvariant_1 = a: p_on=0.5",
         "sweep.grid: expected a number, got ' x'"),
        ("seed = 9", "seed = 9\n[sweep]\nvariable = primary_snr_db\ngrid = -20, -10\nvariant_1 = a: levels=7.5",
         "sweep.variant_1: expected an integer, got '7.5'"),
        ("seed = 9", "seed = 9\n[sweep]\nvariable = primary_snr_db\ngrid = -20, -10\nvariant_1 = a: p_on=inf",
         "sweep.variant_1: value must be finite, got 'inf'"),
    ], ids=["degenerate-spectrum", "p_on", "sensing_duration", "slot_duration", "levels", "target_pf",
            "snr-overflow", "sensing_mode", "nan", "fractional-levels", "float-slots", "variant-token",
            "short-grid", "grid-token", "variant-fractional-levels", "variant-inf"])
    def test_full_message(self, tmp_path, old, new, message):
        text = VALID.replace("q_i = 0.5", "q_i = 1.0") if old == "q_o = 0.7" else VALID
        with pytest.raises(ConfigError) as info:
            load_config(write(tmp_path, text.replace(old, new)))
        assert str(info.value) == message

    def test_both_threshold_keys(self, tmp_path):
        text = VALID.replace("target_pf = 0.01", "target_pf = 0.01\nnormalized_threshold = 1.0")
        with pytest.raises(ConfigError, match="exactly one"):
            load_config(write(tmp_path, text))

    def test_no_threshold_key(self, tmp_path):
        with pytest.raises(ConfigError, match="exactly one"):
            load_config(write(tmp_path, VALID.replace("target_pf = 0.01", "")))

    def test_sensing_longer_than_slot(self, tmp_path):
        text = VALID.replace("slot_duration = 0.1", "slot_duration = 0.001")
        with pytest.raises(ConfigError, match="slot"):
            load_config(write(tmp_path, text))

    def test_invalid_sim_value(self, tmp_path):
        with pytest.raises(ConfigError, match="sim"):
            load_config(write(tmp_path, VALID.replace("slots = 5000", "slots = 0")))

    def test_initial_battery_above_top_level(self, tmp_path):
        text = VALID.replace("levels = 100", "levels = 10").replace(
            "seed = 9", "seed = 9\ninitial_battery = 10")
        with pytest.raises(ConfigError, match="initial_battery 10 exceeds the top level 9"):
            load_config(write(tmp_path, text))

    def test_initial_battery_at_top_level(self, tmp_path):
        text = VALID.replace("levels = 100", "levels = 10").replace(
            "seed = 9", "seed = 9\ninitial_battery = 9")
        assert load_config(write(tmp_path, text)).sim.initial_battery == 9

    def test_duplicate_key_reports_line(self, tmp_path):
        text = VALID.replace("q_i = 0.5", "q_i = 0.5\nq_i = 0.6")
        with pytest.raises(ConfigError, match="line"):
            load_config(write(tmp_path, text))

    def test_sweep_bad_variable(self, tmp_path):
        text = VALID + "\n[sweep]\nvariable = snr\ngrid = 1, 2\nvariant_1 = a: q_i=0.5\n"
        with pytest.raises(ConfigError, match="variable"):
            load_config(write(tmp_path, text))

    def test_sweep_variant_needs_label(self, tmp_path):
        text = VALID + "\n[sweep]\nvariable = primary_snr_db\ngrid = -20, -10\nvariant_1 = p_on=0.7\n"
        with pytest.raises(ConfigError, match="label"):
            load_config(write(tmp_path, text))

    # Checked at load since a SweepDef checks itself when built (a SweepSpec
    # holds the checked one and does not check it again), so every
    # subcommand rejects these, not only ``ehcrn sweep``.
    # A variant may not set both threshold keys (the later one would win),
    # nor a key the grid point sets (every point would overwrite it).
    @pytest.mark.parametrize("variable, grid, variants, match", [
        ("primary_snr_db", "-10, -20", "variant_1 = a: p_on=0.7", "increasing"),
        ("primary_snr_db", "-10, -10", "variant_1 = a: p_on=0.7", "increasing"),
        ("primary_snr_db", "-10", "variant_1 = a: p_on=0.7", "at least 2"),
        ("primary_snr_db", "-20, -10", "variant_1 = a: p_on=0.7\nvariant_2 = a: p_on=0.3", "duplicate"),
        ("primary_snr_db", "-20, -10", 'variant_1 = a"x: p_on=0.7', "label"),
        ("primary_snr_db", "-20, -10", "variant_1 = a\\x: p_on=0.7", "label"),
        ("primary_snr_db", "-20, -10", "", "at least one variant"),
        ("primary_snr_db", "-20, -10", "variant_1 = a: target_pf=0.1 normalized_threshold=1.05",
         "not both"),
        ("primary_snr_db", "-20, -10", "variant_1 = a: normalized_threshold=1.05 target_pf=0.1",
         "not both"),
        ("normalized_threshold", "1.0, 1.1", "variant_1 = a: target_pf=0.1 normalized_threshold=1.05",
         "not both"),
        ("primary_snr_db", "-20, -10", "variant_1 = a: p_on=0.7\nvariant_2 = b: primary_snr_db=-5",
         r"variant 'b': cannot override \['primary_snr_db'\], which the primary_snr_db grid"),
        ("normalized_threshold", "1.0, 1.1", "variant_1 = a: normalized_threshold=1.05",
         r"cannot override \['normalized_threshold'\]"),
        ("normalized_threshold", "1.0, 1.1", "variant_1 = a: q_o=0.3 target_pf=0.1",
         r"cannot override \['target_pf'\], which the normalized_threshold grid"),
        ("primary_snr_db", "-20, -10", "variant_1 = a: p_on=0.7 p_on=0.2",
         "variant_1 sets 'p_on' more than once"),
    ], ids=["decreasing", "repeated", "one-value", "duplicate-label", "quote-label",
            "backslash-label", "no-variant", "both-thresholds", "both-thresholds-reversed",
            "both-thresholds-threshold-sweep", "snr-override-of-snr-sweep",
            "threshold-override-of-threshold-sweep", "target-override-of-threshold-sweep",
            "repeated-override"])
    def test_sweep_structure_rejected_at_load(self, tmp_path, variable, grid, variants, match):
        text = VALID + f"\n[sweep]\nvariable = {variable}\ngrid = {grid}\n{variants}\n"
        with pytest.raises(ConfigError, match=f"sweep: .*{match}"):
            load_config(write(tmp_path, text))

    @pytest.mark.parametrize("variable, grid, variants, match", [
        ("snr", (-20.0, -10.0), (("a", {"p_on": 0.7}),), "variable must be one of"),
        ("primary_snr_db", (-10.0,), (("a", {"p_on": 0.7}),), "at least 2 values, got 1"),
        ("primary_snr_db", (-10.0, -20.0), (("a", {"p_on": 0.7}),), "strictly increasing"),
        ("primary_snr_db", (-20.0, -10.0), (), "at least one variant"),
        ("primary_snr_db", (-20.0, -10.0), (('a"x', {"p_on": 0.7}),), "variant label 'a\"x' must match"),
        ("primary_snr_db", (-20.0, -10.0), (("a", {"p_on": 0.7}), ("a", {"p_on": 0.3})),
         "duplicate variant label 'a'"),
        ("primary_snr_db", (-20.0, -10.0), (("a", {}),), "variant 'a' has no overrides"),
        ("primary_snr_db", (-20.0, -10.0), (("a", {"snr": 3.0}),), "variant 'a': unknown override 'snr'"),
        ("primary_snr_db", (-20.0, -10.0), (("a", {"target_pf": 0.1, "normalized_threshold": 1.05}),),
         "variant 'a': set one of .* not both"),
        ("primary_snr_db", (-20.0, -10.0), (("a", {"primary_snr_db": -5.0}),),
         r"variant 'a': cannot override \['primary_snr_db'\], which the primary_snr_db grid sets"),
    ], ids=["unknown-variable", "one-value", "decreasing", "no-variant", "bad-label",
            "duplicate-label", "empty-overrides", "unknown-override", "both-thresholds", "grid-clash"])
    def test_sweep_def_checks_itself(self, tmp_path, variable, grid, variants, match):
        # built in code, a SweepDef raises the message the loader prefixes
        # with "sweep: " for the same section
        with pytest.raises(ValueError, match=match) as built:
            SweepDef(variable, grid, variants)
        lines = [f"variant_{i} = {label}: " + " ".join(f"{k}={v!r}" for k, v in overrides.items())
                 for i, (label, overrides) in enumerate(variants, 1)]
        text = (VALID + f"\n[sweep]\nvariable = {variable}\ngrid = {', '.join(map(repr, grid))}\n"
                + "\n".join(lines) + "\n")
        with pytest.raises(ConfigError) as loaded:
            load_config(write(tmp_path, text))
        assert str(loaded.value) == f"sweep: {built.value}"

    @pytest.mark.parametrize("key", ["variants", "variant_x", "variant_", "variant_1b", "variant1"])
    def test_sweep_variant_key_is_variant_n(self, tmp_path, key):
        text = (VALID + "\n[sweep]\nvariable = primary_snr_db\ngrid = -20, -10\n"
                f"variant_1 = a: p_on=0.5\n{key} = b: p_on=0.3\n")
        with pytest.raises(ConfigError) as info:
            load_config(write(tmp_path, text))
        assert str(info.value).startswith(f"unknown key 'sweep.{key}' in ")

    def test_sweep_unknown_override(self, tmp_path):
        text = VALID + "\n[sweep]\nvariable = primary_snr_db\ngrid = -20, -10\nvariant_1 = a: snr=3\n"
        with pytest.raises(ConfigError, match="unknown override"):
            load_config(write(tmp_path, text))


# The parts of a scenario that an override key can rebuild.
PARTS = ("spectrum", "energy", "detector")
GOOD_VALUE = {key: value for _, _, key, value in SAME_KEY}
BAD_VALUE = {"q_i": 1.5, "q_o": -0.1, "p_on": 1.5, "p_off": 2.0, "levels": 1,
             "primary_snr_db": 4000.0, "normalized_threshold": -1.0, "target_pf": 1.5}


def test_bad_value_covers_every_override_key():
    assert BAD_VALUE.keys() == OVERRIDE_FIELDS.keys() == GOOD_VALUE.keys()


@pytest.mark.parametrize("key", sorted(OVERRIDE_FIELDS))
def test_apply_overrides_reuses_what_it_does_not_name(tmp_path, key):
    base = load_config(write(tmp_path, VALID)).scenario
    scenario, _ = apply_overrides(base, None, {key: GOOD_VALUE[key]})
    named = OVERRIDE_FIELDS[key][0]
    assert {part: getattr(scenario, part) is getattr(base, part) for part in PARTS} == {
        part: part != named for part in PARTS}
    # a target in force rebuilds the detector it derives the threshold for
    scenario, _ = apply_overrides(base, 0.02, {key: GOOD_VALUE[key]})
    assert scenario.detector is not base.detector
    assert {part: getattr(scenario, part) is getattr(base, part) for part in PARTS[:2]} == {
        part: part != named for part in PARTS[:2]}


def test_apply_overrides_without_changes_returns_its_scenario(tmp_path):
    base = load_config(write(tmp_path, VALID)).scenario
    assert apply_overrides(base, None, {}) == (base, None)
    assert apply_overrides(base, None, {})[0] is base


def test_apply_overrides_rejects_an_unknown_key(tmp_path):
    base = load_config(write(tmp_path, VALID)).scenario
    with pytest.raises(ValueError, match="^unknown override key 'bogus'$"):
        apply_overrides(base, None, {"bogus": 1})


@pytest.mark.parametrize("target", [None, 0.02], ids=["no-target", "target"])
@pytest.mark.parametrize("key", sorted(OVERRIDE_FIELDS))
def test_every_override_key_rejects_a_bad_value(tmp_path, key, target):
    # the message names the key and the value the caller set
    base = load_config(write(tmp_path, VALID)).scenario
    with pytest.raises(ValueError) as info:
        apply_overrides(base, target, {key: BAD_VALUE[key]})
    assert key in str(info.value) and repr(BAD_VALUE[key]) in str(info.value)
