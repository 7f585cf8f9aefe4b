"""Sweep campaigns, emitters and reproducibility."""

import csv
import io
import json
import math
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ehcrn.analytic import (
    BatteryModel,
    access_prob_from_rates,
    outage_prob,
    threshold_for_target_pf,
)
from ehcrn import sweep
from ehcrn.chains import RandomStream
from ehcrn.configio import (
    _LABEL, OVERRIDE_FIELDS, SWEEP_VARIABLES, SweepDef, load_config, snr_db_to_linear,
)
from ehcrn.errors import ConfigError
from ehcrn.simulate import run_simulation
from ehcrn.sweep import (
    CASE_ONE_GRID_DB,
    CASE_TWO_GRID,
    CSV_HEADER,
    SweepResultRow,
    SweepSpec,
    apply_overrides,
    campaign,
    emit_csv,
    emit_json,
    emit_plot_script,
    run_sweep,
)

TINY = """
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
levels = 20
[sim]
slot_duration = 0.1
slots = 4000
replications = 2
seed = 7
[sweep]
variable = primary_snr_db
grid = -18, -14, -10
variant_1 = eh_frequent: p_on=0.7 p_off=0.5
variant_2 = eh_scarce: p_on=0.3 p_off=0.5
"""


@pytest.fixture
def tiny_bundle(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY, encoding="utf-8")
    return load_config(str(path))


@pytest.fixture
def tiny_rows(tiny_bundle):
    return run_sweep(campaign(tiny_bundle, "custom"))


class TestSweepSpec:
    def test_case_builders(self):
        repo = Path(__file__).resolve().parents[1]
        one = campaign(load_config(str(repo / "configs" / "case1.cfg")), "1")
        assert one.sweep.variable == "primary_snr_db"
        assert one.sweep.grid == CASE_ONE_GRID_DB
        assert len(one.sweep.variants) == 3
        two = campaign(load_config(str(repo / "configs" / "case2.cfg")), "2")
        assert two.sweep.variable == "normalized_threshold"
        assert two.sweep.grid == CASE_TWO_GRID
        assert len(two.sweep.variants) == 3
        # holds a SweepDef with its base and controls, in that positional order
        assert not isinstance(one, SweepDef)
        assert [f.name for f in fields(SweepSpec)] == ["sweep", "base", "sim", "runs"]

    def test_definition_is_checked_once(self, tmp_path, monkeypatch):
        # a SweepDef checks itself when built; a SweepSpec holds the one it is given
        calls = []
        check = SweepDef.__post_init__

        def counted(self):
            calls.append(self)
            check(self)

        monkeypatch.setattr(SweepDef, "__post_init__", counted)
        path = tmp_path / "tiny.cfg"
        path.write_text(TINY, encoding="utf-8")
        bundle = load_config(str(path))
        assert len(calls) == 1
        campaign(bundle, "custom")
        assert len(calls) == 1
        one = load_config(str(Path(__file__).resolve().parents[1] / "configs" / "case1.cfg"))
        before = len(calls)
        campaign(one, "1")
        assert len(calls) == before

    def test_holds_the_definition_it_is_given(self, tiny_bundle):
        assert campaign(tiny_bundle, "custom").sweep is tiny_bundle.sweep
        one = load_config(str(Path(__file__).resolve().parents[1] / "configs" / "case1.cfg"))
        assert campaign(one, "1").sweep is sweep.CASES["1"]

    def test_case_one_requires_target(self, tmp_path):
        text = TINY.replace("target_pf = 0.01", "normalized_threshold = 1.05")
        path = tmp_path / "x.cfg"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match="target"):
            campaign(load_config(str(path)), "1")

    def test_custom_requires_sweep_section(self, tmp_path):
        text = TINY.split("[sweep]")[0]
        path = tmp_path / "x.cfg"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match="sweep"):
            campaign(load_config(str(path)), "custom")

    def test_grid_must_increase(self, tiny_bundle):
        spec = campaign(tiny_bundle, "custom")
        with pytest.raises(ValueError, match="increasing"):
            SweepDef(variable=spec.sweep.variable, grid=(1.0, 1.0), variants=spec.sweep.variants)

    @pytest.mark.parametrize("label", ["bad label", "bad,label", "bad\tlabel", 'bad"label', "bad\\label"],
                             ids=["space", "comma", "tab", "quote", "backslash"])
    def test_labels_must_be_clean(self, tiny_bundle, label):
        spec = campaign(tiny_bundle, "custom")
        with pytest.raises(ValueError, match="label"):
            SweepDef(variable=spec.sweep.variable, grid=spec.sweep.grid, variants=((label, {"p_on": 0.5}),))

    @pytest.mark.parametrize("case", ["1", "2"])
    def test_runs_hold_every_point_and_seed(self, case):
        # each variant's entry is the per-point build at every grid value,
        # on the variant's derived seed; the reference derives the variant's
        # threshold from the config's target again, the spec keeps the base's
        repo = Path(__file__).resolve().parents[1]
        bundle = load_config(str(repo / "configs" / f"case{case}.cfg"))
        spec = campaign(bundle, case)
        assert len(spec.runs) == len(spec.sweep.variants)
        for vi, ((label, overrides), run) in enumerate(zip(spec.sweep.variants, spec.runs)):
            variant, _ = apply_overrides(spec.base, bundle.target_pf, overrides)
            points = tuple(apply_overrides(variant, None, {spec.sweep.variable: v})[0] for v in spec.sweep.grid)
            sim = replace(spec.sim, seed=RandomStream.derive_seed(spec.sim.seed, vi))
            assert run == (label, points, sim)

    def test_replace_rebuilds_runs(self, tiny_bundle):
        spec = campaign(tiny_bundle, "custom")
        moved = replace(spec, sim=replace(spec.sim, seed=spec.sim.seed + 1))
        assert [sim.seed for _, _, sim in moved.runs] == [
            RandomStream.derive_seed(spec.sim.seed + 1, vi) for vi in range(len(spec.sweep.variants))]
        assert "runs" not in repr(spec)

    @pytest.mark.parametrize("variable, grid", [
        ("primary_snr_db", (-18.0, math.nan, -10.0)),
        ("normalized_threshold", (0.99, math.nan, 1.05)),
    ], ids=["snr", "threshold"])
    def test_nan_inside_the_grid_rejected_when_built(self, tiny_bundle, variable, grid):
        # strictly increasing holds vacuously around a NaN; the point itself is invalid
        spec = campaign(tiny_bundle, "custom")
        with pytest.raises(ValueError, match="nan"):
            SweepSpec(SweepDef(variable, grid, spec.sweep.variants), spec.base, spec.sim)
        bundle = replace(tiny_bundle, sweep=SweepDef(variable, grid, tiny_bundle.sweep.variants))
        with pytest.raises(ConfigError, match="nan"):
            campaign(bundle, "custom")

    def test_fractional_levels_rejected(self, tiny_bundle):
        spec = campaign(tiny_bundle, "custom")
        message = "battery_levels must be an integer >= 2, got 7.9"
        with pytest.raises(ValueError, match=message):
            apply_overrides(spec.base, tiny_bundle.target_pf, {"levels": 7.9})
        with pytest.raises(ValueError, match=message):
            SweepSpec(SweepDef(spec.sweep.variable, spec.sweep.grid, (("fractional", {"levels": 7.9}),)),
                      spec.base, spec.sim)


class TestApplyOverrides:
    CASE1 = str(Path(__file__).resolve().parents[1] / "configs" / "case1.cfg")

    @pytest.mark.parametrize("overrides", [
        {"target_pf": 0.1, "normalized_threshold": 1.05},
        {"normalized_threshold": 1.05, "target_pf": 0.1},
    ], ids=["target-first", "threshold-first"])
    def test_both_threshold_keys_rejected(self, overrides):
        bundle = load_config(self.CASE1)
        with pytest.raises(ValueError, match=r"set one of \['normalized_threshold', 'target_pf'\], not both"):
            apply_overrides(bundle.scenario, bundle.target_pf, overrides)

    def test_no_target_keeps_threshold(self):
        # a grid point passes no target: the threshold a target derives
        # depends on no override key, so it is the variant's already
        bundle = load_config(self.CASE1)
        variant, target = apply_overrides(bundle.scenario, 0.05, {"p_on": 0.3})
        kept, none = apply_overrides(variant, None, {"primary_snr_db": -9.0})
        derived, same = apply_overrides(variant, target, {"primary_snr_db": -9.0})
        assert none is None and same == 0.05
        assert kept == derived
        assert kept.detector.threshold == variant.detector.threshold


class TestRunSweep:
    def test_row_order_and_shape(self, tiny_rows):
        assert [(r.variant, r.sweep_value) for r in tiny_rows] == [
            ("eh_frequent", -18.0), ("eh_frequent", -14.0), ("eh_frequent", -10.0),
            ("eh_scarce", -18.0), ("eh_scarce", -14.0), ("eh_scarce", -10.0),
        ]
        assert all(r.slots == 8000 for r in tiny_rows)

    def test_analytic_columns_rederivable(self, tiny_rows):
        for row in tiny_rows:
            # spectrum fixed by the base config; energy from the variant label
            pi_idle = (1 - 0.7) / (2 - 0.5 - 0.7)
            p_on = 0.7 if row.variant == "eh_frequent" else 0.3
            e_on = (1 - 0.5) / (2 - p_on - 0.5)
            assert row.pi_idle == pytest.approx(pi_idle, abs=1e-12)
            delta = access_prob_from_rates(row.pf, row.pd, pi_idle)
            assert row.delta == pytest.approx(delta, abs=1e-12)
            pi0 = outage_prob(BatteryModel(20, delta, e_on))
            assert row.analytic_pi0 == pytest.approx(pi0, abs=1e-12)
            expected_pl = 1 - (1 - pi0) * (1 - row.pf) * pi_idle
            assert row.analytic_pl == pytest.approx(expected_pl, abs=1e-12)

    def test_case_one_threshold_fixed_across_grid(self, tiny_rows):
        # with a target false-alarm rate the threshold does not depend on
        # the snr, so pf is constant and pd varies
        pfs = {round(r.pf, 12) for r in tiny_rows}
        assert len(pfs) == 1
        assert len({round(r.pd, 12) for r in tiny_rows}) == 3

    def test_builds_no_scenario(self, tiny_bundle, monkeypatch):
        # every point is built with the spec; running it builds none
        spec = campaign(tiny_bundle, "custom")
        calls, build = [], sweep.apply_overrides
        monkeypatch.setattr(sweep, "apply_overrides", lambda *args: calls.append(args) or build(*args))
        assert len(run_sweep(spec)) == 6
        assert calls == []

    def test_deterministic_rerun(self, tiny_bundle):
        a = run_sweep(campaign(tiny_bundle, "custom"))
        b = run_sweep(campaign(tiny_bundle, "custom"))
        assert a == b

    def test_each_row_reproduces_alone_from_its_seed(self, tiny_bundle, tiny_rows):
        # the tiny sweep varies the SNR at a fixed target false-alarm rate
        variants = dict(tiny_bundle.sweep.variants)
        for row in tiny_rows:
            scn, target = apply_overrides(
                tiny_bundle.scenario, tiny_bundle.target_pf, variants[row.variant])
            det = replace(scn.detector, primary_snr=snr_db_to_linear(row.sweep_value))
            det = replace(det, threshold=threshold_for_target_pf(target, det))
            report = run_simulation(replace(scn, detector=det),
                                    replace(tiny_bundle.sim, seed=row.seed))
            assert report.empirical_packet_loss == row.sim_pl


class TestCommonRandomNumbers:
    """A variant's grid points run on one seed and share their draws and
    chain paths, which only holds while a sweep variable moves the detector."""

    def test_sweep_variables_move_only_the_detector(self):
        # run_sweep runs a variant on its first point's chains and battery
        # with every point's detector, so any other override would be dropped
        for variable in SWEEP_VARIABLES:
            assert OVERRIDE_FIELDS[variable][0] == "detector", variable

    def test_seed_repeats_within_a_variant(self, tiny_rows):
        seeds = {}
        for row in tiny_rows:
            seeds.setdefault(row.variant, set()).add(row.seed)
        assert all(len(s) == 1 for s in seeds.values())
        assert len({s.pop() for s in seeds.values()}) == len(seeds)

    @pytest.mark.parametrize("sensing_mode", ["event", "signal"])
    def test_case_one_loss_falls_along_the_snr_grid(self, sensing_mode):
        # pf is fixed by target_pf and a higher SNR only adds busy verdicts
        # on occupied slots; the battery map is monotone, so on the same
        # draws the battery path, and with it the delivered count, can only rise
        repo = Path(__file__).resolve().parents[1]
        bundle = load_config(str(repo / "configs" / "case1.cfg"))
        bundle = replace(bundle, sim=replace(bundle.sim, slots=512, sensing_mode=sensing_mode))
        rows = run_sweep(campaign(bundle, "1"))
        curves = {}
        for row in rows:
            curves.setdefault(row.variant, []).append(row.sim_pl)
        assert len(curves) == 3
        for label, curve in curves.items():
            assert len(curve) == len(CASE_ONE_GRID_DB)
            assert all(b <= a for a, b in zip(curve, curve[1:])), (label, curve)


class TestEmitters:
    def test_csv_header_and_shape(self, tiny_rows, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv(tiny_rows, path)
        lines = path.read_bytes().split(b"\n")
        assert lines[0].decode() == CSV_HEADER
        assert len(lines) == 2 + len(tiny_rows)  # header + rows + trailing LF
        assert b"\r" not in path.read_bytes()

    def test_csv_single_row(self, tiny_rows, tmp_path):
        path = tmp_path / "one.csv"
        emit_csv(tiny_rows[:1], path)
        assert len(path.read_text().splitlines()) == 2

    def test_csv_round_trip(self, tiny_rows, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv(tiny_rows, path)
        with open(path, newline="") as fh:
            parsed = list(csv.DictReader(fh))
        assert len(parsed) == len(tiny_rows)
        for rec, row in zip(parsed, tiny_rows):
            assert rec["variant"] == row.variant
            assert float(rec["sweep_value"]) == row.sweep_value
            assert float(rec["analytic_pl"]) == pytest.approx(row.analytic_pl, rel=1e-8)
            assert int(rec["slots"]) == row.slots
            assert int(rec["seed"]) == row.seed

    def test_nine_significant_digits(self, tiny_rows, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv(tiny_rows, path)
        for line in path.read_text().splitlines()[1:]:
            for cell in line.split(",")[1:11]:
                mantissa = cell.lstrip("-0.").replace(".", "").split("e")[0]
                assert len(mantissa) <= 9

    def test_json_matches_csv_values(self, tiny_rows, tmp_path):
        csv_path = tmp_path / "out.csv"
        json_path = tmp_path / "out.json"
        emit_csv(tiny_rows, csv_path)
        emit_json(tiny_rows, json_path)
        with open(json_path) as fh:
            objs = json.load(fh)
        with open(csv_path, newline="") as fh:
            recs = list(csv.DictReader(fh))
        assert len(objs) == len(recs)
        for obj, rec in zip(objs, recs):
            for key, value in obj.items():
                if isinstance(value, float):
                    assert float(rec[key]) == value
                else:
                    assert str(value) == rec[key]

    def test_emitters_reject_empty(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv([], tmp_path / "x.csv")
        with pytest.raises(ValueError):
            emit_json([], tmp_path / "x.json")
        with pytest.raises(ValueError):
            emit_plot_script([], tmp_path / "x.gp", sweep_variable="primary_snr_db")

    def test_byte_identical_emission(self, tiny_bundle, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_sweep(campaign(tiny_bundle, "custom")), a)
        emit_csv(run_sweep(campaign(tiny_bundle, "custom")), b)
        assert a.read_bytes() == b.read_bytes()


# A JSON row holds the CSV cell's value: floats to 9 significant digits.
def _json_record(row):
    return {f.name: float(format(getattr(row, f.name), ".9g")) if f.type is float else getattr(row, f.name)
            for f in fields(SweepResultRow)}


_FLOATS = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-05, 5e-324]),
                    st.floats())
_ROWS = st.lists(st.builds(
    SweepResultRow, st.from_regex(_LABEL, fullmatch=True), *[_FLOATS] * 10,
    st.integers(1, 2**63), st.integers(0, 2**64 - 1)), min_size=1, max_size=5)


@settings(max_examples=60, deadline=None)
@given(rows=_ROWS)
def test_json_bytes_are_indent_two(rows):
    # the file is exactly json.dump(records, indent=2) plus a newline
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.json"
        emit_json(rows, path)
        assert path.read_bytes() == (json.dumps([_json_record(r) for r in rows], indent=2) + "\n").encode()


@settings(max_examples=60, deadline=None)
@given(rows=_ROWS)
def test_csv_bytes_are_csv_writer(rows):
    # the one joined string is what csv.writer writes: no cell needs quoting
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(f.name for f in fields(SweepResultRow))
    writer.writerows([format(getattr(r, f.name), ".9g") if f.type is float else getattr(r, f.name)
                      for f in fields(SweepResultRow)] for r in rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.csv"
        emit_csv(rows, path)
        assert path.read_bytes() == out.getvalue().encode()


class TestPlotScript:
    def test_snr_sweep_labels(self, tiny_rows, tmp_path):
        path = tmp_path / "case.gp"
        emit_plot_script(tiny_rows, path, sweep_variable="primary_snr_db")
        text = path.read_text()
        assert 'set xlabel "primary SNR (dB)"' in text
        assert '"case.csv"' in text
        assert "eh_frequent eh_scarce" in text
        assert str(tmp_path) not in text  # relative reference only

    def test_threshold_sweep_label(self, tiny_rows, tmp_path):
        path = tmp_path / "case2.gp"
        emit_plot_script(tiny_rows, path, sweep_variable="normalized_threshold")
        assert 'set xlabel "normalized detection threshold"' in path.read_text()

    def test_rejects_unknown_variable(self, tiny_rows, tmp_path):
        with pytest.raises(ValueError):
            emit_plot_script(tiny_rows, tmp_path / "x.gp", sweep_variable="snr")
