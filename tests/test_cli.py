"""CLI subcommands, argument plumbing and exit codes."""

import hashlib
import io
import json
import re
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from ehcrn import cli
from ehcrn.cli import ANALYZE_HEADER, main

REPO = Path(__file__).resolve().parents[1]
CASE1 = str(REPO / "configs" / "case1.cfg")
CASE2 = REPO / "configs" / "case2.cfg"

SMALL = """
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
slots = 3000
replications = 2
seed = 5
[sweep]
variable = normalized_threshold
grid = 1.0, 1.03, 1.06
variant_1 = a: q_o=0.7 q_i=0.5
variant_2 = b: q_o=0.3 q_i=0.5
"""


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL, encoding="utf-8")
    return str(path)


class TestAnalyze:
    def test_prints_header_and_row(self, capsys):
        assert main(["analyze", "--config", CASE1]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == ANALYZE_HEADER
        cells = out[1].split(",")
        assert len(cells) == len(ANALYZE_HEADER.split(","))
        assert float(cells[0]) == pytest.approx(0.01, abs=1e-9)  # pf at target
        assert 0.0 <= float(cells[-1]) <= 1.0


class TestSimulate:
    def test_overrides_and_report(self, small_cfg, capsys):
        code = main(["simulate", "--config", small_cfg, "--slots", "2000",
                     "--replications", "1", "--seed", "77"])
        assert code == 0
        out = capsys.readouterr().out
        assert "packet loss (simulated)" in out
        assert "2000 (1 replication(s))" in out

    def test_signal_mode_flag(self, small_cfg, capsys):
        code = main(["simulate", "--config", small_cfg, "--slots", "2000",
                     "--replications", "1", "--sensing", "signal"])
        assert code == 0
        assert "signal" in capsys.readouterr().out

    def test_bad_override_is_config_error(self, small_cfg, capsys):
        assert main(["simulate", "--config", small_cfg, "--slots", "-5"]) == 2


class TestSweepCommand:
    def test_custom_sweep_writes_files(self, small_cfg, tmp_path, capsys):
        out = tmp_path / "results"
        code = main(["sweep", "--case", "custom", "--config", small_cfg,
                     "--out", str(out), "--format", "json", "--plots"])
        assert code == 0
        assert (out / "custom.csv").is_file()
        assert (out / "custom.json").is_file()
        assert (out / "custom.gp").is_file()
        with open(out / "custom.json") as fh:
            rows = json.load(fh)
        assert len(rows) == 6
        assert 'set xlabel "normalized detection threshold"' in (out / "custom.gp").read_text()

    def test_case_with_sweep_section_rejected(self, small_cfg, capsys):
        assert main(["sweep", "--case", "1", "--config", small_cfg, "--out", "/tmp/x"]) == 2
        assert "built-in" in capsys.readouterr().err

    def test_custom_without_sweep_section_rejected(self, capsys):
        assert main(["sweep", "--case", "custom", "--config", CASE1, "--out", "/tmp/x"]) == 2

    def test_analyze_rejects_bad_sweep_section(self, tmp_path, capsys):
        # the [sweep] section is checked at load, whatever the subcommand
        path = tmp_path / "bad.cfg"
        path.write_text(SMALL.replace("grid = 1.0, 1.03, 1.06", "grid = 1.06, 1.03"))
        assert main(["analyze", "--config", str(path)]) == 2
        assert "strictly increasing" in capsys.readouterr().err

    def test_overflowing_snr_grid_is_config_error(self, tmp_path, capsys):
        # 4000 dB has no float power ratio; the sweep reports it, not a numeric error
        path = tmp_path / "snr.cfg"
        path.write_text(SMALL.replace("variable = normalized_threshold", "variable = primary_snr_db")
                        .replace("grid = 1.0, 1.03, 1.06", "grid = -20, 4000"))
        out = tmp_path / "results"
        assert main(["sweep", "--case", "custom", "--config", str(path), "--out", str(out)]) == 2
        assert "sweep: primary_snr_db 4000.0 overflows a float" in capsys.readouterr().err
        assert not out.exists()

    def test_out_path_collision_is_io_error(self, small_cfg, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("file, not a directory")
        code = main(["sweep", "--case", "custom", "--config", small_cfg,
                     "--out", str(blocker)])
        assert code == 4


class TestGoldenOutput:
    """The stock campaigns at 512 slots per replication, in event mode, and
    ``ehcrn simulate`` at 20000 slots per replication in both sensing modes,
    pinned by sha256.  The pins assume numpy's PCG64 bit stream: a numpy
    release that changes it moves the simulated columns and these hashes
    with them."""

    GOLDEN = {
        "1": {
            "case1.csv": "bb5e5130bcbb25258fc39a135387a3200b552965073d3e085a527c82035345f7",
            "case1.json": "99a6d3f26c06fd8525f2b02a97af1a16eef2c6042159011ba8f0fa48ea8b5a95",
            "case1.gp": "577fb12fecb5e8f503e3ccd5845a9b21e6021a100e49afbe881a392a90784328",
        },
        "2": {
            "case2.csv": "0ca8f674aaff024c1d071c68f36b72be5146eacee56db43c16c22616928d99b7",
            "case2.json": "8f572f6698c4a7d08f65cab8243c504b14afa5707d7eaa2d77a3dc702a2f6e0c",
            "case2.gp": "3886728fffe229875f46e0f201911013dc81e3d8a8d4a93a2930b321974bfeba",
        },
    }

    @pytest.mark.parametrize("case", ["1", "2"])
    def test_stock_campaign_bytes(self, case, tmp_path, capsys):
        text = (REPO / "configs" / f"case{case}.cfg").read_text()
        assert "slots = 1000000\n" in text and "sensing_mode = event\n" in text
        config = tmp_path / "stock.cfg"
        config.write_text(text.replace("slots = 1000000\n", "slots = 512\n"))
        out = tmp_path / "results"
        assert main(["sweep", "--case", case, "--config", str(config), "--out", str(out),
                     "--format", "json", "--plots"]) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in self.GOLDEN[case]}
        assert digests == self.GOLDEN[case]

    SIMULATE = {
        ("1", "event"): "8159860b9fa69f79e19ee65569c684e8f1f479cacdef8cd5a241bd3b1c8f3cf2",
        ("1", "signal"): "9d496eed481bdf7136f50041d789349e5cef17deb7129e88020269ba845dc577",
        ("2", "event"): "87afff29442bae7c951c24981ba194fc3f7efdd7feef3d02637f31366128d432",
        ("2", "signal"): "c98e5b9348e7890f299e8024dd28de7cc6fb8529d395ba42dcbdebced3296af3",
    }

    @pytest.mark.parametrize("case, sensing", sorted(SIMULATE))
    def test_stock_simulate_stdout(self, case, sensing, capsys):
        assert main(["simulate", "--config", str(REPO / "configs" / f"case{case}.cfg"),
                     "--slots", "20000", "--sensing", sensing]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == self.SIMULATE[case, sensing]

    # ``ehcrn analyze`` under each threshold key, and case 2 at the two
    # boundary thresholds: (config, old line, new line) -> sha256 of stdout.
    ANALYZE = {
        ("1", "target_pf = 0.01", "target_pf = 0.01"):
            "5da5f487901e6bd400f5d417f4b7fc51de496990aa4b438331dcf0446025bcf6",
        ("1", "target_pf = 0.01", "threshold = 1.03"):
            "88640f28297c307a3371aa76ca1802df2cfbbb420ac94fa603472a3780f299be",
        ("2", "normalized_threshold = 1.05", "normalized_threshold = 1.05"):
            "2c08a18d9756c01471ac92a397486bd4ed10203560c22ed1821dd7c66921778f",
        ("2", "normalized_threshold = 1.05", "normalized_threshold = 0.6"):
            "65c5de5a17a0abed24fe689ef5ba706a70dbc6fb27417e5c1abfe79f0b3d85f3",
        ("2", "normalized_threshold = 1.05", "normalized_threshold = 1.4"):
            "4452dcb6a37bc765c13f5558b66a61a91a142e709b92f7e06e75af1e57930f0e",
    }

    @pytest.mark.parametrize("case, old, new", list(ANALYZE),
                             ids=["target_pf", "threshold", "nt1.05", "nt0.6", "nt1.4"])
    def test_analyze_stdout(self, case, old, new, tmp_path, capsys):
        text = (REPO / "configs" / f"case{case}.cfg").read_text(encoding="utf-8")
        assert old in text
        config = tmp_path / "analyze.cfg"
        config.write_text(text.replace(old, new), encoding="utf-8")
        assert main(["analyze", "--config", str(config)]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == self.ANALYZE[case, old, new]


class TestInitialBatteryAboveTop:
    """A start level above the top is a config error (exit 2), found before
    any slot runs: in the base scenario or under a variant's ``levels``."""

    @pytest.fixture
    def base_cfg(self, tmp_path):
        path = tmp_path / "base.cfg"
        path.write_text(SMALL.replace("levels = 20", "levels = 10").replace(
            "seed = 5", "seed = 5\ninitial_battery = 50"))
        return str(path)

    def test_simulate(self, base_cfg, capsys):
        assert main(["simulate", "--config", base_cfg, "--slots", "100"]) == 2
        assert "initial_battery 50 exceeds the top level 9" in capsys.readouterr().err

    def test_sweep_custom(self, base_cfg, tmp_path, capsys):
        out = tmp_path / "results"
        assert main(["sweep", "--case", "custom", "--config", base_cfg, "--out", str(out)]) == 2
        assert "initial_battery 50 exceeds the top level 9" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_custom_variant_levels(self, tmp_path, capsys):
        path = tmp_path / "variant.cfg"
        path.write_text(SMALL.replace("seed = 5", "seed = 5\ninitial_battery = 10").replace(
            "variant_2 = b: q_o=0.3 q_i=0.5", "variant_2 = b: q_o=0.3 q_i=0.5 levels=5"))
        assert main(["simulate", "--config", str(path), "--slots", "100"]) == 0
        capsys.readouterr()
        out = tmp_path / "results"
        assert main(["sweep", "--case", "custom", "--config", str(path), "--out", str(out)]) == 2
        assert "variant 'b': initial_battery 10 exceeds the top level 4" in capsys.readouterr().err
        assert not out.exists()


class TestValidate:
    def test_passes_on_bundled_config(self, capsys):
        assert main(["validate", "--config", CASE1]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 5
        assert "[FAIL]" not in out


class TestBoundaryConfigs:
    """Case 2 with the threshold far from the noise level: delta rounds to
    exactly 1 (1.4) or 0 (0.6), and both commands give the finite limits."""

    @pytest.fixture(params=["0.6", "1.4"])
    def boundary_cfg(self, request, tmp_path):
        text = CASE2.read_text(encoding="utf-8")
        assert "normalized_threshold = 1.05" in text
        path = tmp_path / f"case2_nt{request.param}.cfg"
        path.write_text(text.replace("normalized_threshold = 1.05",
                                     f"normalized_threshold = {request.param}"))
        return request.param, str(path)

    def test_analyze(self, boundary_cfg, capsys):
        nt, path = boundary_cfg
        assert main(["analyze", "--config", path]) == 0
        header, row = capsys.readouterr().out.splitlines()
        values = dict(zip(header.split(","), (float(v) for v in row.split(","))))
        if nt == "1.4":
            assert values["delta"] == 1.0 and values["alpha"] == 0.0
            assert values["analytic_pi0"] == pytest.approx(1.0 - values["e_on"], abs=1e-9)
        else:
            assert values["delta"] == 0.0 and values["alpha"] == float("inf")
            assert values["analytic_pi0"] == 0.0 and values["analytic_pl"] == 1.0

    def test_validate(self, boundary_cfg, capsys):
        assert main(["validate", "--config", boundary_cfg[1]]) == 0
        assert capsys.readouterr().out.count("[PASS]") == 5


def stock(case, **values):
    """The stock config of ``case`` with the given keys set to new values."""
    text = (REPO / "configs" / f"case{case}.cfg").read_text(encoding="utf-8")
    for key, value in values.items():
        text, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        assert count == 1, key
    return text


# Configs that load but on which a dense solve of the configured battery
# fails: a stiff chain (delta ~ 4e-7, e_on ~ 3e-9), delta = e_on = 0 (every
# level absorbs) and delta = e_on = 1 (every level >= 1 absorbs); and a long
# battery, whose dense transition matrix alone takes 128 MB.
HARD_CONFIGS = {
    "stiff": stock(1, p_off="0.999999999", target_pf="0.999999", levels="1000"),
    "absorbing0": stock(1, q_o="1", p_off="1", target_pf="0.999999", primary_snr_db="300"),
    "absorbing1": stock(2, p_on="1", normalized_threshold="1.4"),
}
LONG_CONFIG = stock(1, levels="4000")


def run_quietly(argv):
    """(exit code, stdout, stderr) of one in-process ``main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestValidateVerdicts:
    """``validate`` certifies the configured battery in O(L) and passes on
    configs whose chain is stiff, absorbing or long."""

    @pytest.mark.parametrize("name", sorted(HARD_CONFIGS))
    def test_passes(self, name, tmp_path):
        path = tmp_path / f"{name}.cfg"
        path.write_text(HARD_CONFIGS[name], encoding="utf-8")
        code, out, err = run_quietly(["validate", "--config", str(path)])
        assert code == 0, err + out
        assert out.count("[PASS]") == 5
        line = next(x for x in out.splitlines() if "configured operating point" in x)
        assert float(re.search(r"\|outage diff\| = (\S+) at", line).group(1)) <= 1e-10

    def test_long_battery_memory(self, tmp_path):
        path = tmp_path / "long.cfg"
        path.write_text(LONG_CONFIG, encoding="utf-8")
        tracemalloc.start()
        try:
            code, out, err = run_quietly(["validate", "--config", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, err + out
        assert peak < 20e6, f"validate at L = 4000 peaked at {peak / 1e6:.1f} MB"


def _stay():
    return st.one_of(st.sampled_from([0.0, 1.0, 1e-9, 1.0 - 1e-9]), st.floats(0.0, 1.0))


@st.composite
def config_texts(draw):
    """A config file with every key drawn from its valid range, boundaries included."""
    threshold_key = draw(st.sampled_from(["target_pf", "normalized_threshold", "threshold"]))
    threshold = draw({
        "target_pf": st.one_of(st.sampled_from([1e-12, 1e-6, 0.999999, 1.0 - 1e-12]),
                               st.floats(1e-12, 1.0 - 1e-12)),
        "normalized_threshold": st.one_of(st.sampled_from([0.6, 1.0, 1.4]), st.floats(1e-3, 10.0)),
        "threshold": st.floats(1e-6, 1e6),
    }[threshold_key])
    levels = draw(st.integers(2, 1000))
    sensing_duration = draw(st.floats(1e-5, 0.01))
    values = {
        "spectrum": {"q_i": draw(_stay()), "q_o": draw(_stay())},
        "energy": {"p_on": draw(_stay()), "p_off": draw(_stay())},
        "detector": {
            "sensing_duration": sensing_duration,
            "sampling_rate": draw(st.floats(1e4, 1e8)),
            "noise_power": draw(st.floats(1e-6, 1e6)),
            "primary_snr_db": draw(st.one_of(st.sampled_from([-300.0, 300.0]),
                                             st.floats(-300.0, 300.0))),
            threshold_key: threshold,
        },
        "battery": {"levels": levels},
        "sim": {
            "slot_duration": draw(st.floats(sensing_duration, 1.0)),
            "slots": draw(st.integers(1, 10**6)),
            "replications": draw(st.integers(1, 4)),
            "seed": draw(st.integers(0, 2**64 - 1)),
            "sensing_mode": draw(st.sampled_from(["event", "signal"])),
            "initial_battery": draw(st.one_of(st.just("full"), st.integers(0, levels - 1))),
            "initial_states": draw(st.sampled_from(["steady-draw", "fixed"])),
            "num_pu_channels": draw(st.integers(1, 200)),
        },
    }
    return "".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for section, keys in values.items())


@pytest.mark.filterwarnings("ignore:sensing duration .* is more than a tenth of the slot")
@settings(max_examples=100, deadline=None)
@given(config_texts())
@example(HARD_CONFIGS["stiff"])
@example(HARD_CONFIGS["absorbing0"])
@example(HARD_CONFIGS["absorbing1"])
@example(LONG_CONFIG)
def test_every_loaded_config_gets_a_verdict(text):
    # exit 0, or 2 for a config that does not load; never 3 or a traceback
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.cfg"
        path.write_text(text, encoding="utf-8")
        for argv in (["analyze"], ["validate"], ["simulate", "--slots", "2000"]):
            code, out, err = run_quietly([*argv, "--config", str(path)])
            assert code in (0, 2), f"{argv[0]} exit {code}: {err}{out}"


class TestExitCodes:
    def test_missing_config_is_2(self, capsys):
        assert main(["analyze", "--config", "/nope/missing.cfg"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_config_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[spectrum]\nq_i = 1.0\n")
        assert main(["analyze", "--config", str(bad)]) == 2


class TestOneProcess:
    """main builds its parser once per process: a run must not see the runs before it."""

    @staticmethod
    def in_process(argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage error
            code = exc.code
        return code, capsys.readouterr().out

    def test_back_to_back_matches_separate_runs(self, small_cfg, tmp_path, capsys):
        runs = [
            ["analyze", "--config", CASE1],
            ["sweep", "--case", "custom", "--config", small_cfg, "--out", str(tmp_path / "out")],
            ["validate", "--config", CASE1],
            ["frobnicate"],
            ["simulate", "--config", small_cfg, "--slots", "-5"],
            ["analyze", "--config", small_cfg],
        ]
        together = [self.in_process(argv, capsys) for argv in runs]
        separate = []
        for argv in runs:
            proc = subprocess.run(
                [sys.executable, "-m", "ehcrn", *argv], capture_output=True, text=True,
                env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(REPO / "src")},
            )
            separate.append((proc.returncode, proc.stdout))
        assert [code for code, _ in together] == [0, 0, 0, 2, 2, 0]
        assert together == separate
        assert cli._build_parser() is cli._build_parser()


class TestSubprocessEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ehcrn", "analyze", "--config", CASE1],
            capture_output=True, text=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(REPO / "src")},
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith(ANALYZE_HEADER)

    def test_huge_snr_signal_mode_is_quiet(self, tmp_path):
        # at 3080 dB the occupied variance is 1e308 N0: P_d = Q(N, eps N / v) = 1, with no warning
        text = Path(CASE1).read_text(encoding="utf-8")
        assert "primary_snr_db = -15.0" in text
        config = tmp_path / "huge_snr.cfg"
        config.write_text(text.replace("primary_snr_db = -15.0", "primary_snr_db = 3080"))
        proc = subprocess.run(
            [sys.executable, "-m", "ehcrn", "simulate", "--config", str(config),
             "--sensing", "signal", "--slots", "2000"],
            capture_output=True, text=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(REPO / "src")},
        )
        assert proc.returncode == 0
        assert proc.stderr == ""

    def test_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ehcrn", "frobnicate"],
            capture_output=True, text=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(REPO / "src")},
        )
        assert proc.returncode == 2
