"""Smoke tests of the scripts under ``scripts/``."""

import importlib.util
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

from ehcrn import kernel, simulate
from ehcrn.analytic import DetectorConfig, detector_rates, threshold_for_target_pf
from ehcrn.configio import load_config

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_detector_check_prints_the_exact_rates():
    done = subprocess.run([sys.executable, str(SCRIPTS / "detector_check.py"), "--trials", "2000"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()[1:]
    columns = header.split()
    assert len(rows) == 4
    for row in rows:
        cells = dict(zip(columns, row.split()))
        n = int(cells["N"])
        det = DetectorConfig(sensing_duration=n / 1e6, sampling_rate=1e6, noise_power=1.0,
                             threshold=1.0, primary_snr=10.0 ** -1.5)
        det = replace(det, threshold=threshold_for_target_pf(0.01, det))
        pf_exact, pd_exact = detector_rates(det, "signal")
        assert cells["pf_exact"] == f"{pf_exact:.5f}"
        assert cells["pd_exact"] == f"{pd_exact:.5f}"


def load_bench_kernel(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/
    spec = importlib.util.spec_from_file_location("bench_kernel", SCRIPTS / "bench_kernel.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_bench_kernel_wraps_names_the_package_has(monkeypatch):
    bench = load_bench_kernel(monkeypatch)
    undo = bench._instrument(bench._Clock())
    try:
        assert (kernel, "verdicts") in [(module, name) for module, name, _ in undo]
        for module, name, original in undo:
            assert module in (kernel, simulate), name
            assert getattr(module, name) is not original, name
    finally:
        for module, name, original in undo:
            setattr(module, name, original)
    for module, name, original in undo:
        assert getattr(module, name) is original, name


def test_bench_kernel_times_every_advance_call(monkeypatch):
    # the simulator looks kernel.advance up on the module, so the wrapped
    # advance encloses its layers and the rest of it is positive
    bench = load_bench_kernel(monkeypatch)
    bundle = load_config(str(SCRIPTS.parent / "configs" / "case1.cfg"))
    cfg = replace(bundle.sim, slots=2 * kernel.SUB_BLOCK, replications=1)
    ms = bench._block_ms(bundle.scenario, [bundle.scenario.detector], cfg)
    assert ms["advance_rest"] > 0
    assert min(ms.values()) >= 0


def test_bench_kernel_closed_form_section(monkeypatch):
    bench = load_bench_kernel(monkeypatch)
    out = bench.closed_form(repeats=2, calls=3)
    assert out.pop("calls") == 3
    assert set(out) == {"operating_point_us_case1", "operating_point_us_case2", "threshold_us",
                        "random_batteries_ms", "closed_form_vs_numeric_ms", "birth_death_ms",
                        "run_validation_ms_case1", "run_validation_ms_case2", "analyze_ms_case1",
                        "analyze_ms_case2"}
    for figure in out.values():
        assert set(figure) == {"median", "q1", "q3"}
        assert 0 <= figure["q1"] <= figure["median"] <= figure["q3"]
