#!/usr/bin/env python3
"""Compare signal-level sensing against the Gaussian-approximation rates.

For a range of sample counts N, prints the false-alarm and detection
rates three ways: the closed forms' Gaussian approximation (``model``),
the exact finite-N law of the energy statistic, Q(N, eps N / v)
(``exact``, the rates signal-mode simulation uses), both from
``analytic.detector_rates``, and the busy share of that many sampled
statistics, each drawn by that law as v / N times one Gamma(N, 1)
variable (``sampled``).  The gap between model and
exact is the Gaussian-approximation error, which shrinks roughly like
1/sqrt(N); sampled differs from exact by Monte-Carlo noise only.

Usage:
    python scripts/detector_check.py [--trials 100000] [--snr-db -15]
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ehcrn.analytic import DetectorConfig, detector_rates, threshold_for_target_pf
from ehcrn.chains import RandomStream
from ehcrn.simulate import measure_signal_rate


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=100_000)
    parser.add_argument("--snr-db", type=float, default=-15.0)
    parser.add_argument("--target-pf", type=float, default=0.01)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    snr = 10.0 ** (args.snr_db / 10.0)
    print(f"trials={args.trials}  target_pf={args.target_pf}  snr={args.snr_db} dB")
    print(f"{'N':>6} {'pf_model':>10} {'pf_exact':>10} {'pf_sampled':>11} "
          f"{'pd_model':>10} {'pd_exact':>10} {'pd_sampled':>11}")
    for n in (50, 200, 1000, 2000):
        det = DetectorConfig(
            sensing_duration=n / 1e6, sampling_rate=1e6,
            noise_power=1.0, threshold=1.0, primary_snr=snr,
        )
        det = replace(det, threshold=threshold_for_target_pf(args.target_pf, det))
        pf_model, pd_model = detector_rates(det, "event")
        pf_exact, pd_exact = detector_rates(det, "signal")
        pf_hat = measure_signal_rate(0, det, RandomStream(args.seed, 0), args.trials)
        pd_hat = measure_signal_rate(1, det, RandomStream(args.seed, 1), args.trials)
        print(f"{n:>6} {pf_model:>10.5f} {pf_exact:>10.5f} {pf_hat:>11.5f} "
              f"{pd_model:>10.5f} {pd_exact:>10.5f} {pd_hat:>11.5f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
