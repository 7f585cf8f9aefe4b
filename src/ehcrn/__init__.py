"""Packet-loss analysis for an energy-harvesting opportunistic spectrum access link.

The library has four layers:

* :mod:`ehcrn.gaussian` / :mod:`ehcrn.chains` -- numeric and stochastic
  primitives (Gaussian tail function, correlated two-state chains,
  reproducible random streams).
* :mod:`ehcrn.analytic` -- closed-form operating characteristics: energy
  detector false-alarm / detection probabilities, spectrum access
  probability, the battery birth-death chain and its stationary law, and
  the per-slot packet-loss probability.
* :mod:`ehcrn.simulate` / :mod:`ehcrn.kernel` -- a slot-based Monte-Carlo
  simulator of the full system used to validate the closed forms, and
  the array kernel that advances its slots.
* :mod:`ehcrn.sweep` / :mod:`ehcrn.configio` / :mod:`ehcrn.cli` -- the
  experiment harness: config files, parameter sweep campaigns, CSV/JSON
  emission and gnuplot script generation.
"""

from ehcrn.analytic import (
    BatteryModel,
    DetectorConfig,
    OperatingPoint,
    Scenario,
    access_prob_from_rates,
    battery_steady_state,
    battery_transition_matrix,
    detector_rates,
    operating_point,
    outage_prob,
    steady_state_numeric,
    threshold_for_target_pf,
)
from ehcrn.chains import RandomStream, TwoStateChain, steady_state
from ehcrn.errors import ConfigError, NumericsError
from ehcrn.gaussian import q_tail, q_tail_inverse
from ehcrn.simulate import SimConfig, SimReport, run_replication, run_simulation
from ehcrn.sweep import SweepResultRow, SweepSpec, emit_csv, emit_json, emit_plot_script, run_sweep

__version__ = "0.1.0"

__all__ = [
    "BatteryModel",
    "ConfigError",
    "DetectorConfig",
    "NumericsError",
    "OperatingPoint",
    "RandomStream",
    "Scenario",
    "SimConfig",
    "SimReport",
    "SweepResultRow",
    "SweepSpec",
    "TwoStateChain",
    "access_prob_from_rates",
    "battery_steady_state",
    "battery_transition_matrix",
    "detector_rates",
    "emit_csv",
    "emit_json",
    "emit_plot_script",
    "operating_point",
    "outage_prob",
    "q_tail",
    "q_tail_inverse",
    "run_replication",
    "run_simulation",
    "run_sweep",
    "steady_state",
    "steady_state_numeric",
    "threshold_for_target_pf",
]
