"""Parameter sweep campaigns, result tables and emitters.

A sweep runs a grid of operating points for several labelled parameter
variants, producing one row per (variant, grid value) with the analytic
quantities, the simulated estimates and the seed that reproduces the
simulation.  Each variant derives one seed from the base seed and its
index, and its grid points run as one simulation on that seed: a sweep
variable moves only the detector, so the points share their draws and
chain paths (common random numbers), which makes the simulated curve
smooth along the grid.  Each point's counts are those it gets alone on
that seed, so any row can be reproduced alone from its ``seed`` column.
A ``SweepDef`` checks itself when built; a ``SweepSpec`` holds one with the
base scenario and controls, and builds, and so checks, every point and
seed once (``runs``).

``CASES`` holds the two stock campaigns, which mirror the headline
experiments; ``campaign`` builds one of them, or a config's [sweep]:

* case 1 -- sweep the primary SNR (dB) with the detection threshold fixed
  by a target false-alarm probability, one curve per energy-arrival chain.
* case 2 -- sweep the normalized detection threshold at fixed SNR, one
  curve per spectrum occupancy chain.

The fields of ``SweepResultRow`` are the row schema: the CSV header and
both data emitters walk them.
"""

import json
from dataclasses import field, fields, replace
from operator import attrgetter
from pathlib import Path

from ehcrn.analytic import Scenario, operating_point
from ehcrn.chains import RandomStream, frozen
from ehcrn.configio import SWEEP_VARIABLES, LoadedConfig, SweepDef, apply_overrides
from ehcrn.errors import ConfigError, as_config_error
from ehcrn.simulate import SimConfig, initial_level, run_points

__all__ = [
    "CASES",
    "CASE_ONE_GRID_DB",
    "CASE_ONE_VARIANTS",
    "CASE_TWO_GRID",
    "CASE_TWO_VARIANTS",
    "SweepResultRow",
    "SweepSpec",
    "apply_overrides",
    "campaign",
    "emit_csv",
    "emit_json",
    "emit_plot_script",
    "run_sweep",
]

CASE_ONE_GRID_DB = tuple(float(v) for v in range(-20, -7))
CASE_ONE_VARIANTS = (
    ("pon0.7-poff0.5", {"p_on": 0.7, "p_off": 0.5}),
    ("pon0.5-poff0.5", {"p_on": 0.5, "p_off": 0.5}),
    ("pon0.3-poff0.5", {"p_on": 0.3, "p_off": 0.5}),
)
# 0.98 .. 1.12 in steps of 0.005; the tail is long enough for the loss
# curve to flatten to within 1e-4 over the last few points.
CASE_TWO_GRID = tuple(round(0.98 + 0.005 * k, 10) for k in range(29))
CASE_TWO_VARIANTS = (
    ("qo0.7-qi0.5", {"q_o": 0.7, "q_i": 0.5}),
    ("qo0.5-qi0.5", {"q_o": 0.5, "q_i": 0.5}),
    ("qo0.3-qi0.5", {"q_o": 0.3, "q_i": 0.5}),
)

# Built-in campaigns by ``--case`` name; "custom" reads the config's [sweep].
CASES = {
    "1": SweepDef("primary_snr_db", CASE_ONE_GRID_DB, CASE_ONE_VARIANTS),
    "2": SweepDef("normalized_threshold", CASE_TWO_GRID, CASE_TWO_VARIANTS),
}


@frozen
class SweepResultRow:
    """One sweep point: analytic columns are re-derivable from the row's
    parameters alone; ``seed``, shared by the rows of one variant,
    reproduces the simulation columns of this row alone."""

    variant: str
    sweep_value: float
    analytic_pl: float
    sim_pl: float
    sim_pl_ci95: float
    analytic_pi0: float
    sim_pi0: float
    pf: float
    pd: float
    delta: float
    pi_idle: float
    slots: int
    seed: int


_FIELDS = fields(SweepResultRow)
_VALUES = attrgetter(*(f.name for f in _FIELDS))
CSV_HEADER = ",".join(f.name for f in _FIELDS)
# The C encoder, with the indent of an array element in its item separator.
_JSON_RECORD = json.JSONEncoder(separators=(",\n    ", ": ")).encode


@frozen
class SweepSpec:
    """A checked sweep definition with the base scenario and controls it runs on.
    ``runs``, built and so checked at construction, holds per variant its label,
    its scenario at each grid value and ``sim`` on ``derive_seed(sim.seed, vi)``.
    A variant keeps the base's threshold, which a config's ``target_pf`` fixed at
    load time, unless it sets ``target_pf`` or ``normalized_threshold`` itself."""

    sweep: SweepDef
    base: Scenario
    sim: SimConfig
    runs: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        runs = []
        for vi, (label, overrides) in enumerate(self.sweep.variants):
            try:
                scn, _ = apply_overrides(self.base, None, overrides)
                initial_level(scn, self.sim)
            except ValueError as exc:
                raise ValueError(f"variant {label!r}: {exc}") from None
            points = tuple(apply_overrides(scn, None, {self.sweep.variable: value})[0] for value in self.sweep.grid)
            runs.append((label, points, replace(self.sim, seed=RandomStream.derive_seed(self.sim.seed, vi))))
        self.__dict__["runs"] = tuple(runs)


def campaign(bundle: LoadedConfig, case: str) -> SweepSpec:
    """The campaign ``ehcrn sweep --case <case>`` runs: a built-in case
    from ``CASES``, or ``"custom"`` for the config's [sweep] section.
    Raises ``ConfigError`` if the config does not fit the case."""
    if case == "1" and bundle.target_pf is None:
        raise ConfigError(
            "case 1 derives the detection threshold from a target false-alarm "
            "rate; set detector.target_pf in the config"
        )
    if case == "custom":
        if bundle.sweep is None:
            raise ConfigError("the config file has no [sweep] section; one is required for --case custom")
        sweep = bundle.sweep
    elif bundle.sweep is not None:
        raise ConfigError(
            "cases 1 and 2 use built-in sweep definitions; remove the [sweep] "
            "section or run with --case custom"
        )
    else:
        sweep = CASES[case]
    with as_config_error("sweep"):
        return SweepSpec(sweep, bundle.scenario, bundle.sim)


def run_sweep(spec: SweepSpec) -> list[SweepResultRow]:
    """Run every (variant, grid value) point; rows ordered by (variant, value).

    A sweep variable moves only the detector, so a variant's grid points run
    as one simulation on common random numbers, on the variant's seed: its
    first point's chains and battery with every point's detector."""
    rows = []
    for label, points, sim in spec.runs:
        reports = run_points(points[0], [p.detector for p in points], sim)
        for value, scenario, report in zip(spec.sweep.grid, points, reports):
            op = operating_point(scenario)
            rows.append(SweepResultRow(
                variant=label,
                sweep_value=float(value),
                analytic_pl=op.packet_loss,
                sim_pl=report.empirical_packet_loss,
                sim_pl_ci95=report.packet_loss_ci95,
                analytic_pi0=op.outage,
                sim_pi0=report.empirical_outage_occupancy,
                pf=op.pf,
                pd=op.pd,
                delta=op.delta,
                pi_idle=op.pi_idle,
                slots=report.slots,
                seed=sim.seed,
            ))
    return rows


def format_float(x: float) -> str:
    """Canonical 9-significant-digit rendering used by all emitters."""
    return format(float(x), ".9g")


def _cells(row: SweepResultRow) -> list[str]:
    """The row's cells in header order, as text: floats to 9 significant digits."""
    return [format_float(value) if f.type is float else str(f.type(value))
            for f, value in zip(_FIELDS, _VALUES(row))]


def emit_csv(rows, path) -> None:
    """Write rows as CSV: fixed header, 9-significant-digit floats, LF endings,
    written in one call.  No cell needs quoting: a label matches
    ``configio._LABEL`` and a number is ``.9g`` or integer text."""
    if not rows:
        raise ValueError("no rows to emit")
    body = "".join(",".join(_cells(row)) + "\n" for row in rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n" + body)


def emit_json(rows, path) -> None:
    """Write rows as a JSON array with the same field names and the same
    9-significant-digit values as the CSV, in the bytes of ``json.dump``
    with ``indent=2``, written in one call."""
    if not rows:
        raise ValueError("no rows to emit")
    records = "\n  },\n  {\n    ".join(
        _JSON_RECORD({f.name: f.type(cell) for f, cell in zip(_FIELDS, _cells(row))})[1:-1] for row in rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("[\n  {\n    " + records + "\n  }\n]\n")


def emit_plot_script(rows, path, sweep_variable: str) -> None:
    """Write a gnuplot script rendering analytic curves plus simulated
    points with error bars, one series per variant.

    The script references only the CSV, by relative path: the same stem
    with a .csv suffix, assumed to sit next to the script.
    """
    if not rows:
        raise ValueError("no rows to emit")
    if sweep_variable not in SWEEP_VARIABLES:
        raise ValueError(
            f"sweep_variable must be one of {tuple(SWEEP_VARIABLES)}, got {sweep_variable!r}"
        )
    labels = list(dict.fromkeys(row.variant for row in rows))
    lines = [
        "# generated by ehcrn sweep; run with: gnuplot -persist " + Path(path).name,
        f'csvfile = "{Path(path).with_suffix(".csv").name}"',
        "set datafile separator comma",
        f'set xlabel "{SWEEP_VARIABLES[sweep_variable]}"',
        'set ylabel "packet loss probability"',
        "set key outside right top",
        "set grid",
        f'labels = "{" ".join(labels)}"',
        "plot \\",
        "    for [v in labels] csvfile skip 1 \\",
        "        using (strcol(1) eq v ? column(2) : NaN):(column(3)) \\",
        '        with lines lw 2 title v." (analytic)", \\',
        "    for [v in labels] csvfile skip 1 \\",
        "        using (strcol(1) eq v ? column(2) : NaN):(column(4)):(column(5)) \\",
        '        with yerrorbars pt 7 ps 0.6 title v." (simulated)"',
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
