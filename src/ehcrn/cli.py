"""Command line interface.

Subcommands::

    ehcrn analyze  --config FILE                 analytic row to stdout
    ehcrn simulate --config FILE [--slots N] [--seed S]
                   [--sensing event|signal] [--replications R]
    ehcrn sweep    --case 1|2|custom --config FILE --out DIR
                   [--format csv|json] [--plots]
    ehcrn validate --config FILE                 oracle-equivalence suite

Exit codes: 0 success, 2 configuration error, 3 numeric/oracle failure or
out of memory, 4 I/O error.  A sweep runs its variants one after another in
row order, each variant's grid points as one simulation on the variant's seed.

``main`` alone loads ``--config`` and dispatches, inside the ``try`` that
maps errors to exit codes, to ``run(args, bundle)``, the handler each
subparser names.  ``sweep --case`` takes ``sweep.CASES`` plus ``custom``,
and ``sweep.campaign`` builds the campaign; ``_SIMULATE_FLAGS`` says which
``SimConfig`` field each ``simulate`` flag overrides.
"""

import argparse
import functools
import sys
from dataclasses import replace
from pathlib import Path

from ehcrn.analytic import SENSING_LAWS, operating_point
from ehcrn.configio import load_config
from ehcrn.errors import ConfigError, NumericsError, as_config_error
from ehcrn.simulate import run_simulation
from ehcrn.sweep import (
    CASES,
    campaign,
    emit_csv,
    emit_json,
    emit_plot_script,
    format_float,
    run_sweep,
)
from ehcrn.validate import run_validation

# analyze column -> the OperatingPoint attribute it prints
_ANALYZE_COLUMNS = (("pf", "pf"), ("pd", "pd"), ("delta", "delta"), ("pi_idle", "pi_idle"), ("e_on", "e_on"),
                    ("alpha", "alpha"), ("analytic_pi0", "outage"), ("analytic_pl", "packet_loss"))
ANALYZE_HEADER = ",".join(column for column, _ in _ANALYZE_COLUMNS)

# simulate flag -> the SimConfig field it overrides
_SIMULATE_FLAGS = (("slots", "slots"), ("seed", "seed"), ("sensing", "sensing_mode"),
                   ("replications", "replications"))


@functools.cache  # built on the first main call, then reused
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ehcrn",
        description="packet-loss analysis and simulation for an energy-harvesting "
                    "opportunistic spectrum access link",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="print the analytic operating point as a CSV row")
    p.set_defaults(run=_cmd_analyze)
    p.add_argument("--config", required=True, help="scenario config file")

    p = sub.add_parser("simulate", help="run the slot-level Monte-Carlo simulation")
    p.set_defaults(run=_cmd_simulate)
    p.add_argument("--config", required=True, help="scenario config file")
    p.add_argument("--slots", type=int, help="slots per replication (overrides config)")
    p.add_argument("--seed", type=int, help="base seed (overrides config)")
    p.add_argument("--sensing", choices=tuple(SENSING_LAWS), help="sensing mode (overrides config)")
    p.add_argument("--replications", type=int, help="replication count (overrides config)")

    p = sub.add_parser("sweep", help="run a sweep campaign and write result files")
    p.set_defaults(run=_cmd_sweep)
    p.add_argument("--case", required=True, choices=(*CASES, "custom"))
    p.add_argument("--config", required=True, help="base scenario config file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--plots", action="store_true", help="also write a gnuplot script")

    p = sub.add_parser("validate", help="run the oracle-equivalence suite")
    p.set_defaults(run=_cmd_validate)
    p.add_argument("--config", required=True, help="scenario config file")
    return parser


def _cmd_analyze(args, bundle) -> int:
    op = operating_point(bundle.scenario)
    print(ANALYZE_HEADER)
    print(",".join(format_float(getattr(op, name)) for _, name in _ANALYZE_COLUMNS))
    return 0


def _cmd_simulate(args, bundle) -> int:
    overrides = {
        field: getattr(args, flag) for flag, field in _SIMULATE_FLAGS if getattr(args, flag) is not None
    }
    with as_config_error():
        sim = replace(bundle.sim, **overrides)
    report = run_simulation(bundle.scenario, sim)
    op = operating_point(bundle.scenario)
    print(f"slots                      {report.slots} ({sim.replications} replication(s))")
    print(f"sensing mode               {sim.sensing_mode}")
    print(f"packet loss (simulated)    {report.empirical_packet_loss:.6f} "
          f"+/- {report.packet_loss_ci95:.6f} (95% CI)")
    print(f"packet loss (analytic)     {op.packet_loss:.6f}")
    print(f"outage occupancy sim/ana   {report.empirical_outage_occupancy:.6f} / {op.outage:.6f}")
    print(f"false alarm sim/ana        {report.empirical_pf:.6f} / {op.pf:.6f}")
    print(f"detection sim/ana          {report.empirical_pd:.6f} / {op.pd:.6f}")
    print(f"access prob sim/ana        {report.empirical_delta:.6f} / {op.delta:.6f}")
    print(f"idle prob sim/ana          {report.empirical_pi_idle:.6f} / {op.pi_idle:.6f}")
    print(f"delivered / collided       {report.packets_delivered} / {report.packets_collided}")
    print(f"lost to outage / no-access {report.packets_lost_outage} / "
          f"{report.packets_lost_false_alarm_or_busy}")
    return 0


def _cmd_sweep(args, bundle) -> int:
    spec = campaign(bundle, args.case)
    stem = "custom" if args.case == "custom" else f"case{args.case}"
    rows = run_sweep(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{stem}.csv"
    emit_csv(rows, csv_path)
    written = [csv_path]
    if args.format == "json":
        json_path = out / f"{stem}.json"
        emit_json(rows, json_path)
        written.append(json_path)
    if args.plots:
        plot_path = out / f"{stem}.gp"
        emit_plot_script(rows, plot_path, sweep_variable=spec.sweep.variable)
        written.append(plot_path)
    for path in written:
        print(path)
    return 0


def _cmd_validate(args, bundle) -> int:
    results = run_validation(bundle)
    failed = False
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.name}: {res.detail}")
        failed = failed or not res.passed
    return 3 if failed else 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args, load_config(args.config))
    except ConfigError as exc:
        print(f"ehcrn: config error: {exc}", file=sys.stderr)
        return 2
    except (NumericsError, ValueError, ArithmeticError, MemoryError) as exc:
        kind = "out of memory" if isinstance(exc, MemoryError) else "numeric error"
        print(f"ehcrn: {kind}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"ehcrn: i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
