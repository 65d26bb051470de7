"""Command-line interface.

Subcommands: ``make-scenario`` (writes a bundled scenario's document from
``fixtures``), ``calibrate``, ``run``, ``compare``, ``report``.  A scenario
that fails to load, a run with no MFD (neither the scenario's block nor
``--mfd``), an MFD that cannot be fitted, an output path that cannot be
written, or a ``comparison.csv`` that is missing, lacks a column, holds a
bad cell or holds no run ends in one error line on stderr and exit status
2, as does a negative seed, a non-positive count, a demand scale, cap or
calibration level that is not finite and > 0, or an unknown strategy
(argparse's usage error).  Set MSJC_LOG=debug|info|warning to control
verbosity.
"""

from __future__ import annotations

import argparse
import errno
import logging
import math
import os
import sys
from pathlib import Path

import yaml

from . import fixtures, mfd as mfdmod, netmodel, runner


def _add_scenario_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", required=True, help="scenario YAML path")
    p.add_argument("--mfd", default=None, help="calibrated MFD YAML (overrides the scenario's block)")


def _checked(convert, ok, rule: str):
    """An argparse type: ``convert``, then reject a value failing ``ok``."""
    def parse(text: str):
        if not ok(value := convert(text)):
            raise argparse.ArgumentTypeError(f"{rule}, got {text}")
        return value
    parse.__name__ = convert.__name__  # argparse's "invalid int value"
    return parse


_SEED = _checked(int, lambda v: v >= 0, "must be >= 0")
_COUNT = _checked(int, lambda v: v >= 1, "must be >= 1")
_POSITIVE = _checked(float, lambda v: math.isfinite(v) and v > 0, "must be finite and > 0")


def _load(args) -> tuple[netmodel.Scenario, mfdmod.MfdModel | None]:
    scenario = netmodel.load_scenario(args.scenario)
    model = None
    if getattr(args, "mfd", None):
        model = mfdmod.load_mfd(args.mfd, scenario.partition.regions)
    return scenario, model


def _check_output_file(path: str) -> None:
    """Raise the OSError of writing ``path`` when it is a directory or its
    directory does not exist, without creating it."""
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(os.path.dirname(path) or "."):
        code = errno.ENOENT
    else:
        return
    raise OSError(code, os.strerror(code), path)


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("MSJC_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))

    parser = argparse.ArgumentParser(prog="msjc")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-scenario", help="write a bundled synthetic scenario")
    p.add_argument("name", choices=sorted(fixtures.BUILTIN))
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--without-mfd", action="store_true", help="omit the MFD block")

    p = sub.add_parser("calibrate", help="fit per-region MFDs from a demand sweep")
    _add_scenario_arg(p)
    p.add_argument("--out", required=True, help="output MFD YAML")
    p.add_argument("--levels", type=_POSITIVE, nargs="+", default=[0.25, 0.5, 0.75, 1.0, 1.25])
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--window", type=float, default=120.0)

    p = sub.add_parser("run", help="one closed-loop run")
    _add_scenario_arg(p)
    p.add_argument("--strategy", required=True, choices=runner.STRATEGIES)
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--demand-scale", type=_POSITIVE, default=1.0)
    p.add_argument("--cap", type=_POSITIVE, default=None, help="hard stop (seconds)")

    p = sub.add_parser("compare", help="run several strategies x seeds and summarize")
    _add_scenario_arg(p)
    p.add_argument("--strategies", nargs="+", choices=runner.STRATEGIES, default=list(runner.STRATEGIES))
    p.add_argument("--seed", type=_SEED, default=0, help="first seed")
    p.add_argument("--reps", type=_COUNT, default=1, help="replications per strategy")
    p.add_argument("--out", required=True)

    p = sub.add_parser("report", help="re-summarize a comparison directory")
    p.add_argument("--out", required=True, help="directory holding comparison.csv")

    args = parser.parse_args(argv)
    try:
        return _execute(args)
    except (netmodel.ScenarioError, mfdmod.MfdFitError) as exc:
        print("msjc: error: " + " ".join(str(exc).split()), file=sys.stderr)
        return 2
    except OSError as exc:  # a failed read raises ScenarioError: this is a write
        path = exc.filename or "output"
        print(f"msjc: error: cannot write {path}: {exc.strerror}", file=sys.stderr)
        return 2


def _execute(args: argparse.Namespace) -> int:
    if args.command == "make-scenario":
        document = fixtures.BUILTIN[args.name](with_mfd=not args.without_mfd)
        with open(args.out, "w") as fh:
            yaml.safe_dump(document, fh, sort_keys=False)
        print(f"wrote {args.out}")
        return 0

    if args.command == "calibrate":
        scenario, _ = _load(args)
        _check_output_file(args.out)  # before the sweep, not after it
        model = runner.calibrate(
            scenario, levels=tuple(args.levels), seed=args.seed, window_s=args.window
        )
        mfdmod.save_mfd(model, args.out)
        for region in model.regions():
            p = model.params[region]
            print(
                f"{region}: G(N) = {p.b3:.3e} N^3 + {p.b2:.3e} N^2 + {p.b1:.3e} N, "
                f"N_crit = {p.n_crit:.1f} veh"
            )
        return 0

    if args.command == "run":
        scenario, model = _load(args)
        cfg = runner.RunConfig(
            strategy=args.strategy,
            seed=args.seed,
            demand_scale=args.demand_scale,
            out_dir=args.out,
            cap_s=args.cap,
        )
        metrics = runner.run(scenario, cfg, model=model)
        if metrics.truncated:
            end = (
                f"stopped at {metrics.clearance_time_s:.0f} s by the "
                f"{cfg.time_cap_s(scenario):.0f} s time cap, not cleared"
            )
        else:
            end = f"cleared at {metrics.clearance_time_s:.0f} s"
        print(
            f"{metrics.strategy} seed {metrics.seed}: "
            f"TTT {metrics.total_travel_time_veh_s:.0f} veh*s, "
            f"throughput {metrics.throughput_veh}/{metrics.injected_veh} veh, {end}"
        )
        return 0

    if args.command == "compare":
        scenario, model = _load(args)
        seeds = tuple(range(args.seed, args.seed + args.reps))
        runs = runner.compare(
            scenario, tuple(args.strategies), seeds, out_dir=args.out, model=model
        )
        for row in runner.summarize(runs):
            print(
                f"{row.strategy:8s} TTT {row.mean_total_travel_time_veh_s:12.0f}"
                f" +- {row.std_total_travel_time_veh_s:8.0f} veh*s   "
                f"throughput {row.mean_throughput_veh:8.1f}"
                f" +- {row.std_throughput_veh:6.1f} veh"
            )
        return 0

    if args.command == "report":
        try:
            runs = runner.read_metrics_csv(Path(args.out) / "comparison.csv")
        except ValueError as exc:
            print(f"msjc: error: {exc}", file=sys.stderr)
            return 2
        for row in runner.report(runs, args.out):
            print(
                f"{row.strategy:8s} TTT {row.mean_total_travel_time_veh_s:12.0f}"
                f" +- {row.std_total_travel_time_veh_s:8.0f} veh*s"
            )
        return 0

    return 1


if __name__ == "__main__":
    raise SystemExit(main())
