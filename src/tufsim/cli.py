"""Command-line entry point: file inputs and flags in, report CSV out.

The report is the only thing written to standard output; diagnostics,
warnings and verbose matching go to the error stream, so redirecting
stdout captures exactly the CSV.
"""

from __future__ import annotations

import argparse
import sys
from datetime import date
from pathlib import Path
from typing import TextIO

from .algorithms import parse_algorithm_catalog
from .errors import ConfigurationError, TufSimError
from .runner import (
    Uniform,
    default_architecture,
    emit_report_csv,
    parse_architecture_csv,
    parse_assignment_csv,
    run_sweep,
)
from .schedule import (
    Cadence,
    EventCalendar,
    generate_poisson_events,
    generate_ticks,
    load_event_dates,
    load_role_actions,
    merge_calendars,
    parse_iso_date,
)

DEFAULT_DEVICE = "Device_A"
DEFAULT_TARGET = "Target 1"


class _Parser(argparse.ArgumentParser):
    # surface flag problems as ordinary errors instead of exiting the process
    def error(self, message: str) -> None:
        raise ConfigurationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tufsim",
        description=(
            "Simulate the cumulative download bytes and verification cost of a "
            "multi-role update repository across signature algorithms."
        ),
    )
    parser.add_argument("--algorithms", required=True, metavar="PATH",
                        help="algorithm catalog CSV (required)")
    parser.add_argument("--events", metavar="PATH",
                        help="update event CSV with a Date column")
    parser.add_argument("--actions", metavar="PATH",
                        help="scripted role-change CSV")
    parser.add_argument("--arch", metavar="PATH",
                        help="architecture CSV; default is one instance of each role")
    parser.add_argument("--start", required=True, type=_parse_date, metavar="YYYY-MM-DD",
                        help="first simulated date (inclusive)")
    parser.add_argument("--end", required=True, type=_parse_date, metavar="YYYY-MM-DD",
                        help="last simulated date (inclusive)")
    parser.add_argument("--cadence", choices=[c.value for c in Cadence],
                        default=Cadence.DAILY.value,
                        help="timestamp cadence (default: daily)")
    parser.add_argument("--poisson-rate", type=float, metavar="FLOAT",
                        help="generate update events at this mean daily rate")
    parser.add_argument("--seed", type=int, metavar="INT",
                        help="seed for --poisson-rate event generation")
    parser.add_argument("--target", metavar="NAME",
                        help="target bound to events without one (default: 'Target 1'); "
                             "needs --events or --poisson-rate")
    parser.add_argument("--assignment", metavar="PATH",
                        help="per-role assignment CSV; default sweeps every catalog algorithm")
    parser.add_argument("--output", metavar="PATH",
                        help="write the report here instead of stdout")
    parser.add_argument("--verbose", action="store_true",
                        help="log event-date matches to stderr")
    return parser


def run_cli(
    argv: list[str] | None = None,
    stdout: TextIO | None = None,
    stderr: TextIO | None = None,
) -> int:
    """Parse flags, run the sweep, and write the report; 0 on success."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    try:
        args = _parse_config(argv)
        report = _execute(args, err)
        if args.output is not None:
            Path(args.output).write_text(report, encoding="utf-8")
        else:
            out.write(report)
    except (TufSimError, OSError) as exc:
        print(f"error: {exc}", file=err)
        return 2
    return 0


def main() -> None:
    sys.exit(run_cli())


def _parse_date(text: str) -> date:
    try:
        return parse_iso_date(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid date {text!r}; expected YYYY-MM-DD")


def _parse_config(argv: list[str] | None) -> argparse.Namespace:
    args = build_parser().parse_args(argv)
    if args.events is not None and args.poisson_rate is not None:
        raise ConfigurationError("--events and --poisson-rate are mutually exclusive")
    if args.seed is not None and args.poisson_rate is None:
        raise ConfigurationError("--seed only applies when --poisson-rate is set")
    if args.target is not None and args.events is None and args.poisson_rate is None:
        raise ConfigurationError("--target only applies with --events or --poisson-rate")
    return args


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read '{path}': {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigurationError(
            f"cannot read '{path}': not UTF-8 text (byte {exc.start})") from None


def _execute(args: argparse.Namespace, err: TextIO) -> str:
    catalog = parse_algorithm_catalog(_read(args.algorithms))
    if not catalog:
        raise ConfigurationError(f"algorithm catalog '{args.algorithms}' has no entries")

    if args.arch is not None:
        arch = parse_architecture_csv(_read(args.arch), device_name=DEFAULT_DEVICE)
    else:
        arch = default_architecture(DEFAULT_DEVICE)

    target = DEFAULT_TARGET if args.target is None else args.target
    calendar = EventCalendar()
    if args.events is not None:
        # cells are read stripped, so "" can only be a missing Target cell
        calendar = load_event_dates(_read(args.events), "")
        events = calendar.update_events
        if not all(name for _, name in events):
            calendar = EventCalendar({(day, name or target) for day, name in events})
        elif args.target is not None:
            reason = ("every row of the event file names its Target" if events
                      else "the event file has no rows")
            print(f"warning: --target not used: {reason}", file=err)
    elif args.poisson_rate is not None:
        calendar = generate_poisson_events(
            args.poisson_rate,
            args.start,
            args.end,
            args.seed if args.seed is not None else 0,
            target,
        )
    if args.actions is not None:
        calendar = merge_calendars(calendar, load_role_actions(_read(args.actions)))

    ticks = generate_ticks(args.start, args.end, Cadence(args.cadence))

    if args.verbose:
        for day in sorted({day for day, _ in calendar.update_events}):
            if ticks.position(day) is not None:
                print(f"- match {day.isoformat()}", file=err)

    if args.assignment is not None:
        label = Path(args.assignment).stem
        assignments = [parse_assignment_csv(_read(args.assignment), label=label)]
    else:
        assignments = [Uniform(alg.name) for alg in catalog]

    results = run_sweep(arch, assignments, calendar, ticks, catalog)
    err.writelines(f"warning: {warning}\n" for result in results for warning in result.warnings)
    return emit_report_csv(results)


if __name__ == "__main__":
    main()
