"""Command-line front end: run scenario files or bundled presets.

Exit codes: 0 success, 1 nothing evaluated, 2 malformed scenario or usage
error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys

from .config import require_count
from .scenarios import (
    _FORMATS,
    MalformedSpecError,
    RunSummary,
    list_presets,
    parse_scenario,
    run_preset,
    run_scenario,
)


def _jobs(text: str) -> int:
    try:
        jobs = int(text)
        require_count("jobs", jobs)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return jobs


def _add_run_options(parser: argparse.ArgumentParser, out_required: bool) -> None:
    parser.add_argument("--out", required=out_required, help="output file path")
    parser.add_argument("--format", choices=_FORMATS, default=None)
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")
    parser.add_argument("--jobs", type=_jobs, default=1, help="parallel sweep points (default: 1)")
    # A no-op: only the benchmark's preset argv still passes it.
    parser.add_argument("--no-timestamp", action="store_true", help=argparse.SUPPRESS)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="branlab",
        description="Latency and attack-risk sweeps for blockchain-mediated access networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a JSON scenario file")
    run_p.add_argument("--scenario", required=True, help="scenario JSON path")
    _add_run_options(run_p, out_required=False)  # falls back to the file's output.path

    preset_p = sub.add_parser("preset", help="run a bundled preset sweep")
    preset_p.add_argument("name", help="preset name, see list-presets")
    _add_run_options(preset_p, out_required=True)

    sub.add_parser("list-presets", help="list bundled presets")
    return parser


def _report(summary: RunSummary) -> int:
    print(
        f"wrote {summary.points_total} rows to {summary.out_path} "
        f"({summary.points_ok} evaluated, {summary.points_skipped} skipped)"
    )
    return 0 if summary.points_ok >= 1 else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    presets = dict(list_presets())
    if args.command == "list-presets":
        for name, description in presets.items():
            print(f"{name}\t{description}")
        return 0
    if args.command == "preset" and args.name not in presets:
        # Checked before the run, so a KeyError raised while evaluating stays a fault.
        print(f"error: unknown preset {args.name!r}; available: {', '.join(presets)}", file=sys.stderr)
        return 2

    options = dict(out_path=args.out, seed=args.seed, jobs=args.jobs)
    try:
        if args.command == "run":
            spec = parse_scenario(args.scenario)
            summary = run_scenario(spec, fmt=args.format, **options)
        else:
            summary = run_preset(args.name, fmt=args.format or "csv", **options)
    except MalformedSpecError as exc:
        print(f"malformed scenario: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    return _report(summary)


if __name__ == "__main__":
    sys.exit(main())
