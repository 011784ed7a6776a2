"""Command-line harness: `robustpl sweep` and `robustpl aggregate`."""

from __future__ import annotations

import argparse
import sys

from .bench import (
    EmptyIntersection,
    ExperimentConfig,
    aggregate,
    export_records,
    export_summary,
    read_records,
    run_sweep,
)

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustpl",
        description="Outage-constrained power loading experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a seeded experiment sweep")
    sweep.add_argument("--config", required=True, help="JSON experiment config")
    sweep.add_argument("--out", required=True, help="output records path")
    sweep.add_argument("--threads", type=int, default=1,
                       help="worker processes, at most one per trial (default 1)")

    agg = sub.add_parser("aggregate", help="summarize a records file")
    agg.add_argument("--in", dest="infile", required=True)
    agg.add_argument("--out", required=True)
    agg.add_argument("--common-subset", action="store_true",
                     help="average power over trials where every method "
                          "succeeded at every operating point")
    return parser


def main(argv=None) -> int:
    args = (parser := build_parser()).parse_args(argv)
    if args.command == "sweep" and args.threads < 1:
        parser.error(f"argument --threads: must be at least 1, not {args.threads}")
    try:
        if args.command == "sweep":
            config = ExperimentConfig.from_json(args.config)
            records = run_sweep(config, n_threads=args.threads)
            export_records(records, args.out)
        else:
            records = read_records(args.infile)
            rows = aggregate(records, common_subset=args.common_subset)
            export_summary(rows, args.out)
    except EmptyIntersection as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
