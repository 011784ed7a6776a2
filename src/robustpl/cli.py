"""Command-line harness: `robustpl sweep` and `robustpl aggregate`."""

from __future__ import annotations

import argparse
import dataclasses
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
                       help="worker processes (default 1)")
    sweep.add_argument("--mc-certify", type=int, default=None, metavar="S",
                       help="re-verify successes with S Monte Carlo samples")

    agg = sub.add_parser("aggregate", help="summarize a records file")
    agg.add_argument("--in", dest="infile", required=True)
    agg.add_argument("--out", required=True)
    agg.add_argument("--common-subset", action="store_true",
                     help="average power over trials where every method "
                          "succeeded at every operating point")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "sweep":
            config = ExperimentConfig.from_json(args.config)
            if args.mc_certify is not None:
                config = dataclasses.replace(
                    config, mc_certify_samples=args.mc_certify)
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
