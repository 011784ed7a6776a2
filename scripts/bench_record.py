"""Record the perfbench figures of this checkout in one JSON file.

    python3 scripts/bench_record.py --out BENCH_<rev>.json [--seeds 100-109]
        [--baseline DIR --baseline-out BENCH_<base>.json]

For each workload of BENCHMARK.json this runs ``perfbench/run.py`` of the
checkout holding this script once per seed, one process at a time, for the
benchmark's ``run_seconds``, plus one ``--trace 1`` run at seed 31.  The file
holds every run's end-to-end metrics and digest, the median and quartiles of
each end-to-end metric over the seeds, the traced per-module metrics, and the
Python and numpy versions, the core count and the git revision.

With ``--baseline`` the same runs are made on a second checkout, alternating
which of the two goes first from seed to seed, and written to
``--baseline-out``; then each metric's pairwise wins are printed, counted in
the direction BENCHMARK.json gives it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TRACE_SEED = 31


def seed_list(text: str) -> list:
    """'100-109' or '3,5,8' as a list of ints."""
    if "-" in text:
        first, last = map(int, text.split("-"))
        return list(range(first, last + 1))
    return [int(s) for s in text.split(",")]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("100-109"))
    parser.add_argument("--baseline", type=Path)
    parser.add_argument("--baseline-out", type=Path)
    args = parser.parse_args(argv)
    if (args.baseline is None) != (args.baseline_out is None):
        parser.error("--baseline and --baseline-out go together")
    if args.baseline and not (args.baseline / "perfbench" / "run.py").is_file():
        parser.error(f"no perfbench/run.py under {args.baseline}")
    return args


def run_perfbench(root: Path, workload: str, seed: int, seconds: float,
                  trace: bool) -> dict:
    """One perfbench run: its JSON line plus the digest it printed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                         check=True).stdout.splitlines()
    result = json.loads(out[-1])
    result["seed"] = seed
    result["digest"] = next((line.split()[1] for line in out
                             if line.startswith("digest ")), None)
    return result


def git_revision(root: Path) -> dict:
    def git(*args):
        return subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                              text=True).stdout.strip()
    return {"revision": git("rev-parse", "--short", "HEAD") or "unknown",
            "modified_files": len(git("status", "--porcelain",
                                      "--untracked-files=no").splitlines())}


def summarize(runs: list) -> dict:
    """Median and quartiles of each end-to-end metric over the runs."""
    summary = {}
    for name, entry in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        q1, median, q3 = np.percentile(values, [25, 50, 75])
        summary[name] = {"unit": entry["unit"], "median": float(median),
                         "q1": float(q1), "q3": float(q3)}
    return summary


def report_pairs(workload: str, runs: list, base_runs: list, better: dict):
    """Print, per metric, the pairs this checkout wins and the medians."""
    for name in runs[0]["metrics"]:
        sign = 1.0 if better[name] == "higher" else -1.0
        new = [r["metrics"][name]["value"] for r in runs]
        old = [r["metrics"][name]["value"] for r in base_runs]
        wins = sum(sign * (a - b) > 0 for a, b in zip(new, old))
        q1, med_old, q3 = np.percentile(old, [25, 50, 75])
        print(f"{workload} {name}: wins {wins}/{len(new)}, median "
              f"{np.median(new):.6g} vs {med_old:.6g} (baseline quartile "
              f"spread {q3 - q1:.3g})", flush=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    roots = {"change": ROOT}
    if args.baseline:
        roots["baseline"] = args.baseline
    files = {name: {**git_revision(root),
                    "python": platform.python_version(),
                    "numpy": np.__version__,
                    "cores": os.cpu_count(),
                    "command": "python3 perfbench/run.py --workload W --seed N "
                               f"--seconds {seconds:g}",
                    "seeds": args.seeds, "trace_seed": TRACE_SEED,
                    "workloads": {}}
             for name, root in roots.items()}
    for workload in (w["name"] for w in benchmark["workloads"]):
        runs = {name: [] for name in roots}
        for i, seed in enumerate(args.seeds):
            order = list(roots) if i % 2 else list(roots)[::-1]
            for name in order:
                runs[name].append(run_perfbench(roots[name], workload, seed,
                                                seconds, trace=False))
                print(f"{name} {workload} seed {seed}: "
                      f"{runs[name][-1]['metrics']['solves_per_s']['value']:.3f} "
                      "solves/s", flush=True)
        for name, root in roots.items():
            trace = run_perfbench(root, workload, TRACE_SEED, seconds, trace=True)
            files[name]["workloads"][workload] = {
                "metrics": summarize(runs[name]), "runs": runs[name],
                "trace": trace}
        if args.baseline:
            report_pairs(workload, runs["change"], runs["baseline"], better)
    args.out.write_text(json.dumps(files["change"], indent=1) + "\n")
    if args.baseline:
        args.baseline_out.write_text(json.dumps(files["baseline"], indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
