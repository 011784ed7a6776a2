"""Record the perfbench figures of this checkout in one JSON file.

    python3 scripts/bench_record.py --out BENCH_<rev>.json [--seeds 100-109]
        [--baseline DIR --baseline-out BENCH_<base>.json]

For each workload of BENCHMARK.json this runs ``perfbench/run.py`` of the
checkout holding this script once per seed, one process at a time, for the
benchmark's ``run_seconds``, plus one ``--trace 1`` run at seed 31.  The runs
use a fresh copy of the checkout's HEAD commit in a temporary directory, not
the checkout itself, which ran about 2% slower than a fresh clone of the same
commit; a checkout with modified tracked files is refused.  The file holds
every run's end-to-end metrics and digest, the median and quartiles of each
end-to-end metric over the seeds, the traced per-module metrics, the
Python and numpy versions, the core count, the git revision, and
``src_lines``: the line count of each ``src/robustpl/*.py`` file of the
measured copy and their total.

With ``--baseline`` the same runs are made on a fresh copy of a second
checkout's HEAD commit, alternating which of the two goes first from seed to
seed and, for the traced runs, from workload to workload, and written to
``--baseline-out``.  The ``src_lines`` totals of both sides and their
difference are printed first; then each metric's pairwise wins, losses and
ties (a pair within a relative TIE_REL is a tie), counted in the direction
BENCHMARK.json gives it, with the two-sided sign-test p-value of the wins
against the losses, whether this checkout's median is worse than the
baseline's by more than the metric's ``bound`` (a share of the baseline
median), whether a gain may be claimed (``claimable``), and per workload
whether every seed's digest matches and whether every traced per-layer
count (a metric of unit ``count`` in the ``--trace 1`` runs at TRACE_SEED)
equals the baseline's, naming those that differ.  Traced per-layer times
come from that one seed and are too noisy to compare, so they are left out
of that check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TRACE_SEED = 31
TIE_REL = 1e-12  # pairs this close, relatively, are rounding-level ties


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


def src_lines(root: Path) -> dict:
    """The line count of each src/robustpl/*.py file under root, by file
    name, and their ``total``."""
    counts = {path.name: len(path.read_text().splitlines())
              for path in sorted((root / "src" / "robustpl").glob("*.py"))}
    return {**counts, "total": sum(counts.values())}


def clone_head(root: Path, dest: Path) -> Path:
    """A fresh copy of the HEAD commit of the checkout root at dest (which
    must not exist yet), detached HEAD included; raises ValueError when root
    has modified tracked files, which the copy would silently leave out."""
    if git_revision(root)["modified_files"]:
        raise ValueError(f"{root} has modified tracked files; commit or stash them")
    for args in (["init", "--quiet", str(dest)],
                 ["-C", str(dest), "fetch", "--quiet", str(Path(root).resolve()), "HEAD"],
                 ["-C", str(dest), "checkout", "--quiet", "--detach", "FETCH_HEAD"]):
        subprocess.run(["git", *args], check=True, capture_output=True)
    return dest


def summarize(runs: list) -> dict:
    """Median and quartiles of each end-to-end metric over the runs."""
    summary = {}
    for name, entry in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        q1, median, q3 = np.percentile(values, [25, 50, 75])
        summary[name] = {"unit": entry["unit"], "median": float(median),
                         "q1": float(q1), "q3": float(q3)}
    return summary


def sign_test(wins: int, losses: int) -> float:
    """Two-sided sign-test p-value of wins against losses (ties count for
    neither): twice the chance of a split at least this uneven when each
    pair is a fair coin, capped at 1."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1)) / 2 ** n
    return min(1.0, 2.0 * tail)


def claimable(wins: int, pairs: int, gap: float, spread: float) -> bool:
    """Whether a gain may be claimed: the change wins at least nine tenths of
    all pairs run (ties count for neither side), and its median is better
    than the baseline's by more than the baseline's quartile spread (``gap``
    is the median difference, positive where the change is better)."""
    return 10 * wins >= 9 * pairs and gap > spread


def report_pairs(workload: str, runs: list, base_runs: list, better: dict,
                 bounds: dict):
    """Print, per metric, the pairs this checkout wins, loses and ties (within
    a relative TIE_REL), the sign-test p-value, the medians, whether this
    checkout's median is worse than the baseline's by more than the metric's
    bound (a share of the baseline median) and whether a gain is
    ``claimable``; then whether every seed's digest matches."""
    for name in runs[0]["metrics"]:
        sign = 1.0 if better[name] == "higher" else -1.0
        new = [r["metrics"][name]["value"] for r in runs]
        old = [r["metrics"][name]["value"] for r in base_runs]
        moved = [sign * (a - b) for a, b in zip(new, old)
                 if not math.isclose(a, b, rel_tol=TIE_REL)]
        wins = sum(d > 0 for d in moved)
        losses = sum(d < 0 for d in moved)
        q1, med_old, q3 = np.percentile(old, [25, 50, 75])
        med_new = np.median(new)
        worse = sign * (med_old - med_new) > bounds[name] * abs(med_old)
        gain = claimable(wins, len(new), sign * (med_new - med_old), q3 - q1)
        print(f"{workload} {name}: wins {wins}/{len(new)}, losses {losses}, "
              f"ties {len(new) - wins - losses}, sign-test p "
              f"{sign_test(wins, losses):.3g}, median "
              f"{med_new:.6g} vs {med_old:.6g} (baseline quartile "
              f"spread {q3 - q1:.3g}), "
              f"{'WORSE than' if worse else 'within'} bound {bounds[name]:g}, "
              f"gain {'claimable' if gain else 'not claimable'}",
              flush=True)
    differ = [r["seed"] for r, b in zip(runs, base_runs) if r["digest"] != b["digest"]]
    print(f"{workload} digests: " + (f"DIFFER at seeds {differ}" if differ
                                     else f"all {len(runs)} match"), flush=True)


def report_counts(workload: str, trace: dict, base_trace: dict):
    """Print whether every traced metric of unit ``count`` (of either side)
    has the same value in trace as in base_trace, listing each that
    differs with both values (None where a side lacks it)."""
    names = dict.fromkeys(name for run in (trace, base_trace)
                          for name, entry in run["metrics"].items() if entry["unit"] == "count")

    def value(run, name):
        return run["metrics"].get(name, {}).get("value")

    differ = [f"{name} {value(trace, name)} vs {value(base_trace, name)}"
              for name in names if value(trace, name) != value(base_trace, name)]
    print(f"{workload} traced counts at seed {TRACE_SEED}: "
          + (f"DIFFER: {'; '.join(differ)} (baseline second)" if differ
             else f"all {len(names)} match"), flush=True)


def record(args, benchmark: dict, roots: dict):
    """The paired runs on the clones roots ({"change": ..., "baseline":
    ...}), written to --out and --baseline-out."""
    seconds = benchmark["run_seconds"]
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}

    def order(i):  # the side that goes first alternates
        return list(roots) if i % 2 else list(roots)[::-1]

    files = {name: {**git_revision(root),
                    "src_lines": src_lines(root),
                    "python": platform.python_version(),
                    "numpy": np.__version__,
                    "cores": os.cpu_count(),
                    "command": "python3 perfbench/run.py --workload W --seed N "
                               f"--seconds {seconds:g}",
                    "seeds": args.seeds, "trace_seed": TRACE_SEED,
                    "workloads": {}}
             for name, root in roots.items()}
    if args.baseline:
        change, base = (files[name]["src_lines"]["total"] for name in ("change", "baseline"))
        print(f"src_lines total: {change} vs {base} (baseline), difference "
              f"{change - base:+d}", flush=True)
    for w, workload in enumerate(w["name"] for w in benchmark["workloads"]):
        runs = {name: [] for name in roots}
        for i, seed in enumerate(args.seeds):
            for name in order(i):
                runs[name].append(run_perfbench(roots[name], workload, seed,
                                                seconds, trace=False))
                print(f"{name} {workload} seed {seed}: "
                      f"{runs[name][-1]['metrics']['solves_per_s']['value']:.3f} "
                      "solves/s", flush=True)
        for name in order(w):
            trace = run_perfbench(roots[name], workload, TRACE_SEED, seconds, trace=True)
            files[name]["workloads"][workload] = {
                "metrics": summarize(runs[name]), "runs": runs[name],
                "trace": trace}
        if args.baseline:
            report_pairs(workload, runs["change"], runs["baseline"], better, bounds)
            report_counts(workload, *(files[name]["workloads"][workload]["trace"]
                                      for name in ("change", "baseline")))
    args.out.write_text(json.dumps(files["change"], indent=1) + "\n")
    if args.baseline:
        args.baseline_out.write_text(json.dumps(files["baseline"], indent=1) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    sources = {"change": ROOT}
    if args.baseline:
        sources["baseline"] = args.baseline
    with tempfile.TemporaryDirectory(prefix="bench_record-") as tmp:
        try:
            roots = {name: clone_head(root, Path(tmp) / name)
                     for name, root in sources.items()}
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        record(args, benchmark, roots)
    return 0


if __name__ == "__main__":
    sys.exit(main())
