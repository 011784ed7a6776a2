"""Benchmark of the robustpl solvers on fixed, seeded work.

    python3 perfbench/run.py --workload {paper-sweep,zf-library,exact-library}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src`` directory and nowhere else.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-module metrics with
``--trace 1``).  See perfbench/README.md.
"""

import time

T_START = time.process_time()

import os  # noqa: E402

# One process, one thread: every array is at most 6x6, so BLAS threads only
# add scheduling noise.  Set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 5
SETUP_KERNELS = 15


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper-sweep", "zf-library", "exact-library"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="sets the number of rounds, never a time limit")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import and build the inputs, then print "
                             "the CPU seconds that took and the kernel time")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_package():
    """Put the checkout's src first on the path and import robustpl from it;
    exit 2 when the checkout holds no package."""
    if not (SRC / "robustpl" / "__init__.py").is_file():
        print(f"error: no robustpl package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import robustpl
    if not Path(robustpl.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: robustpl imported from {robustpl.__file__}", file=sys.stderr)
        sys.exit(2)


def setup_seconds(args) -> list:
    """Set-up CPU times of fresh processes at reference speed: interpreter
    start excluded, package import and input generation included."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                             check=True)
        setup, kernel = map(float, out.stdout.split())
        samples.append(setup * speed.REFERENCE_KERNEL_S / kernel)
    return samples


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import tracing
    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed, args.seconds)
    if args.setup_probe:
        setup = time.process_time() - T_START
        kernel = np.median([speed.kernel_seconds() for _ in range(SETUP_KERNELS)])
        print(repr(setup), repr(float(kernel)))
        return 0

    tracer = tracing.Tracer() if args.trace else None
    on_sample = tracer.exclude if tracer else None
    with tracer.installed() if tracer else contextlib.nullcontext():
        if args.workload == "paper-sweep":
            out_dir = HERE / "out" / f"paper-sweep-{args.seed}"
            sweep = workloads.run_paper_sweep(inputs, out_dir, on_sample)
            outcome = sweep.outcome
        else:
            outcome = workloads.run_library(inputs, on_sample)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.workload == "paper-sweep":
        workloads.check_paper_sweep(sweep, inputs, args.seed)
    else:
        workloads.check_library(outcome, args.seed)

    ops = outcome.ops
    failed = [op for op in ops if op.error is not None]
    res = workloads.results(outcome, workloads.SPECS[args.workload])

    for op in failed[:10]:
        print(f"failed op {op.index} ({op.method}, {op.gamma_db} dB, round "
              f"{op.round}): {op.error}")
    for problem in outcome.problems:
        print(f"check failed: {problem}")
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} solves in "
          f"{outcome.timed_s:.3f} s wall ({res['raw_solves_per_s']:.3f}/s; "
          f"{res['solves_per_s']:.3f}/s at reference speed), "
          f"{len(failed)} failed, {res['certified_solves']} certified, "
          f"{res['common_solves']} solves in the common subset"
          + (f", {res['unnormalized']} without a nominal power"
             if res["unnormalized"] else ""))
    print(f"digest {outcome.digest}")

    if args.trace:
        metrics = tracer.metrics()
    else:
        setup = setup_seconds(args)
        print("setup_s samples " + " ".join(f"{s:.4f}" for s in setup))
        metrics = {
            "solves_per_s": (res["solves_per_s"], "1/s"),
            "solve_ms_p50": (res["solve_ms_p50"], "ms"),
            "solve_ms_p90": (res["solve_ms_p90"], "ms"),
            "certified_solves": (res["certified_solves"], "count"),
            "avg_power": (res["avg_power"], "x_nominal"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (float(np.median(setup)), "s"),
        }
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in metrics.items()}
    correct = not outcome.problems and len(failed) < len(ops)
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
