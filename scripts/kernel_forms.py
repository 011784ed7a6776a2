"""Capture, or check, the forms that the two probability kernels see.

    python3 scripts/kernel_forms.py [--checkout DIR] [--out FILE]
    python3 scripts/kernel_forms.py [--checkout DIR] --check FILE

Runs the three perfbench workloads (seed SEED, SECONDS, one process)
of a source checkout (default: the one holding this script), with
``quadform.saddlepoint_cdf`` and ``quadform.cdf_quadrature`` wrapped under
every module name the solvers call them by, and records each call's
arguments and result.  Of the saddlepoint calls it keeps SADDLE_KEEP without
a slope and SLOPED_KEEP with ``slope_terms`` (``OutageOracle.slope``), of
the quadratures QUAD_KEEP, each set spaced evenly over the calls in workload
order, and writes them with the call counts to FILE (JSON; floats round-trip
exactly).  A saddlepoint form is (lam, |z~|^2, tau[, slope_terms as real and
imaginary parts]), a quadrature form (lam, |z~|^2, tau, tol); each stores
the value, raw_value, bound and slope of the result, or None, and the name of
an exception the call raised.

With ``--check`` the same capture is compared with FILE: per kernel it prints
how many kept forms differ (in arguments or result, bit for bit), how many
calls were made against FILE's count, and whether the SHA-256 digest of all
the calls (arguments and results, in order) equals FILE's; it exits 1 on any
difference.  Run it against the parent of a kernel edit to write FILE and
against the edit to check it; ``tests/test_kernel_forms.py`` replays FILE's
forms through the kernels of the tree under test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":  # one BLAS thread, as in perfbench/run.py, set before numpy loads
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper-sweep", "zf-library", "exact-library")
SEED, SECONDS = 7, {"paper-sweep": 8.8, "zf-library": 2.0, "exact-library": 40.0}
SADDLE_KEEP, SLOPED_KEEP, QUAD_KEEP = 160, 40, 200


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=ROOT)
    target = parser.add_mutually_exclusive_group()
    target.add_argument("--out", type=Path, default=ROOT / "tests" / "data" / "kernel_forms.json")
    target.add_argument("--check", type=Path)
    args = parser.parse_args(argv)
    if not (args.checkout / "perfbench" / "workloads.py").is_file():
        parser.error(f"no perfbench/workloads.py under {args.checkout}")
    return args


def result(est, raised=None) -> dict:
    """A kernel's ProbabilityEstimate (or None) as JSON fields."""
    if est is None:
        return {"result": None, "raises": raised}
    return {"result": [float(est.value), float(est.raw_value), float(est.abs_error_bound),
                       None if est.slope is None else float(est.slope)], "raises": raised}


def call(kernel, form: dict) -> dict:
    """``result`` of ``kernel`` (a module with both kernels) on a stored form."""
    spectrum = (np.array(form["lam"], dtype=float), np.array(form["zt2"], dtype=float))
    try:
        if "tol" in form:
            return result(kernel.cdf_quadrature(spectrum, form["tau"], tol=form["tol"]))
        if form.get("slope_terms") is None:
            return result(kernel.saddlepoint_cdf(spectrum, form["tau"]))
        re, im = (np.array(part, dtype=float) for part in form["slope_terms"])
        terms = np.empty(re.shape, dtype=complex)
        terms.real, terms.imag = re, im
        return result(kernel.saddlepoint_cdf(spectrum, form["tau"], terms))
    except Exception as exc:
        return result(getattr(exc, "estimate", None), type(exc).__name__)


def same(a, b) -> bool:
    """Equal bit for bit: floats by their hex form (so -0.0 != 0.0 and nan
    == nan), lists and dicts entrywise."""
    if isinstance(a, float) and isinstance(b, float):
        return a.hex() == b.hex()
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    return type(a) is type(b) and a == b


def _floats(x) -> list:
    return np.asarray(x, dtype=float).tolist()


def capture(checkout: Path) -> dict:
    """Every kernel call of the checkout's three workloads, by kernel."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import robustpl
    if not Path(robustpl.__file__).resolve().is_relative_to((checkout / "src").resolve()):
        sys.exit(f"error: robustpl imported from {robustpl.__file__}")
    import robustpl.descent
    import robustpl.quadform
    import robustpl.zf
    import workloads

    quadform, calls = robustpl.quadform, {"saddlepoint_cdf": [], "cdf_quadrature": []}

    def recorded(name, form, run):
        try:
            est = run()
        except Exception as exc:
            calls[name].append({**form, **result(getattr(exc, "estimate", None), type(exc).__name__)})
            raise
        calls[name].append({**form, **result(est)})
        return est

    def saddlepoint_cdf(spectrum, tau, slope_terms=None, _original=quadform.saddlepoint_cdf):
        form = {"lam": _floats(spectrum[0]), "zt2": _floats(spectrum[1]), "tau": float(tau),
                "slope_terms": None if slope_terms is None else
                [_floats(np.real(slope_terms)), _floats(np.imag(slope_terms))]}
        return recorded("saddlepoint_cdf", form, lambda: _original(spectrum, tau, slope_terms))

    def cdf_quadrature(spectrum, tau, tol=quadform.QUAD_TOL, _original=quadform.cdf_quadrature):
        form = {"lam": _floats(spectrum[0]), "zt2": _floats(spectrum[1]), "tau": float(tau),
                "tol": float(tol)}
        return recorded("cdf_quadrature", form, lambda: _original(spectrum, tau, tol=tol))

    for module in (robustpl.quadform, robustpl.descent, robustpl.zf):
        for wrapper in (saddlepoint_cdf, cdf_quadrature):
            if hasattr(module, wrapper.__name__):
                setattr(module, wrapper.__name__, wrapper)
    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS:
            inputs = workloads.make_inputs(workload, SEED, SECONDS[workload])
            if workload == "paper-sweep":
                workloads.run_paper_sweep(inputs, Path(tmp) / workload)
            else:
                workloads.run_library(inputs)
    return calls


def spaced(items: list, count: int) -> list:
    """``count`` items spaced evenly over ``items`` (all of them if fewer)."""
    if len(items) <= count:
        return list(items)
    return [items[i * len(items) // count] for i in range(count)]


def kept(calls: dict) -> dict:
    """The file's contents: the call counts and the kept forms."""
    saddle = calls["saddlepoint_cdf"]
    return {
        "seed": SEED, "seconds": SECONDS,
        "calls": {name: len(forms) for name, forms in calls.items()},
        "digests": {name: hashlib.sha256(json.dumps(forms).encode()).hexdigest()
                    for name, forms in calls.items()},
        "saddlepoint_cdf": (spaced([f for f in saddle if f["slope_terms"] is None], SADDLE_KEEP)
                            + spaced([f for f in saddle if f["slope_terms"] is not None],
                                     SLOPED_KEEP)),
        "cdf_quadrature": spaced(calls["cdf_quadrature"], QUAD_KEEP),
    }


def dump(data: dict) -> str:
    """JSON text with one form per line."""
    def entry(key, value):
        if isinstance(value, list):
            return f"{json.dumps(key)}: [\n" + ",\n".join(map(json.dumps, value)) + "\n]"
        return f"{json.dumps(key)}: {json.dumps(value)}"
    return "{\n" + ",\n".join(entry(k, v) for k, v in data.items()) + "\n}\n"


def main(argv=None) -> int:
    args = parse_args(argv)
    data = kept(capture(args.checkout.resolve()))
    if args.check is None:
        args.out.write_text(dump(data))
        print(f"wrote {args.out}: " + ", ".join(
            f"{name} {len(data[name])} of {count} calls" for name, count in data["calls"].items()))
        return 0
    old, failed = json.loads(args.check.read_text()), False
    for name, count in data["calls"].items():
        differ = sum(not same(a, b) for a, b in zip(old[name], data[name]))
        differ += abs(len(old[name]) - len(data[name]))
        digest = data["digests"][name] == old["digests"][name]
        failed |= bool(differ) or count != old["calls"][name] or not digest
        print(f"{name}: {differ} of {len(old[name])} forms differ; "
              f"{count} calls ({old['calls'][name]} in {args.check.name}); "
              f"the digest of all calls {'matches' if digest else 'differs'}")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
