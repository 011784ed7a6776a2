"""The three workloads: their inputs, the timed part and the checks.

Every run solves the same list of problems: the channels are drawn from a
fixed pool seed, and ``--seed`` only changes how the problems are presented
(a random unitary rotation of the antenna space and a phase per user for the
library workloads, the order of methods and SINR targets for the sweep).
With isotropic estimation errors neither changes a problem, so powers and
certified counts repeat and only the timings vary.  Every workload is a
whole number of rounds of the same operations, and the number of rounds
follows from ``--seconds`` alone (never from a clock).  An operation is one
solver call for one (instance, method, SINR target) point.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import robustpl
import robustpl.cli
import robustpl.descent
import robustpl.model
import robustpl.zf
from robustpl import DescentConfig, QoSSpec, ScenarioInstance

import checks
from speed import SpeedProbe, clock
from tracing import patched

POOL_SEED = 20240817
NOISE_VAR = 0.01
EPSILON = 0.05
ETA_MULTIPLE = -1.3
# the paper's uplink training, L_ut = 1 and P_ut = 4.99: sigma_e^2 = 0.002
TRAINING = {"L_ut": 1, "P_ut": 4.99}
TRAINING_SIGMA_E2 = 0.01 / (0.01 + 4.99)
# keep 1 + eta_k >= this for every user, so the ZF surrogate is defined
SURROGATE_MARGIN = 0.1

ZF_SURROGATE_METHODS = ("ZF-CoordDescent", "ZF-CoordUpdate")
PAPER_METHODS = ("PCSI-General", "RCI-General", "ZF-General",
                 "ZF-CoordDescent", "ZF-CoordUpdate")


@dataclass(frozen=True)
class Spec:
    methods: tuple
    gamma_db: tuple
    sigma_e2: tuple
    n_tx: int
    n_users: int
    round_seconds: float   # nominal cost of one round on the reference machine


SPECS = {
    "paper-sweep": Spec(methods=PAPER_METHODS,
                        gamma_db=(0.0, 2.0, 4.0, 6.0, 8.0, 10.0),
                        sigma_e2=(TRAINING_SIGMA_E2,), n_tx=3, n_users=3,
                        round_seconds=2.2),
    "zf-library": Spec(methods=ZF_SURROGATE_METHODS,
                       gamma_db=(0.0, 5.0, 10.0),
                       sigma_e2=(0.002, 0.005, 0.01), n_tx=3, n_users=3,
                       round_seconds=0.4),
    "exact-library": Spec(methods=("ZF-General", "RCI-General"),
                          gamma_db=(0.0, 5.0), sigma_e2=(TRAINING_SIGMA_E2,),
                          n_tx=6, n_users=6, round_seconds=0.8),
}


@dataclass
class Op:
    """One solver call and what became of it."""

    index: int
    round: int
    method: str
    gamma_db: float
    sigma_e2: float
    instance: ScenarioInstance = None
    qos: QoSSpec = None
    beamformer: object = None
    report: object = None
    seconds: float = None   # CPU time of the call
    scale: float = None     # CPU time -> reference-speed time, at the call
    error: str = None
    exact_solver: bool = False

    @property
    def point(self):
        return (self.round, self.sigma_e2, self.gamma_db)

    @property
    def certified(self) -> bool:
        return self.error is None and checks.certified(self.report, self.qos)


@dataclass
class Outcome:
    ops: list
    timed_s: float       # wall time of the timed part, speed samples excluded
    scaled_s: float      # its CPU time at reference speed (see speed.py)
    digest: str = ""
    problems: list = field(default_factory=list)   # workload-level failures


# ---------------------------------------------------------------------------
# inputs

def _complex_normal(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _surrogate_defined(est, sigma_e2) -> bool:
    """1 + eta_k >= SURROGATE_MARGIN for every user of the ZF directions,
    eta_k = 2 * ETA_MULTIPLE * sqrt(sigma_e^2 ||b_k||^2)."""
    norms2 = np.sum(np.abs(np.linalg.pinv(est)) ** 2, axis=0)
    eta = 2.0 * ETA_MULTIPLE * np.sqrt(sigma_e2 * norms2)
    return bool(np.all(1.0 + eta >= SURROGATE_MARGIN))


def _draw_channels(rng, spec: Spec, sigma_e2: float, zf_surrogate: bool):
    """True channels and their estimates, redrawn until the ZF surrogate is
    defined when zf_surrogate is set."""
    while True:
        h = _complex_normal(rng, spec.n_users, spec.n_tx)
        est = h + np.sqrt(sigma_e2) * _complex_normal(rng, spec.n_users, spec.n_tx)
        if not zf_surrogate or _surrogate_defined(est, sigma_e2):
            return h, est


def _haar_unitary(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(_complex_normal(rng, n, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def make_inputs(workload: str, seed: int, seconds: float):
    """The workload's inputs: a sweep config, or the list of library ops."""
    spec = SPECS[workload]
    rounds = max(1, round(seconds / spec.round_seconds))
    tag = list(SPECS).index(workload)
    look = np.random.default_rng([seed, tag])
    if workload == "paper-sweep":
        return {"n_tx": spec.n_tx, "n_users": spec.n_users, "n_trials": rounds,
                "seed": POOL_SEED, "methods": list(look.permutation(spec.methods)),
                "training": TRAINING,
                "gamma_db": [float(g) for g in look.permutation(spec.gamma_db)],
                "epsilon": EPSILON}
    pool = np.random.default_rng([POOL_SEED, tag])
    zf_surrogate = workload == "zf-library"
    ops = []
    for r in range(rounds):
        for se2 in spec.sigma_e2:
            h, est = _draw_channels(pool, spec, se2, zf_surrogate)
            # h -> D h U leaves every SINR, and with isotropic errors every
            # outage probability, unchanged
            u = _haar_unitary(look, spec.n_tx)
            d = np.exp(2j * np.pi * look.random(spec.n_users))[:, None]
            cov = np.broadcast_to(se2 * np.eye(spec.n_tx),
                                  (spec.n_users, spec.n_tx, spec.n_tx)).copy()
            inst = ScenarioInstance(true_channels=d * h @ u,
                                    est_channels=d * est @ u, error_cov=cov,
                                    noise_var=np.full(spec.n_users, NOISE_VAR))
            for method in spec.methods:
                for gdb in spec.gamma_db:
                    ops.append(Op(index=len(ops), round=r, method=method,
                                  gamma_db=gdb, sigma_e2=se2, instance=inst,
                                  qos=QoSSpec.from_db(gdb, EPSILON, spec.n_users)))
    return ops


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: the order statistics
    weighted by the Beta(q(n+1), (1-q)(n+1)) mass of each (i-1)/n..i/n cell.
    A single order statistic in a sparse tail jumps by the gap to its
    neighbour when noise swaps two operations; the weighted average moves
    far less."""
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    step = max(20, 20_000 // n)  # grid cells per order statistic
    t = np.linspace(0.0, 1.0, step * n + 1)[1:-1]
    pdf = np.exp((a - 1) * np.log(t) + (b - 1) * np.log1p(-t) + math.lgamma(a + b)
                 - math.lgamma(a) - math.lgamma(b))
    pdf = np.concatenate([[0.0], pdf, [0.0]])
    cdf = np.concatenate([[0.0], np.cumsum(pdf[1:] + pdf[:-1])])
    return float(np.diff(cdf[::step] / cdf[-1]) @ x)


def results(outcome: Outcome, spec: Spec) -> dict:
    """End-to-end figures of a checked run, times at reference speed;
    failed operations count in solves_per_s (they were attempted) and
    nowhere else."""
    ok = [op for op in outcome.ops if op.error is None]
    times_ms = [op.seconds * op.scale * 1e3 for op in ok]
    by_point = {}
    for op in ok:
        by_point.setdefault(op.point, []).append(op)
    ratios, unnormalized = [], 0
    for point_ops in by_point.values():
        if len(point_ops) != len(spec.methods) or \
                not all(op.certified for op in point_ops):
            continue
        for op in point_ops:
            nominal = checks.nominal_power(op.instance, op.beamformer.columns,
                                           op.qos.gamma)
            if np.isfinite(nominal):
                ratios.append(op.report.total_power / nominal)
            else:
                unnormalized += 1
    nan = float("nan")
    return {
        "solves_per_s": len(outcome.ops) / outcome.scaled_s,
        "raw_solves_per_s": len(outcome.ops) / outcome.timed_s,
        "solve_ms_p50": quantile(times_ms, 0.5) if ok else nan,
        "solve_ms_p90": quantile(times_ms, 0.9) if ok else nan,
        "certified_solves": sum(op.certified for op in ok),
        "avg_power": float(np.mean(ratios)) if ratios else nan,
        "common_solves": len(ratios),
        "unnormalized": unnormalized,
    }


# ---------------------------------------------------------------------------
# library workloads

def _solve(op: Op):
    """Build the directions and solve, looking every function up on its
    module at call time so that trace wrappers apply."""
    inst, qos = op.instance, op.qos
    if op.method == "RCI-General":
        bf = robustpl.model.build_rci(inst.est_channels, inst.n_users * NOISE_VAR)
    else:
        bf = robustpl.model.build_zf(inst.est_channels)
    if op.method == "ZF-CoordDescent":
        report = robustpl.zf.solve_zf_coord_descent(inst, bf, qos,
                                                    eta_multiple=ETA_MULTIPLE)
    elif op.method == "ZF-CoordUpdate":
        report = robustpl.zf.solve_zf_coord_update(inst, bf, qos,
                                                   eta_multiple=ETA_MULTIPLE)
    else:
        report = robustpl.descent.solve_general(inst, bf, qos)
    return bf, report


def run_library(ops: list, on_sample=None) -> Outcome:
    probe = SpeedProbe(on_sample)
    probe.start()
    for op in ops:
        probe.sample()
        op.scale = probe.scale()
        t0 = clock()
        try:
            op.beamformer, op.report = _solve(op)
        except Exception as exc:  # any raise is a failed operation
            op.error = f"{type(exc).__name__}: {exc}"
        op.seconds = clock() - t0
        op.exact_solver = op.method not in ZF_SURROGATE_METHODS
    probe.stop()
    return Outcome(ops=ops, timed_s=probe.wall_s, scaled_s=probe.scaled_s)


def check_library(outcome: Outcome, seed: int):
    _check_ops(outcome.ops, DescentConfig().delta_min, seed)
    outcome.digest = checks.digest(
        (op.index, op.method, op.error,
         None if op.report is None else (op.report.status.value,
                                         [f"{p:.12g}" for p in op.report.powers.powers],
                                         op.certified))
        for op in outcome.ops)


def _check_ops(ops: list, delta_min: float, seed: int):
    """Per-operation checks; a failed check marks the operation failed."""
    for op in ops:
        if op.error is None:
            problems = checks.check_solve(op.instance, op.beamformer, op.qos,
                                          op.report, op.exact_solver, delta_min)
            if problems:
                op.error = "; ".join(problems)
    rng = np.random.default_rng([seed, 99])
    for i in checks.mc_subset([op.index for op in ops if op.certified]):
        op = ops[i]
        bad = checks.mc_disagreements(op.instance, op.beamformer.columns,
                                      op.report.powers.powers, op.qos.gamma,
                                      op.report.per_user_prob_exact, rng)
        if bad:
            op.error = "Monte Carlo disagrees: " + "; ".join(bad)


# ---------------------------------------------------------------------------
# paper sweep through the CLI

@dataclass
class _Call:
    kind: str
    instance: object
    beamformer: object
    qos: object
    report: object
    error: BaseException
    seconds: float
    scale: float


class _Recorder:
    """Keeps the arguments, result and CPU time of every solver call the
    sweep makes, so that each record can be checked against its solve."""

    TARGETS = [(robustpl.bench, "solve_general", "solve_general"),
               (robustpl.zf, "solve_zf_coord_descent", "zf"),
               (robustpl.zf, "solve_zf_coord_update", "zf")]

    def __init__(self, probe: SpeedProbe):
        self.calls = []
        self.probe = probe

    def installed(self):
        return patched([(module, name, lambda fn, kind=kind: self._wrap(kind, fn))
                        for module, name, kind in self.TARGETS])

    def _wrap(self, kind, fn):
        def wrapper(instance, beamformer, qos, *args, **kwargs):
            self.probe.sample()
            scale = self.probe.scale()
            t0 = clock()
            try:
                report = fn(instance, beamformer, qos, *args, **kwargs)
            except Exception as exc:
                self.calls.append(_Call(kind, instance, beamformer, qos, None,
                                        exc, clock() - t0, scale))
                raise
            self.calls.append(_Call(kind, instance, beamformer, qos, report,
                                    None, clock() - t0, scale))
            return report
        return wrapper


@dataclass
class SweepRun:
    outcome: Outcome
    records: list
    summary: list
    calls: list
    exit_codes: tuple


def run_paper_sweep(config: dict, out_dir: Path, on_sample=None) -> SweepRun:
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg_path, rec_path, sum_path = (out_dir / "config.json",
                                    out_dir / "records.csv",
                                    out_dir / "summary.csv")
    cfg_path.write_text(json.dumps(config))
    probe = SpeedProbe(on_sample)
    recorder = _Recorder(probe)
    with recorder.installed():
        probe.start()
        code_sweep = robustpl.cli.main(["sweep", "--config", str(cfg_path),
                                        "--out", str(rec_path), "--threads", "1"])
        code_agg = robustpl.cli.main(["aggregate", "--in", str(rec_path),
                                      "--out", str(sum_path), "--common-subset"])
        probe.stop()
    records = _read_csv(rec_path)
    summary = _read_csv(sum_path) if code_agg == 0 else []
    return SweepRun(outcome=Outcome(ops=[], timed_s=probe.wall_s,
                                    scaled_s=probe.scaled_s),
                    records=records,
                    summary=summary, calls=recorder.calls,
                    exit_codes=(code_sweep, code_agg))


def _read_csv(path: Path) -> list:
    if not path.exists():
        return []
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_paper_sweep(run: SweepRun, config: dict, seed: int):
    outcome = run.outcome
    problems = outcome.problems
    if run.exit_codes != (0, 0):
        problems.append(f"CLI exit codes {run.exit_codes}")
    expected = config["n_trials"] * len(config["methods"]) * len(config["gamma_db"])
    if len(run.records) != expected:
        problems.append(f"{len(run.records)} records, expected {expected}")

    # an ApproximationInapplicable raise is followed by the exact fallback
    # solve of the same point; fold it into that point
    points, pending, pending_scaled = [], 0.0, 0.0
    for call in run.calls:
        pending += call.seconds
        pending_scaled += call.seconds * call.scale
        if not isinstance(call.error, robustpl.zf.ApproximationInapplicable):
            points.append((call, pending, pending_scaled / pending))
            pending, pending_scaled = 0.0, 0.0

    j = 0
    for i, rec in enumerate(run.records):
        op = Op(index=i, round=int(rec["trial"]), method=rec["method"],
                gamma_db=float(rec["gamma_db"]), sigma_e2=float(rec["sigma_e2"]))
        outcome.ops.append(op)
        catch_all = (rec["success"] == "0" and float(rec["total_power"]) == 0.0
                     and int(rec["integral_evals"]) == 0)
        call = points[j][0] if j < len(points) else None
        if call is not None and call.error is not None:
            _, op.seconds, op.scale = points[j]
            j += 1
            op.error = f"{type(call.error).__name__}: {call.error}"
            continue
        if catch_all:
            op.error = "run_trial recorded a failed trial"
            continue
        if call is None:
            op.error = "record without a solver call"
            continue
        _, op.seconds, op.scale = points[j]
        j += 1
        op.instance, op.beamformer, op.qos = call.instance, call.beamformer, call.qos
        op.report = call.report
        op.exact_solver = call.kind == "solve_general"
        if not np.allclose(op.qos.gamma, 10.0 ** (op.gamma_db / 10.0), rtol=1e-12):
            op.error = "solver call does not match the record's SINR target"
        elif call.kind == "zf" and op.method not in ZF_SURROGATE_METHODS:
            op.error = "solver call does not match the record's method"
        elif not np.isclose(float(rec["total_power"]), op.report.total_power,
                            rtol=1e-11, atol=0.0):
            op.error = "record power differs from the solver's"
        elif (rec["success"] == "1") != checks.certified(op.report, op.qos):
            op.error = "record success differs from the exact certification"
    if j != len(points):
        problems.append(f"{len(points) - j} solver calls without a record")

    _check_ops(outcome.ops, config.get("delta_min", 1e-3), seed)
    _check_summary(outcome.ops, run.summary, problems)
    _check_monotone(outcome.ops, problems)
    outcome.digest = checks.digest(
        [tuple(r.values()) for r in run.records] + [tuple(r.values()) for r in run.summary])


def _check_summary(ops, summary, problems):
    """success_pct of every summary row equals the share of certified
    records of its (method, SINR target)."""
    groups = {}
    for op in ops:
        groups.setdefault((op.method, op.gamma_db), []).append(op.certified)
    for row in summary:
        flags = groups.get((row["method"], float(row["gamma_db"])), [])
        if not flags or abs(float(row["success_pct"]) - 100.0 * np.mean(flags)) > 1e-9:
            problems.append(f"summary row {row['method']} {row['gamma_db']} dB "
                            f"does not match the records")
    if len(summary) != len(groups):
        problems.append(f"{len(summary)} summary rows for {len(groups)} groups")


def _check_monotone(ops, problems):
    """For each method, the certified count does not grow with the target."""
    counts = {}
    for op in ops:
        per_gamma = counts.setdefault(op.method, {})
        per_gamma[op.gamma_db] = per_gamma.get(op.gamma_db, 0) + op.certified
    for method, per_gamma in counts.items():
        seq = [per_gamma[g] for g in sorted(per_gamma)]
        if any(b > a for a, b in zip(seq, seq[1:])):
            problems.append(f"{method}: certified count rises with the "
                            f"SINR target {seq}")
