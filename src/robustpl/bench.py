"""Batch experiment harness: seeded sweeps over SINR targets and uncertainty
sizes, per-trial records, aggregation, and CSV export.

Channel draws are paired: every method and every SINR target sees the same
channel and estimate realization of a given trial, so success rates and
powers are directly comparable across methods.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass, fields as dc_fields

import numpy as np

from . import zf as zfmod
from .descent import SolveStatus, solve_general
from .model import (
    QoSSpec,
    ScenarioInstance,
    build_pcsi_directions,
    build_rci,
    build_zf,
    draw_estimate,
    generate_rayleigh_channels,
    mc_probability,
    uplink_error_variance,
)

__all__ = [
    "METHODS",
    "ExperimentConfig",
    "TrialRecord",
    "SummaryRow",
    "EmptyIntersection",
    "run_sweep",
    "run_trial",
    "aggregate",
    "export_records",
    "export_summary",
    "read_records",
]

METHODS = ("PCSI-General", "RCI-General", "ZF-General",
           "ZF-CoordDescent", "ZF-CoordUpdate")


class EmptyIntersection(Exception):
    """No trial succeeded for every method at every operating point."""


@dataclass(frozen=True)
class ExperimentConfig:
    n_tx: int
    n_users: int
    n_trials: int
    seed: int
    methods: tuple
    sigma2: float = 0.01
    sigma2_bs: float = 0.01
    training: dict = None
    sigma_e2: tuple = None
    gamma_db: tuple = tuple(float(g) for g in range(11))
    epsilon: float = 0.05
    mc_certify_samples: int = 0

    def __post_init__(self):
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "gamma_db", tuple(float(g) for g in self.gamma_db))
        if self.sigma_e2 is not None:
            object.__setattr__(self, "sigma_e2",
                               tuple(float(s) for s in self.sigma_e2))
        for field in ("methods", "gamma_db", "sigma_e2"):
            if getattr(self, field) == ():
                raise ValueError(f"{field} must be non-empty")
        for name in self.methods:
            if name not in METHODS:
                raise ValueError(f"unknown method {name!r}")
        if (self.training is None) == (self.sigma_e2 is None):
            raise ValueError("specify exactly one of 'training' and 'sigma_e2'")
        if self.training is not None and set(self.training) != {"L_ut", "P_ut"}:
            raise ValueError("training needs exactly the keys L_ut and P_ut, "
                             f"not {sorted(self.training)}")
        counts = [(field, getattr(self, field), least) for field, least in (
            ("n_tx", 1), ("n_users", 1), ("n_trials", 1), ("seed", 0), ("mc_certify_samples", 0))]
        reals = [("sigma2", self.sigma2), ("sigma2_bs", self.sigma2_bs)]
        reals += [("sigma_e2 entries", s) for s in self.sigma_e2 or ()]
        if self.training is not None:
            counts.append(("training.L_ut", self.training["L_ut"], 1))
            reals.append(("training.P_ut", self.training["P_ut"]))
        for name, value, least in counts:  # a Python or numpy integer, not a bool
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
                raise ValueError(f"{name} must be an integer of at least {least}, not {value!r}")
        for name, value in reals:  # a Python or numpy real, not a bool
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, not {value!r}")
        try:  # a training must leave sigma2_bs / (sigma2_bs + L_ut * P_ut) positive
            if self.training is not None and not self.error_variances()[0] > 0.0:
                raise ValueError("training.L_ut * training.P_ut is too large: the error variance is 0")
        except OverflowError:
            raise ValueError("training.L_ut must convert to a finite float") from None
        if not (0 < self.epsilon < 1):
            raise ValueError("epsilon must lie in (0, 1)")
        if not np.all(np.isfinite(self.gamma_db)):
            raise ValueError("gamma_db entries must be finite")

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            raw = json.load(fh)
        known = {f.name for f in dc_fields(cls)}
        extra = set(raw) - known
        if extra:
            raise ValueError(f"unknown config keys: {sorted(extra)}")
        return cls(**raw)

    def error_variances(self) -> tuple:
        if self.sigma_e2 is not None:
            return self.sigma_e2
        return (uplink_error_variance(self.sigma2_bs, self.training["L_ut"], float(self.training["P_ut"])),)


@dataclass(frozen=True)
class TrialRecord:
    """One row of the records file.

    ``status`` is the solver's ``SolveStatus`` value (``diverged`` only from
    ZF-CoordUpdate, whose total power passed 1e8 max_k sigma_k^2 before its
    surrogate constraints held; ``success`` is still the exact certification);
    ``fallback_`` and the ``SolveStatus`` value of ``solve_general`` when a ZF
    surrogate method's target was undefined and ``solve_general`` solved the
    point instead; or the exception's class name when the solve raised
    (success 0, power 0, no evaluations).
    """

    method: str
    gamma_db: float
    sigma_e2: float
    trial: int
    status: str
    success: bool
    total_power: float
    cycles: int
    bisection_steps: int
    integral_evals: int


@dataclass(frozen=True)
class SummaryRow:
    method: str
    gamma_db: float
    sigma_e2: float
    success_pct: float
    avg_power_common: float
    median_cycles: float
    median_bisections: float


def _run_method(method: str, instance: ScenarioInstance, est, qos: QoSSpec,
                config: ExperimentConfig):
    if method == "PCSI-General":
        bf = build_pcsi_directions(est, qos)
        return bf, solve_general(instance, bf, qos)
    if method == "RCI-General":
        bf = build_rci(est, config.n_users * config.sigma2)
        return bf, solve_general(instance, bf, qos)
    bf = build_zf(est)
    if method == "ZF-General":
        return bf, solve_general(instance, bf, qos)
    if method == "ZF-CoordDescent":
        return bf, zfmod.solve_zf_coord_descent(instance, bf, qos)
    return bf, zfmod.solve_zf_coord_update(instance, bf, qos)


def run_trial(config: ExperimentConfig, trial: int) -> list:
    """All records of one trial: one per (uncertainty, method, SINR target)."""
    k, nt = config.n_users, config.n_tx
    h = generate_rayleigh_channels(
        nt, k, np.random.default_rng([config.seed, 0, trial]))
    noise = np.full(k, config.sigma2)
    records = []
    for j, se2 in enumerate(config.error_variances()):
        est, cov = draw_estimate(h, se2, np.random.default_rng([config.seed, 1, trial, j]))
        instance = ScenarioInstance(true_channels=h, est_channels=est,
                                    error_cov=cov, noise_var=noise)
        for m_idx, method in enumerate(config.methods):
            for g_idx, gdb in enumerate(config.gamma_db):
                qos = QoSSpec.from_db(gdb, config.epsilon, k)
                try:
                    try:
                        bf, report = _run_method(method, instance, est, qos, config)
                        status = report.status.value
                    except zfmod.ApproximationInapplicable:
                        # surrogate target undefined at this uncertainty
                        bf, report = _run_method("ZF-General", instance, est,
                                                 qos, config)
                        status = "fallback_" + report.status.value
                except Exception as exc:
                    # e.g. Diverged direction solves; a failed solve is a
                    # failed trial, never a failed sweep
                    records.append(TrialRecord(
                        method=method, gamma_db=gdb, sigma_e2=se2, trial=trial,
                        status=type(exc).__name__, success=False,
                        total_power=0.0, cycles=0, bisection_steps=0,
                        integral_evals=0))
                    continue
                success = bool(
                    report.status is not SolveStatus.INFEASIBLE_START_NOT_FOUND
                    and np.all(report.per_user_prob_exact >= 1.0 - qos.epsilon))
                if success and config.mc_certify_samples > 0:
                    for u in range(k):
                        freq, se = mc_probability(
                            instance, bf, report.powers, qos, u,
                            config.mc_certify_samples,
                            [config.seed, 2, trial, j, m_idx, g_idx, u])
                        if 1.0 - freq > config.epsilon + 4.0 * se:
                            success = False
                            break
                records.append(TrialRecord(
                    method=method, gamma_db=gdb, sigma_e2=se2, trial=trial,
                    status=status, success=success,
                    total_power=report.total_power, cycles=report.cycles,
                    bisection_steps=report.bisection_steps,
                    integral_evals=report.integral_evals))
    return records


def run_sweep(config: ExperimentConfig, n_threads: int = 1) -> list:
    """Run every trial in min(n_threads, n_trials) processes (n_threads >= 1);
    records come back in (trial, uncertainty, method, gamma) order."""
    if (workers := min(n_threads, config.n_trials)) == 1:
        per_trial = [run_trial(config, t) for t in range(config.n_trials)]
    else:
        # imported here: the pool costs every single-process run about 2 MB
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_trial = list(pool.map(run_trial, [config] * config.n_trials,
                                      range(config.n_trials), chunksize=1))
    return [rec for trial_recs in per_trial for rec in trial_recs]


def _group_key(rec: TrialRecord):
    return (rec.method, rec.gamma_db, rec.sigma_e2)


def aggregate(records: list, common_subset: bool = False) -> list:
    """Per-(method, gamma, uncertainty) success rates and workload medians.

    With ``common_subset`` the average power is taken over the trials in
    which every method succeeded at every operating point (the paired
    protocol); otherwise over each group's own successful trials.
    """
    if not records:
        raise ValueError("no records to aggregate")
    groups = {}
    for rec in records:
        groups.setdefault(_group_key(rec), []).append(rec)

    common_trials = None
    if common_subset:
        trial_ok = {}
        for rec in records:
            trial_ok.setdefault(rec.trial, True)
            trial_ok[rec.trial] &= rec.success
        common_trials = {t for t, ok in trial_ok.items() if ok}
        if not common_trials:
            raise EmptyIntersection("no trial succeeded everywhere")

    def method_rank(name):
        return METHODS.index(name) if name in METHODS else len(METHODS)

    rows = []
    for key in sorted(groups, key=lambda k: (method_rank(k[0]),) + k[1:]):
        recs = groups[key]
        successes = [r for r in recs if r.success]
        pool = [r for r in recs if r.trial in common_trials] if common_subset else successes
        avg_power = float(np.mean([r.total_power for r in pool])) if pool else float("nan")
        rows.append(SummaryRow(
            method=key[0], gamma_db=key[1], sigma_e2=key[2],
            success_pct=100.0 * len(successes) / len(recs),
            avg_power_common=avg_power,
            median_cycles=float(np.median([r.cycles for r in successes])) if successes else float("nan"),
            median_bisections=float(np.median([r.bisection_steps for r in successes])) if successes else float("nan"),
        ))
    return rows


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _write_rows(path, row_type, rows: list) -> None:
    """One header line of row_type's field names, then one line per row."""
    names = [f.name for f in dc_fields(row_type)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(names) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(getattr(row, n)) for n in names) + "\n")


def export_records(records: list, path) -> None:
    _write_rows(path, TrialRecord, records)


# column parsers by field type; the annotations are strings in this module
_PARSE = {"str": str, "int": int, "float": float, "bool": lambda s: bool(("0", "1").index(s))}


def _parse(path, row: dict, field):
    try:
        return _PARSE[field.type](row[field.name])
    except ValueError:
        raise ValueError(f"{path}: column {field.name} cannot hold {row[field.name]!r}") from None


def read_records(path) -> list:
    """The records of a file ``export_records`` wrote; ValueError on another
    header or on a value its column cannot hold (a bool is 0 or 1)."""
    columns = dc_fields(TrialRecord)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != [f.name for f in columns]:
            raise ValueError(f"unexpected record header in {path}")
        return [TrialRecord(**{f.name: _parse(path, row, f) for f in columns})
                for row in reader]


def export_summary(rows: list, path) -> None:
    _write_rows(path, SummaryRow, rows)
