"""Correctness checks on solver outputs.

Nothing here trusts a probability the package reports without recomputing
it.  The Monte Carlo sampler is written from the model alone (numpy only):
it draws the estimation error, rebuilds the true channel and counts how often
the SINR target is met.  The exact re-evaluation calls the package's own
oracle at the returned powers, which catches a solver that reports
probabilities of powers other than the ones it returns.
"""

from __future__ import annotations

import hashlib

import numpy as np

from robustpl.descent import SolveStatus
from robustpl.model import PowerAllocation, build_outage_form
from robustpl.quadform import outage_probability

MC_SAMPLES = 40_000
MC_Z = 5.0             # allowed distance from the exact value in standard errors
MC_SOLVES = 24         # certified solves per run checked by Monte Carlo
REEVAL_ABS_TOL = 1e-7  # the oracle is certified to 1e-8
POWER_REL_TOL = 1e-9


def mc_success_probability(instance, columns, powers, gamma_k, k, n, rng):
    """Fraction of n error draws for which user k meets SINR >= gamma_k.

    Row k of the estimates is h_k^H + e_k^H with e_k ~ CN(0, C_k); the true
    row is the estimate minus a fresh error row.
    """
    cov = instance.error_cov[k]
    w, v = np.linalg.eigh(cov)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    nt = cov.shape[0]
    z = (rng.standard_normal((n, nt)) + 1j * rng.standard_normal((n, nt))) / np.sqrt(2.0)
    rows = instance.est_channels[k][None, :] - (z @ root.T).conj()
    g2 = np.abs(rows @ columns) ** 2
    signal = g2[:, k] * powers[k]
    interference = g2 @ powers - signal
    noise = float(instance.noise_var[k])
    return float(np.count_nonzero(signal >= gamma_k * (interference + noise))) / n


def mc_disagreements(instance, columns, powers, gamma, probs, rng) -> list:
    """Users whose exact success probability lies more than MC_Z standard
    errors from the Monte Carlo frequency."""
    bad = []
    for k in range(len(powers)):
        p = float(probs[k])
        freq = mc_success_probability(instance, columns, powers, float(gamma[k]),
                                      k, MC_SAMPLES, rng)
        se = np.sqrt(max(p * (1.0 - p), 1e-12) / MC_SAMPLES)
        if abs(freq - p) > MC_Z * se:
            bad.append(f"user {k}: exact {p:.5f} vs Monte Carlo {freq:.5f}")
    return bad


def nominal_power(instance, columns, gamma) -> float:
    """Total power that meets every SINR target if the estimates were exact,
    for the given directions; nan when that balance system has no positive
    solution."""
    g2 = np.abs(instance.est_channels @ columns) ** 2
    mat = -g2.copy()
    np.fill_diagonal(mat, g2.diagonal() / gamma)
    try:
        p = np.linalg.solve(mat, instance.noise_var)
    except np.linalg.LinAlgError:
        return float("nan")
    if not np.all(p > 0):
        return float("nan")
    return float(p @ np.sum(np.abs(columns) ** 2, axis=0))


def check_solve(instance, beamformer, qos, report, exact_solver, delta_min) -> list:
    """Problems with one solver output; an empty list means it passed.

    Every output: the reported total power matches the returned powers, and
    the reported exact probabilities are those of the returned powers.  An
    exact solve that claims SOLVED has every user inside the band
    [1 - eps, 1 - eps + delta_min].
    """
    problems = []
    powers = report.powers.powers
    columns = beamformer.columns
    total = float(powers @ np.sum(np.abs(columns) ** 2, axis=0))
    if not np.isclose(report.total_power, total, rtol=POWER_REL_TOL, atol=0.0):
        problems.append(f"total power {report.total_power} != {total}")
    alloc = PowerAllocation(powers=powers)
    for k in range(qos.n_users):
        form = build_outage_form(instance, beamformer, alloc, qos, k)
        value = outage_probability(form, tol=1e-8).value
        if abs(value - float(report.per_user_prob_exact[k])) > REEVAL_ABS_TOL:
            problems.append(f"user {k}: reported probability "
                            f"{report.per_user_prob_exact[k]} but {value} "
                            f"at the returned powers")
    if exact_solver and report.status is SolveStatus.SOLVED:
        floor = 1.0 - qos.epsilon
        probs = report.per_user_prob_exact
        if not np.all((probs >= floor) & (probs <= floor + delta_min)):
            problems.append(f"SOLVED outside the band: {probs}")
    return problems


def certified(report, qos) -> bool:
    """Returned powers meet every user's outage constraint under the exact
    oracle (and the solver found a feasible start)."""
    return (report.status is not SolveStatus.INFEASIBLE_START_NOT_FOUND
            and bool(np.all(report.per_user_prob_exact >= 1.0 - qos.epsilon)))


def mc_subset(indices: list, count: int = MC_SOLVES) -> list:
    """A fixed, evenly spread subset of the given operation indices."""
    if len(indices) <= count:
        return list(indices)
    picks = np.linspace(0, len(indices) - 1, count).round().astype(int)
    return [indices[i] for i in picks]


def digest(items) -> str:
    """SHA-256 over the repr of each output item."""
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()
