"""Feasible-start cyclic coordinate descent for outage-constrained power
loading with fixed beamforming directions.

Each coordinate step shrinks one user's power, by a bracketed secant search
on the logit of its success probability, until that probability falls inside
[1 - eps, 1 - eps + Delta]; its first probe is one Newton step on the logit
when it evaluates its own start with the exact oracle, which then also sums
the slope.  Lowering a power can only raise the other users' probabilities,
so every iterate stays feasible and the total power never increases.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass

import numpy as np

from .model import (
    BeamformerMatrix,
    PowerAllocation,
    QoSSpec,
    QuadraticOutageForm,
    ScenarioInstance,
    build_outage_form,  # noqa: F401 (perfbench/tracing.py wraps this name)
    init_powers_pcsi,
)
from .quadform import outage_probability

__all__ = [
    "DescentConfig",
    "OutageOracle",
    "SolveStatus",
    "SolveReport",
    "solve_general",
]

MAX_BISECT_STEPS = 60
MAX_CYCLES = 50
MAX_DOUBLINGS = 30
POWER_CAP = 1e6  # on the total transmit power of a feasible start or an update


class SolveStatus(enum.Enum):
    SOLVED = "solved"
    INFEASIBLE_START_NOT_FOUND = "infeasible_start_not_found"
    CYCLE_LIMIT = "cycle_limit"
    DIVERGED = "diverged"


@dataclass(frozen=True)
class DescentConfig:
    """The coordinate descent's one setting: ``delta_min``, the width of
    every user's probability band [1 - eps, 1 - eps + delta_min], into which
    every cycle searches from the first.  The cycle cap is ``MAX_CYCLES``.
    """

    delta_min: float = 1e-3

    def __post_init__(self):
        if np.ndim(self.delta_min) != 0 or not self.delta_min > 0:
            raise ValueError("delta_min must be a positive scalar")


@dataclass
class SolveReport:
    """Solve outcome.

    ``per_user_prob`` is measured by the solver's own constraint oracle;
    ``per_user_prob_exact`` always holds the quadrature-certified values (the
    two coincide for the exact solver).  ``integral_evals`` counts oracle
    evaluations: quadratures for the exact solver, residue evaluations for
    the surrogate solvers.
    """

    status: SolveStatus
    powers: PowerAllocation
    per_user_prob: np.ndarray
    per_user_prob_exact: np.ndarray
    total_power: float
    cycles: int
    bisection_steps: int
    integral_evals: int
    wall_time: float
    doublings: int = 0

    @property
    def solved(self) -> bool:
        return self.status is SolveStatus.SOLVED


class OutageOracle:
    """Outage probabilities Pr(SINR_k >= gamma_k) for one (instance,
    beamformer, qos), with the per-user setup done once; it keeps that
    problem, the squared column norms ``norms2`` and the floors ``floor``.

    With G_k = C_k^{1/2} B, a_k = -C_k^{-1/2} h_k and the signed powers c
    (p_k / gamma_k at k, -p_j elsewhere), user k's outage form at any powers
    is Q = G_k diag(c) G_k^H, r = G_k (c * conj(h_k^H B)), v = c . g_k -
    sigma_k^2 and tau = c . (g_k - w_k) - sigma_k^2, where g_k = |h_k^H B|^2
    and w_k = |a_k^H G_k|^2: the values ``build_outage_form`` computes from
    scratch.  Calls ``oracle(powers, k)`` are the solver's constraint
    evaluations and are counted in ``evals``; ``constraint`` is the exact
    probability here (subclasses substitute a surrogate), and ``exact`` and
    ``exact_all`` evaluate it without counting.
    """

    def __init__(self, instance: ScenarioInstance, beamformer: BeamformerMatrix,
                 qos: QoSSpec):
        self.instance, self.beamformer, self.qos = instance, beamformer, qos
        self.norms2 = np.sum(np.abs(beamformer.columns) ** 2, axis=0)
        self.floor = 1.0 - qos.epsilon
        sqrt_c, inv_sqrt_c = instance.cov_roots
        self.g_mats = sqrt_c @ beamformer.columns
        self.g_herms = [g.conj().T for g in self.g_mats]
        self.centres = -np.einsum("kij,kj->ki", inv_sqrt_c, instance.est_channels.conj())
        self.hb = instance.est_channels @ beamformer.columns
        self.gains = np.abs(self.hb) ** 2
        a_g = np.einsum("ki,kij->kj", self.centres.conj(), self.g_mats)
        self.gains_minus_w = self.gains - np.abs(a_g) ** 2
        self.gamma = qos.gamma
        self.noise_var = instance.noise_var
        self.evals = 0

    def signed_powers(self, powers: np.ndarray, k: int) -> np.ndarray:
        """c: p_k / gamma_k at k and -p_j elsewhere."""
        c = -np.asarray(powers, dtype=float)
        c[k] = -c[k] / self.gamma[k]
        return c

    def q_matrix(self, c: np.ndarray, k: int) -> np.ndarray:
        """G_k diag(c) G_k^H: user k's Q at the signed powers c (-Q at -c)."""
        return (self.g_mats[k] * c) @ self.g_herms[k]

    def form(self, powers: np.ndarray, k: int) -> QuadraticOutageForm:
        c = self.signed_powers(powers, k)
        noise = float(self.noise_var[k])
        return QuadraticOutageForm(
            Q=self.q_matrix(c, k), r=self.g_mats[k] @ (c * self.hb[k].conj()),
            v=float(c @ self.gains[k]) - noise, a=self.centres[k],
            tau=float(c @ self.gains_minus_w[k]) - noise)

    def exact(self, powers: np.ndarray, k: int) -> float:
        return outage_probability(self.form(powers, k)).value

    def exact_all(self, powers: np.ndarray) -> np.ndarray:
        return np.array([self.exact(powers, k) for k in range(self.gamma.size)])

    def constraint(self, powers: np.ndarray, k: int) -> float:
        return self.exact(powers, k)

    def sloped(self, powers: np.ndarray, k: int) -> tuple:
        """A counted evaluation and its slope dP/dp_k (``outage_probability``)."""
        self.evals += 1
        g, gamma_k = self.g_mats[k][:, k], float(self.gamma[k])
        est = outage_probability(self.form(powers, k), direction=(
            g / np.sqrt(gamma_k), self.gains_minus_w[k, k] / gamma_k))
        return est.value, est.slope

    def __call__(self, powers: np.ndarray, k: int) -> float:
        self.evals += 1
        return self.constraint(powers, k)

    def report(self, status: SolveStatus, p: np.ndarray, probs: np.ndarray,
               t0: float, **counts) -> SolveReport:
        """The solve report at powers p with constraint probabilities probs,
        the oracle's ``evals`` and the time since t0 (``perf_counter``)."""
        return SolveReport(
            status=status, powers=PowerAllocation(powers=p), per_user_prob=probs,
            per_user_prob_exact=probs.copy(),
            total_power=float(np.dot(p, self.norms2)), integral_evals=self.evals,
            wall_time=time.perf_counter() - t0, **counts)


class _LazyProbs:
    """The oracle's probabilities at the powers ``p``.  A value is stale once
    another user's power changed after its evaluation, and reading a stale
    value evaluates (and counts) it at p."""

    def __init__(self, oracle, p: np.ndarray, values: np.ndarray = None):
        self.oracle, self.p = oracle, p
        self.stale = np.full(p.size, values is None)
        self.values = np.full(p.size, np.nan) if values is None else values

    def __getitem__(self, k: int) -> float:
        if self.stale[k]:
            self.values[k], self.stale[k] = self.oracle(self.p, k), False
        return self.values[k]

    def first_failing(self, ok, order) -> int:
        """The first user k of order with not ok(k, probability), or None:
        fresh values are tested first, then stale ones are evaluated in order
        until one fails."""
        for k in sorted(order, key=self.stale.__getitem__):
            if not ok(k, self[k]):
                return k
        return None

    def complete(self) -> np.ndarray:
        """Every user's probability at p."""
        return np.array([self[k] for k in range(self.p.size)])


def _find_feasible_start(oracle: OutageOracle, p_init: np.ndarray):
    """Double all powers until every user meets its probability floor.

    A round stops at its first user below the floor, which the next round
    tests first, so only the passing round and the give-up exit evaluate
    every user.  Returns (powers, probs, doublings, feasible); the power cap
    counts against the total transmit power.
    """
    probs = _LazyProbs(oracle, p_init.copy())
    order, doublings = list(range(p_init.size)), 0
    while (k := probs.first_failing(lambda k, q: q >= oracle.floor[k], order)) is not None:
        if doublings >= MAX_DOUBLINGS or np.dot(probs.p, oracle.norms2) > POWER_CAP:
            return probs.p, probs.complete(), doublings, False
        order = [k] + [j for j in order if j != k]
        probs.p *= 2.0
        probs.stale[:] = True
        doublings += 1
    return probs.p, probs.complete(), doublings, True


def _logit(q: float):
    """log(q / (1 - q)), or None at q = 0 or 1 (tail shortcuts)."""
    return float(np.log(q / (1.0 - q))) if 0.0 < q < 1.0 else None


def _bisect_user_power(prob, p: np.ndarray, k: int, delta_k: float,
                       epsilon_k: float, prob_k_current: float = None):
    """Shrink p[k] into the probability band [1-eps, 1-eps+delta].

    Assumes prob(., k) is increasing in p[k] and that the current p[k] is
    feasible.  The bracket starts at [0, p[k]]; 0 is never feasible (zero
    signal power cannot meet a positive SINR target) and never evaluated.
    Probes aim at 1-eps+delta/8: the first by one Newton step on logit(prob)
    when the search evaluates p[k] itself through an oracle with ``sloped``
    (a counted evaluation with its slope dprob/dp_k, or None), else along
    the chord from (0, 0) to (p[k], prob); later ones along the secant of
    logit(prob) through the last two probes, or at the midpoint when the
    secant leaves the bracket, a probability is exactly 0 or 1, or three
    secant probes in a row moved the same end; every probe keeps 1e-3 of the
    bracket's width from both ends.
    Returns (new_pk, probability, steps).
    """
    floor = 1.0 - epsilon_k
    hi = p[k]
    steps = int(prob_k_current is None)
    sloped = getattr(prob, "sloped", None) if steps else None
    prob_hi, slope = (sloped(p, k) if sloped
                      else (prob(p, k) if steps else prob_k_current, None))
    if prob_hi <= floor + delta_k:
        return hi, prob_hi, steps
    lo, trial = 0.0, p.copy()
    # aim at the lower quarter of the band: later coordinate reductions can
    # only raise this probability, so headroom saves whole extra cycles
    aim = floor + 0.125 * delta_k
    x, last, secant, streak = hi * aim / prob_hi, (hi, _logit(prob_hi)), False, 0
    if (slope or 0.0) > 0.0 and last[1] is not None:  # d logit / dp = slope / (P (1 - P))
        x = hi + (_logit(aim) - last[1]) * prob_hi * (1.0 - prob_hi) / slope
    while steps < MAX_BISECT_STEPS:
        x = min(max(x, lo + 1e-3 * (hi - lo)), hi - 1e-3 * (hi - lo))
        trial[k] = x
        pm = prob(trial, k)
        steps += 1
        # secant probes in a row that moved the same end (+ hi, - lo)
        streak = (max(streak, 0) + 1 if pm >= floor else min(streak, 0) - 1) if secant else 0
        if pm >= floor:
            hi, prob_hi = x, pm
            if pm <= floor + 0.25 * delta_k:
                break
        else:
            lo = x
        if hi - lo <= 1e-15 * max(1.0, hi):
            # probability jumps across the band; keep the feasible endpoint
            break
        (x0, l0), (x1, l1) = last, (x, _logit(pm))
        last, x, secant = (x1, l1), 0.5 * (lo + hi), False
        if None not in (l0, l1) and l0 != l1 and abs(streak) < 3:
            guess = x1 + (_logit(aim) - l1) * (x1 - x0) / (l1 - l0)
            if lo < guess < hi:
                x, secant = guess, True
    return hi, prob_hi, steps


def _run_descent(oracle: OutageOracle, config: DescentConfig,
                 p_start: PowerAllocation):
    """The shared engine on a fresh oracle (its ``evals`` are the report's):
    start from p_start or from ``init_powers_pcsi``; double to a feasible
    start; then search each user's power cyclically.

    Only probabilities a decision reads are evaluated.  The band test reads
    the fresh values first, then evaluates stale users in index order until
    one leaves the band.  A cycle evaluates a stale user just before its
    search (uncounted in ``bisection_steps``) unless an earlier user of the
    cycle moved, and every exit evaluates the users still stale.
    """
    t0 = time.perf_counter()
    instance, beamformer, qos = oracle.instance, oracle.beamformer, oracle.qos
    floor = oracle.floor
    if p_start is None:
        p_start = init_powers_pcsi(
            instance.est_channels, beamformer, qos, instance.noise_var)[0]
    n_users = qos.n_users

    p, start_probs, doublings, feasible = _find_feasible_start(oracle, p_start.powers)
    probs = _LazyProbs(oracle, p, start_probs)
    bisect_steps = cycles = 0
    delta_min = float(config.delta_min)
    status = (SolveStatus.CYCLE_LIMIT if feasible
              else SolveStatus.INFEASIBLE_START_NOT_FOUND)
    stalled = False
    while feasible:
        if probs.first_failing(lambda k, q: floor[k] <= q <= floor[k] + delta_min,
                               range(n_users)) is None:
            status = SolveStatus.SOLVED
            break
        if stalled or cycles >= MAX_CYCLES:
            break
        cycles += 1
        p_before = p.copy()
        dirty = False
        for k in range(n_users):
            new_pk, prob_k, steps = _bisect_user_power(
                oracle, p, k, delta_min, float(qos.epsilon[k]),
                None if dirty else probs[k])
            bisect_steps += steps
            if new_pk != p[k]:
                dirty = True
                probs.stale[:] = True
            p[k] = new_pk
            probs.values[k], probs.stale[k] = prob_k, False
        # a stall: the band is narrower than the achievable power
        # resolution (near-deterministic constraints)
        stalled = np.max(np.abs(p - p_before)) <= 1e-12 * max(1.0, float(np.max(p)))

    return oracle.report(status, p, probs.complete(), t0, cycles=cycles,
                         bisection_steps=bisect_steps, doublings=doublings)


def solve_general(instance: ScenarioInstance, beamformer: BeamformerMatrix,
                  qos: QoSSpec, config: DescentConfig = None,
                  p_start: PowerAllocation = None) -> SolveReport:
    """Coordinate descent against the exact outage probabilities for any
    fixed directions."""
    config = config or DescentConfig()
    return _run_descent(OutageOracle(instance, beamformer, qos), config, p_start)
