"""Feasible-start cyclic coordinate descent for outage-constrained power
loading with fixed beamforming directions.

Each coordinate step shrinks one user's power by bisection until that user's
success probability falls inside [1 - eps, 1 - eps + Delta]; lowering a power
can only raise the other users' probabilities, so every iterate stays
feasible and the total power never increases.
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
    "InfeasibleStartNotFound",
    "OutageOracle",
    "SolveStatus",
    "SolveReport",
    "find_feasible_start",
    "bisect_user_power",
    "solve_general",
]

MAX_BISECT_STEPS = 60


class InfeasibleStartNotFound(Exception):
    """Doubling reached the power cap without satisfying all constraints."""


class SolveStatus(enum.Enum):
    SOLVED = "solved"
    INFEASIBLE_START_NOT_FOUND = "infeasible_start_not_found"
    CYCLE_LIMIT = "cycle_limit"


@dataclass(frozen=True)
class DescentConfig:
    """Knobs for the coordinate-descent solvers.

    ``delta_min`` is the terminal probability-band width, a scalar or one
    value per user; the per-cycle band ``delta_schedule`` is either
    "constant" (band delta_min from the first cycle, the recommended
    single-cycle setting) or "geometric" (max(delta_min, delta0 * 2^-cycle)).
    """

    delta_min: float = 1e-3
    delta_schedule: str = "constant"
    delta0: float = 0.1
    max_cycles: int = 50
    max_doublings: int = 30
    power_cap: float = 1e6
    quad_tol: float = 1e-8
    sweep_order: tuple = None
    strict_checks: bool = False

    def __post_init__(self):
        if np.any(np.asarray(self.delta_min) <= 0):
            raise ValueError("delta_min must be positive")
        if self.delta_schedule not in ("constant", "geometric"):
            raise ValueError("unknown delta schedule")

    def delta_min_for(self, n_users: int) -> np.ndarray:
        return np.broadcast_to(np.asarray(self.delta_min, dtype=float),
                               (n_users,))

    def delta_at(self, cycle: int, n_users: int) -> np.ndarray:
        floor = self.delta_min_for(n_users)
        if self.delta_schedule == "constant":
            return floor
        return np.maximum(floor, self.delta0 * 0.5 ** (cycle - 1))


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
    init_fallback: bool = False
    doublings: int = 0
    per_user_prob_approx: np.ndarray = None

    @property
    def solved(self) -> bool:
        return self.status is SolveStatus.SOLVED


class OutageOracle:
    """Outage probabilities Pr(SINR_k >= gamma_k) for one (instance,
    beamformer, qos), with the per-user setup done once.

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
                 qos: QoSSpec, quad_tol: float = 1e-8):
        sqrt_c, inv_sqrt_c = instance.cov_roots
        self.g_mats = sqrt_c @ beamformer.columns
        self.centres = -np.einsum("kij,kj->ki", inv_sqrt_c, instance.est_channels.conj())
        self.hb = instance.est_channels @ beamformer.columns
        self.gains = np.abs(self.hb) ** 2
        a_g = np.einsum("ki,kij->kj", self.centres.conj(), self.g_mats)
        self.gains_minus_w = self.gains - np.abs(a_g) ** 2
        self.gamma = qos.gamma
        self.noise_var = instance.noise_var
        self.quad_tol = quad_tol
        self.evals = 0

    def form(self, powers: np.ndarray, k: int) -> QuadraticOutageForm:
        c = -np.asarray(powers, dtype=float)
        c[k] = -c[k] / self.gamma[k]
        g = self.g_mats[k]
        noise = float(self.noise_var[k])
        return QuadraticOutageForm(
            Q=(g * c) @ g.conj().T, r=g @ (c * self.hb[k].conj()),
            v=float(c @ self.gains[k]) - noise, a=self.centres[k],
            tau=float(c @ self.gains_minus_w[k]) - noise)

    def exact(self, powers: np.ndarray, k: int) -> float:
        return outage_probability(self.form(powers, k), tol=self.quad_tol).value

    def exact_all(self, powers: np.ndarray) -> np.ndarray:
        return np.array([self.exact(powers, k) for k in range(self.gamma.size)])

    def constraint(self, powers: np.ndarray, k: int) -> float:
        return self.exact(powers, k)

    def __call__(self, powers: np.ndarray, k: int) -> float:
        self.evals += 1
        return self.constraint(powers, k)


def _find_feasible_start(prob, beamformer, qos, config, p_init: np.ndarray):
    """Double all powers until every user meets its probability floor.

    Returns (powers, probs, doublings, feasible); the power cap counts
    against the total transmit power.
    """
    norms2 = np.sum(np.abs(beamformer.columns) ** 2, axis=0)
    floor = 1.0 - qos.epsilon
    p = p_init.copy()
    doublings = 0
    while True:
        probs = np.array([prob(p, k) for k in range(p.size)])
        if np.all(probs >= floor):
            return p, probs, doublings, True
        if doublings >= config.max_doublings or np.dot(p, norms2) > config.power_cap:
            return p, probs, doublings, False
        p = 2.0 * p
        doublings += 1


def _bisect_user_power(prob, p: np.ndarray, k: int, delta_k: float,
                       epsilon_k: float, prob_k_current: float = None):
    """Shrink p[k] into the probability band [1-eps, 1-eps+delta].

    Assumes prob(., k) is increasing in p[k] and that the current p[k] is
    feasible.  The lower endpoint 0 is never feasible here (zero signal power
    cannot meet a positive SINR target), so it serves as the infeasible
    bracket without being evaluated.  Returns (new_pk, probability, steps).
    """
    floor = 1.0 - epsilon_k
    steps = 0
    hi = p[k]
    if prob_k_current is None:
        prob_hi = prob(p, k)
        steps += 1
    else:
        prob_hi = prob_k_current
    if prob_hi <= floor + delta_k:
        return hi, prob_hi, steps
    lo = 0.0
    trial = p.copy()
    # land in the lower quarter of the band: later coordinate reductions can
    # only raise this probability, so headroom saves whole extra cycles
    while steps < MAX_BISECT_STEPS:
        mid = 0.5 * (lo + hi)
        trial[k] = mid
        pm = prob(trial, k)
        steps += 1
        if pm >= floor:
            hi = mid
            prob_hi = pm
            if pm <= floor + 0.25 * delta_k:
                break
        else:
            lo = mid
        if hi - lo <= 1e-15 * max(1.0, hi):
            # probability jumps across the band; keep the feasible endpoint
            break
    return hi, prob_hi, steps


def _run_descent(oracle: OutageOracle, beamformer: BeamformerMatrix,
                 qos: QoSSpec, config: DescentConfig, p_init: np.ndarray,
                 init_fallback: bool):
    """The shared engine: feasible start by doubling, then cyclic bisection,
    on a fresh oracle (its ``evals`` are the report's)."""
    t0 = time.perf_counter()
    n_users = qos.n_users
    order = config.sweep_order or tuple(range(n_users))
    floor = 1.0 - qos.epsilon

    p, probs, doublings, feasible = _find_feasible_start(
        oracle, beamformer, qos, config, p_init)
    bisect_steps = 0
    cycles = 0
    if not feasible:
        alloc = PowerAllocation(powers=p)
        return SolveReport(
            status=SolveStatus.INFEASIBLE_START_NOT_FOUND,
            powers=alloc, per_user_prob=probs, per_user_prob_exact=probs.copy(),
            total_power=alloc.total_power(beamformer),
            cycles=0, bisection_steps=0, integral_evals=oracle.evals,
            wall_time=time.perf_counter() - t0, init_fallback=init_fallback,
            doublings=doublings)

    delta_min = config.delta_min_for(n_users)
    status = SolveStatus.CYCLE_LIMIT
    while True:
        in_band = np.all((probs >= floor) & (probs <= floor + delta_min))
        if in_band:
            status = SolveStatus.SOLVED
            break
        if cycles >= config.max_cycles:
            break
        cycles += 1
        delta = config.delta_at(cycles, n_users)
        p_before = p.copy()
        total_before = PowerAllocation(powers=p).total_power(beamformer)
        dirty = False
        for k in order:
            cached = None if dirty else probs[k]
            new_pk, prob_k, steps = _bisect_user_power(
                oracle, p, k, float(delta[k]), float(qos.epsilon[k]), cached)
            bisect_steps += steps
            if new_pk != p[k]:
                dirty = True
            p[k] = new_pk
            probs[k] = prob_k
            if config.strict_checks:
                check = np.array([oracle.constraint(p, j) for j in range(n_users)])
                if not np.all(check >= floor - 1e-9):
                    raise AssertionError("feasibility lost during coordinate step")
                total_now = PowerAllocation(powers=p).total_power(beamformer)
                if total_now > total_before + 1e-9 * max(1.0, total_before):
                    raise AssertionError("objective increased during coordinate step")
                total_before = total_now
        probs = np.array([oracle(p, k) for k in range(n_users)])
        stalled = np.max(np.abs(p - p_before)) <= 1e-12 * max(1.0, float(np.max(p)))
        if stalled and np.all(delta <= delta_min):
            # the terminal band is narrower than the achievable power
            # resolution (near-deterministic constraints)
            in_band = np.all((probs >= floor) & (probs <= floor + delta_min))
            status = SolveStatus.SOLVED if in_band else SolveStatus.CYCLE_LIMIT
            break

    alloc = PowerAllocation(powers=p)
    return SolveReport(
        status=status, powers=alloc, per_user_prob=probs,
        per_user_prob_exact=probs.copy(), total_power=alloc.total_power(beamformer),
        cycles=cycles, bisection_steps=bisect_steps,
        integral_evals=oracle.evals, wall_time=time.perf_counter() - t0,
        init_fallback=init_fallback, doublings=doublings)


def find_feasible_start(instance: ScenarioInstance, beamformer: BeamformerMatrix,
                        qos: QoSSpec, config: DescentConfig = None) -> PowerAllocation:
    """Feasible allocation from the nominal powers, doubling all of them
    until every outage constraint holds.  Raises InfeasibleStartNotFound when
    the doubling budget or the power cap is exhausted first."""
    config = config or DescentConfig()
    oracle = OutageOracle(instance, beamformer, qos, config.quad_tol)
    p_init, _ = init_powers_pcsi(instance.est_channels, beamformer, qos,
                                 instance.noise_var)
    p, _, _, feasible = _find_feasible_start(
        oracle, beamformer, qos, config, p_init.powers)
    if not feasible:
        raise InfeasibleStartNotFound("power cap reached before feasibility")
    return PowerAllocation(powers=p)


def bisect_user_power(instance: ScenarioInstance, beamformer: BeamformerMatrix,
                      qos: QoSSpec, p_current: PowerAllocation, k: int,
                      delta_k: float, config: DescentConfig = None) -> float:
    """Single-coordinate power reduction into the probability band."""
    config = config or DescentConfig()
    oracle = OutageOracle(instance, beamformer, qos, config.quad_tol)
    new_pk, _, _ = _bisect_user_power(oracle, p_current.powers.copy(), k,
                                      delta_k, float(qos.epsilon[k]))
    return new_pk


def solve_general(instance: ScenarioInstance, beamformer: BeamformerMatrix,
                  qos: QoSSpec, config: DescentConfig = None,
                  p_start: PowerAllocation = None) -> SolveReport:
    """Coordinate descent against the exact outage probabilities for any
    fixed directions."""
    config = config or DescentConfig()
    oracle = OutageOracle(instance, beamformer, qos, config.quad_tol)
    if p_start is not None:
        p_init, fallback = p_start.powers.copy(), False
    else:
        alloc, fallback = init_powers_pcsi(instance.est_channels, beamformer,
                                           qos, instance.noise_var)
        p_init = alloc.powers
    return _run_descent(oracle, beamformer, qos, config, p_init, fallback)
