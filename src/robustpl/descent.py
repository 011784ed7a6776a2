"""Feasible-start cyclic coordinate descent for outage-constrained power
loading with fixed beamforming directions.

Each coordinate step shrinks one user's power, by a bracketed secant search
on the logit of its success probability started along the chord, until that
probability falls inside [1 - eps, 1 - eps + eps/50].  Lowering a power can
only raise the other users' probabilities (Yates, IEEE JSAC 13(7), 1995):
every iterate stays feasible and the total power never rises.  Where the
cycles' drops in total power shrink geometrically, the descent extrapolates
them (Aitken-style) to a lower point, taken only where every user's evaluated
probability meets its floor.  A moment model of the outage forms places the
start.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from statistics import NormalDist

import numpy as np

from .model import (
    BeamformerMatrix,
    PowerAllocation,
    QoSSpec,
    ScenarioInstance,
    build_outage_form,  # noqa: F401 (perfbench/tracing.py wraps this name)
    eigh,
    init_powers_pcsi,
)
from .quadform import QUAD_TOL, ToleranceNotMet, outage_probability, rotate, saddlepoint_cdf

__all__ = ["DescentConfig", "OutageOracle", "SaddlepointOracle", "SolveStatus", "SolveReport", "solve_general"]

MAX_BISECT_STEPS = 60
MAX_CYCLES = 50
MAX_DOUBLINGS = 30
START_AIM, START_ROUNDS, START_RTOL = 0.4, 15, 1e-4  # of _model_start
JUMP_RATIO, JUMP_DAMPING = 0.5, 0.8  # of _try_jump


class SolveStatus(enum.Enum):
    SOLVED = "solved"
    INFEASIBLE_START_NOT_FOUND = "infeasible_start_not_found"
    CYCLE_LIMIT = "cycle_limit"
    DIVERGED = "diverged"


class DescentConfig:
    """``delta_min``, the band width ``OutageOracle.width`` takes at eps =
    0.05; no solver reads it (each oracle derives its bands from eps)."""

    delta_min = 1e-3


@dataclass
class SolveReport:
    """Solve outcome.

    ``per_user_prob`` is measured by the solver's own constraint oracle;
    ``per_user_prob_exact`` always holds the quadrature-certified values (the
    two coincide for the exact solver).  ``integral_evals`` counts oracle
    evaluations: quadratures for the exact solver, residue evaluations for
    the surrogate solvers.  ``jumps`` counts the accepted ``_try_jump``
    points and ``raises`` the single-user raises of an exact stage; like
    ``doublings`` neither is a records column.  No solve reads a clock: a
    caller times one with its own.
    """

    status: SolveStatus
    powers: PowerAllocation
    per_user_prob: np.ndarray
    per_user_prob_exact: np.ndarray
    total_power: float
    cycles: int
    bisection_steps: int
    integral_evals: int
    doublings: int = 0
    jumps: int = 0
    raises: int = 0

    @property
    def solved(self) -> bool:
        return self.status is SolveStatus.SOLVED


class OutageOracle:
    """Outage probabilities Pr(SINR_k >= gamma_k) for one (instance,
    beamformer, qos), with the per-user setup done once; it keeps that
    problem, the squared column norms ``norms2``, and per user the floors
    ``floor`` = 1 - eps_k + ``margin``, band widths ``width`` = eps_k/50 and
    quadrature tolerances ``tol`` = min(QUAD_TOL, eps_k/5000), with ``cap`` =
    1e8 max_k sigma_k^2 on the total power of a start or an update.

    With G_k = C_k^{1/2} B, a_k = -C_k^{-1/2} h_k and the signed powers c
    (p_k / gamma_k at k, -p_j elsewhere), user k's outage form at any powers
    is Q = G_k diag(c) G_k^H and tau = -sigma_k^2, as a_k^H G_k = -h_k^H B
    for the positive definite C_k: ``minus_form`` gives the (-Q, a_k, tau)
    that ``build_outage_form`` computes from scratch, and ``minus_qs`` every
    user's -Q in one stack.  ``read``, the one counted evaluation and the
    only place ``evals`` rises, returns (value, bound); ``oracle(powers, k)``
    and ``ray_limit`` go through it.  ``exact_all`` evaluates every user's
    exact probability uncounted, and ``slope``, the one slope source, is
    ``saddlepoint_cdf``'s dP/dp_k, uncounted, which only the exact stage's
    single-user raise reads.  A start and a raise budget are the caller's.
    """
    bands = (math.inf, 50)  # eps_k over these: each floor's margin above 1 - eps_k, the band's width
    hopeless = False  # whether the last certified ``ray_limit`` was below its floor

    def __init__(self, instance: ScenarioInstance, beamformer: BeamformerMatrix,
                 qos: QoSSpec):
        self.instance, self.beamformer, self.qos = instance, beamformer, qos
        self.norms2 = np.sum(np.abs(beamformer.columns) ** 2, axis=0)
        eps, self.cap = qos.epsilon, 1e8 * float(np.max(instance.noise_var))
        self.margin, self.width = eps / self.bands[0], eps / self.bands[1]
        self.floor, self.tol = 1.0 - eps + self.margin, np.minimum(QUAD_TOL, eps / 5000)
        sqrt_c, inv_sqrt_c = instance.cov_roots
        self.g_mats = sqrt_c @ beamformer.columns
        self.g_herms = self.g_mats.conj().transpose(0, 2, 1)  # G_k^H, views
        self.centres = -np.einsum("kij,kj->ki", inv_sqrt_c, instance.est_channels.conj())
        self.gamma, self.noise_var, self.evals = qos.gamma, instance.noise_var, 0

    def minus_form(self, powers: np.ndarray, k: int, sigma2: float = None) -> tuple:
        """(-Q, a, tau) of user k's form at noise sigma2 (None: sigma_k^2)."""
        minus_c, sigma2 = np.array(powers, dtype=float), self.noise_var[k] if sigma2 is None else sigma2
        minus_c[k] = -minus_c[k] / self.gamma[k]
        return (self.g_mats[k] * minus_c) @ self.g_herms[k], self.centres[k], -float(sigma2)

    def minus_qs(self, powers: np.ndarray) -> np.ndarray:
        """The (K, n, n) stack of every user's -Q, ``minus_form``'s first entry."""
        powers = np.asarray(powers, dtype=float)
        minus_c = np.where(np.eye(powers.size, dtype=bool), -(powers / self.gamma), powers)
        return (self.g_mats * minus_c[:, None, :]) @ self.g_herms

    def exact_all(self, powers: np.ndarray) -> np.ndarray:
        """Every user's exact value, uncounted, the -Q decomposed by one stacked ``eigh``."""
        minus_qs = self.minus_qs(powers)
        eigs = zip(*eigh(minus_qs))
        return np.array([outage_probability((minus_q, a, -float(s2)), tol, eig).value
                         for minus_q, a, s2, tol, eig in zip(minus_qs, self.centres, self.noise_var,
                                                             self.tol, eigs)])

    def read(self, powers: np.ndarray, k: int, sigma2: float = None) -> tuple:
        """The counted (value, error bound) of user k's probability at noise
        sigma2 (None: sigma_k^2)."""
        self.evals += 1
        est = outage_probability(self.minus_form(powers, k, sigma2), self.tol[k])
        return est.value, est.abs_error_bound

    def __call__(self, powers: np.ndarray, k: int) -> float:
        return self.read(powers, k)[0]

    def ray_limit(self, powers: np.ndarray, k: int):
        """A counted upper bound on user k's probability on the ray t * powers,
        t > 0, or None if uncertified: the noise-free ``read``'s value plus
        its bound, which the probability rises to as the noise weighs 1/t
        (Yates, 1995), plus ``margin``; it sets ``hopeless``."""
        try:
            value, bound = self.read(powers, k, 0.0)
        except ToleranceNotMet:
            return None
        self.hopeless = (limit := value + bound + self.margin[k]) < self.floor[k]
        return limit

    def direction(self, k: int) -> np.ndarray:
        """u = G_k e_k / sqrt(gamma_k): dQ/dp_k = u u^H in user k's form."""
        return self.g_mats[k][:, k] / np.sqrt(float(self.gamma[k]))

    def slope(self, powers: np.ndarray, k: int):
        """``saddlepoint_cdf``'s slope dP/dp_k along ``direction(k)``, uncounted, or None."""
        est = saddlepoint_cdf(*rotate(self.minus_form(powers, k), self.direction(k)))
        return est and est.slope

    def report(self, status: SolveStatus, p: np.ndarray, probs: np.ndarray, **counts) -> SolveReport:
        """The solve report at powers p with constraint probabilities probs and the oracle's ``evals``."""
        return SolveReport(
            status=status, powers=PowerAllocation(powers=p), per_user_prob=probs,
            per_user_prob_exact=probs.copy(),
            total_power=float(np.dot(p, self.norms2)), integral_evals=self.evals, **counts)


class SaddlepointOracle(OutageOracle):
    """An ``OutageOracle`` whose reads at sigma_k^2 are ``saddlepoint_cdf``'s, uncounted and uncertified
    (where it is None, and at other noise, a counted quadrature), its floors ``margin`` = eps_k/200 up and
    its ``width`` eps_k/100: its band [1 - eps_k + eps_k/200, 1 - eps_k + 3 eps_k/200] is centred in the
    exact band of width eps_k/50.  So ``ray_limit`` is the exact one, certified, plus the margin, and a
    ``hopeless`` give-up on it, which ends ``solve_general`` at its first stage, means that an exact
    descent from the same start gives up; otherwise the exact stage goes on from its last powers."""

    bands = (200, 100)

    def read(self, powers: np.ndarray, k: int, sigma2: float = None) -> tuple:
        if sigma2 is None and (est := saddlepoint_cdf(*rotate(self.minus_form(powers, k)))):
            return est.value, est.abs_error_bound
        return super().read(powers, k, sigma2)


class _LazyProbs:
    """The oracle's probabilities at the powers ``p``.  A value is stale once
    another user's power changed after its evaluation, and reading a stale
    value evaluates (and counts) it at p."""

    def __init__(self, oracle, p: np.ndarray):
        self.oracle, self.p = oracle, p
        self.stale, self.values = np.full(p.size, True), np.full(p.size, np.nan)

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


def _model_root(powers: np.ndarray, k: int, z: float, lin: np.ndarray, cov: np.ndarray,
                sigma2: float, gamma: float):
    """The p_k (others fixed) where the normal model P = Phi((tau - mean) /
    sd) of user k's form is Phi(z), or None: (n0 + n1 c_k)^2 = z^2 sd^2, as
    tau - mean = c . lin - sigma2 and sd^2 = c^T K c (K = cov), c the signed powers."""
    c = -np.asarray(powers, dtype=float)
    c[k] = 0.0
    n0, n1 = float(c @ lin) - sigma2, float(lin[k])
    a, b = n1 * n1 - z * z * float(cov[k, k]), n0 * n1 - z * z * float(cov[k] @ c)
    q = n0 * n0 - z * z * float(c @ cov @ c)
    if (disc := b * b - a * q) < 0.0:
        return None
    half = -(b + math.copysign(math.sqrt(disc), b))  # the roots are half/a and q/half
    roots = [x for x in (half / (a or math.nan), q / (half or math.nan))
             if x > 0.0 and (n0 + n1 * x) * z >= 0.0]
    return gamma * min(roots) if roots else None


def _model_start(oracle: OutageOracle):
    """The moment model's fixed point, uncounted, on moments built here and
    kept nowhere: Gauss-Seidel from p = 0 on ``_model_root`` at aims 1 -
    START_AIM eps_k, for START_ROUNDS rounds or until no power moves by over
    START_RTOL relative; None once a root is missing or the total power
    passes the oracle's ``cap``."""
    # y = G_k^H (x - a_k), b = G_k^H a_k: E|y_j|^2 = lin_j, Cov(|y_i|^2, |y_j|^2) = cov_sq_ij
    r = np.einsum("kli,klj->kij", oracle.g_mats.conj(), oracle.g_mats)
    b = -(oracle.instance.est_channels @ oracle.beamformer.columns).conj()
    lin = np.einsum("kjj->kj", r).real + np.abs(b) ** 2
    cov_sq = np.abs(r) ** 2 + 2.0 * np.real(b.conj()[:, :, None] * r * b[:, None, :])
    z = [NormalDist().inv_cdf(1.0 - START_AIM * e) for e in oracle.qos.epsilon]
    p = np.zeros(len(z))
    for _ in range(START_ROUNDS):
        before = p.copy()
        for k in range(p.size):
            p[k] = _model_root(p, k, z[k], lin[k], cov_sq[k], float(oracle.noise_var[k]),
                               float(oracle.gamma[k])) or np.nan  # a root is positive
            if not np.dot(p, oracle.norms2) <= oracle.cap:
                return None
        if np.all(np.abs(p - before) <= START_RTOL * p):
            break
    return p


def _find_feasible_start(oracle: OutageOracle, p_init: np.ndarray, raise_budget: int = 0):
    """Raise powers until every user meets its probability floor.

    A round stops at its first user below the floor, which the next round
    tests first, so only the passing round and the give-up exit evaluate
    every user.  For the first ``raise_budget`` rounds that user's power
    alone rises (only lowering the others' probabilities) by a Newton step
    on its logit from the value just read, with the uncounted ``slope``,
    toward floor + width/8, to at most 2 p_k; after them all powers double.
    After a doubling, a user first found below its floor gets one
    ``ray_limit``: one below the floor gives up at once.  Returns the
    ``_LazyProbs`` at the last powers, doublings, raises and feasible.  The
    ``cap`` counts on the total power.
    """
    probs = _LazyProbs(oracle, p_init.copy())
    order, doublings, raises, checked = list(range(p_init.size)), 0, 0, set()
    while (k := probs.first_failing(lambda k, q: q >= oracle.floor[k], order)) is not None:
        hopeless = doublings >= MAX_DOUBLINGS or np.dot(probs.p, oracle.norms2) > oracle.cap
        if not hopeless and doublings and k not in checked:
            checked.add(k)
            hopeless = (limit := oracle.ray_limit(probs.p, k)) is not None and limit < oracle.floor[k]
        if hopeless:
            return probs, doublings, raises, False
        order = [k] + [j for j in order if j != k]
        if raises < raise_budget:
            pk, slope = probs.p[k], oracle.slope(probs.p, k)
            x = _newton(pk, probs.values[k], slope, oracle.floor[k] + oracle.width[k] / 8) or math.inf
            probs.p[k], raises = min(x, 2.0 * pk), raises + 1
        else:
            probs.p *= 2.0
            doublings += 1
        probs.stale[:] = True
    return probs, doublings, raises, True


def _logit(q: float):
    """log(q / (1 - q)), or None at q = 0 or 1 (tail shortcuts)."""
    return float(np.log(q / (1.0 - q))) if 0.0 < q < 1.0 else None


def _newton(x: float, q: float, slope, aim: float):
    """A Newton step on logit(prob) from q at x toward aim (d logit / dp =
    slope / (q (1 - q))), or None without a positive slope or at q = 0, 1."""
    if (slope or 0.0) > 0.0 and 0.0 < q < 1.0:
        return x + (_logit(aim) - _logit(q)) * q * (1.0 - q) / slope
    return None


def _bisect_user_power(oracle: OutageOracle, p: np.ndarray, k: int,
                       prob_k_current: float = None):
    """Shrink p[k] into the oracle's band [floor_k, floor_k + width_k].

    Assumes oracle(., k) is increasing in p[k] and the current p[k] feasible;
    the bracket starts at [0, p[k]], and 0 (zero signal power cannot meet a
    positive SINR target) is never evaluated.  The start's probability is
    ``prob_k_current`` or read as the first step.  Probes aim at floor_k +
    width/8: first the chord from (0, 0) to the start's value; then the
    secant of logit(prob) through the last two probes, or the midpoint when
    the secant leaves the bracket, a probability is exactly 0 or 1, or three
    secant probes in a row moved the same end.  Every probe keeps 1e-3 of the
    bracket's width from both ends.  Returns (new_pk, probability, steps).
    """
    floor, width = float(oracle.floor[k]), float(oracle.width[k])
    hi, lo, trial = p[k], 0.0, p.copy()
    prob_hi, steps = prob_k_current, 0
    if prob_hi is None:
        prob_hi, steps = oracle(p, k), 1
    if prob_hi <= floor + width:
        return hi, prob_hi, steps
    # aim at the lower quarter of the band: later coordinate reductions can
    # only raise this probability, so headroom saves whole extra cycles
    aim = floor + 0.125 * width
    last, secant, streak, x = (hi, _logit(prob_hi)), False, 0, hi * aim / prob_hi
    while steps < MAX_BISECT_STEPS:
        x = min(max(x, lo + 1e-3 * (hi - lo)), hi - 1e-3 * (hi - lo))
        trial[k] = x
        pm, steps = oracle(trial, k), steps + 1
        # secant probes in a row that moved the same end (+ hi, - lo)
        streak = (max(streak, 0) + 1 if pm >= floor else min(streak, 0) - 1) if secant else 0
        if pm >= floor:
            hi, prob_hi = x, pm
            if pm <= floor + 0.25 * width:
                break
        else:
            lo = x
        if hi - lo <= 1e-15 * hi:
            # probability jumps across the band; keep the feasible endpoint
            break
        (x0, l0), (x1, l1) = last, (x, _logit(pm))
        last, x, secant = (x1, l1), 0.5 * (lo + hi), False
        if None not in (l0, l1) and l0 != l1 and abs(streak) < 3:
            guess = x1 + (_logit(aim) - l1) * (x1 - x0) / (l1 - l0)
            if lo < guess < hi:
                x, secant = guess, True
    return hi, prob_hi, steps


def _try_jump(oracle: OutageOracle, probs: _LazyProbs, p_prev: np.ndarray,
              totals: list):
    """Extrapolate the last two cycles' drops d0, d1 of the total power
    (``totals`` at the last three cycle starts) geometrically: if rho = d1 / d0
    is in [JUMP_RATIO, 1), to q = p + omega (p - p_prev), omega = JUMP_DAMPING
    rho / (1 - rho) (none if some q_k <= 0), tried once.  q <= p, as searches
    only lower powers; it is accepted when every user, evaluated lazily from
    the lowest last value, meets its floor.  Returns q's _LazyProbs, or None
    and leaves p and probs unchanged."""
    d0, d1 = totals[-3] - totals[-2], totals[-2] - totals[-1]
    if not JUMP_RATIO <= (rho := d1 / d0 if d0 > 0.0 else 0.0) < 1.0:
        return None
    q = probs.p + JUMP_DAMPING * rho / (1.0 - rho) * (probs.p - p_prev)
    if not np.all(q > 0.0):
        return None
    jumped, order = _LazyProbs(oracle, q), np.argsort(probs.values, kind="stable").tolist()
    return jumped if jumped.first_failing(lambda k, v: v >= oracle.floor[k], order) is None else None


def _run_descent(oracle: OutageOracle, start: np.ndarray, raise_budget: int = 0):
    """The shared engine on a fresh oracle (its ``evals`` are the report's):
    start from the caller's powers ``start``, or on the ``init_powers_pcsi``
    ray where it is None; raise to a feasible start (``_find_feasible_start``,
    with ``raise_budget`` single-user raises); then search each user's power
    cyclically into the band of the oracle's ``width``.
    ``infeasible_start_not_found`` means the doubling from that one point met
    the oracle's ``cap`` or ``MAX_DOUBLINGS`` first, or a user's certified
    ray limit is below its floor; no other start is tried.

    Only probabilities a decision reads are evaluated.  The band test reads
    the fresh values first, then evaluates stale users in index order until
    one leaves the band.  A cycle evaluates a stale user just before its
    search (uncounted in ``bisection_steps``) unless an earlier user of the
    cycle moved; then the search reads it as its first step.  Every exit evaluates the users still stale.
    Two cycles after the start or the last accepted jump, a failed band test
    tries ``_try_jump`` before the next cycle; an accepted jump goes back to
    the band test.
    """
    qos, floor, width, n_users = oracle.qos, oracle.floor, oracle.width, oracle.qos.n_users
    if start is None:
        start = init_powers_pcsi(oracle.instance.est_channels, oracle.beamformer, qos,
                                 oracle.instance.noise_var).powers

    probs, doublings, raises, feasible = _find_feasible_start(oracle, start, raise_budget)
    p = probs.p
    bisect_steps = cycles = jumps = 0
    stalled, totals = False, []
    status = SolveStatus.CYCLE_LIMIT if feasible else SolveStatus.INFEASIBLE_START_NOT_FOUND
    while feasible:
        if probs.first_failing(lambda k, q: floor[k] <= q <= floor[k] + width[k],
                               range(n_users)) is None:
            status = SolveStatus.SOLVED
            break
        if stalled or cycles >= MAX_CYCLES:
            break
        totals.append(float(np.dot(p, oracle.norms2)))  # cycle starts since the start or a jump
        if len(totals) >= 3 and (jumped := _try_jump(oracle, probs, p_before, totals)):
            probs, p, jumps, totals = jumped, jumped.p, jumps + 1, []
            continue  # to the band test
        cycles += 1
        p_before, dirty = p.copy(), False
        for k in range(n_users):
            new_pk, prob_k, steps = _bisect_user_power(oracle, p, k, None if dirty else probs[k])
            bisect_steps += steps
            if new_pk != p[k]:
                dirty = True
                probs.stale[:] = True
            p[k] = new_pk
            probs.values[k], probs.stale[k] = prob_k, False
        # a stall: the band is narrower than the achievable power
        # resolution (near-deterministic constraints)
        stalled = np.max(np.abs(p - p_before)) <= 1e-12 * float(np.max(p))

    return oracle.report(status, p, probs.complete(), cycles=cycles, bisection_steps=bisect_steps,
                         doublings=doublings, jumps=jumps, raises=raises)


def solve_general(instance: ScenarioInstance, beamformer: BeamformerMatrix,
                  qos: QoSSpec) -> SolveReport:
    """Coordinate descent against the exact outage probabilities for any fixed directions, in two
    stages, counts summed: a descent on ``SaddlepointOracle`` from ``_model_start`` (the
    PCSI ray where the model has no start), then one exact descent with 2K single-user raises from
    its last powers, whatever its status; or the first stage's certified give-up, with exact
    probabilities.  Until it is feasible the first stage only doubles along its start's ray, on
    which every probability rises (Yates, 1995)."""
    first = _run_descent(saddle := SaddlepointOracle(instance, beamformer, qos), _model_start(saddle))
    if saddle.hopeless:  # then the exact descent gives up from the same start
        return replace(first, per_user_prob_exact=saddle.exact_all(first.powers.powers))
    last = _run_descent(OutageOracle(instance, beamformer, qos), first.powers.powers, 2 * qos.n_users)
    return replace(last, **{name: getattr(first, name) + getattr(last, name) for name in (
        "cycles", "bisection_steps", "doublings", "jumps", "raises", "integral_evals")})
