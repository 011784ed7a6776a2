"""Fast power loading for zero-forcing directions.

With ZF directions the estimated cross-channels vanish, and replacing the
Gaussian linear term of the outage margin by a fixed negative multiple of its
standard deviation (eta) turns the constraint into the CDF of a purely
quadratic form.  That CDF is a rational-integrand contour integral, evaluated
exactly by residues, which removes the numerical integration from the inner
loop.  Two solvers build on it: a feasible coordinate descent identical in
control flow to the general solver, and a cheaper cyclic coordinate update
that freezes each user's spectrum once per cycle and moves toward the
feasible set from a closed-form start.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .descent import DescentConfig, OutageOracle, SolveReport, SolveStatus, _run_descent
from .model import (
    BeamformerMatrix,
    PowerAllocation,
    QoSSpec,
    ScenarioInstance,
    ZF_TOL,
    _signal_interference_matrix,
    build_outage_form,  # noqa: F401 (perfbench/tracing.py wraps this name)
    init_powers_pcsi,
    psd_sqrt,  # noqa: F401 (perfbench/tracing.py wraps this name)
)
from .quadform import GaussianQuadratic, cdf_quadrature, decompose
from .quadform import outage_probability  # noqa: F401 (perfbench/tracing.py wraps it)

__all__ = [
    "ApproximationInapplicable",
    "DegenerateSpectrum",
    "ZfApproxParams",
    "ResidueSpectrum",
    "zf_params",
    "residue_spectrum",
    "residue_probability",
    "solve_zf_coord_descent",
    "coord_update_init",
    "coord_update_step",
    "solve_zf_coord_update",
]

DEFAULT_ETA_MULTIPLE = -1.3
RELATIVE_GAP_TOL = 1e-9
# The coordinate-update fixed point meets the surrogate constraints with
# equality; a hair of slack keeps float noise from costing whole cycles.
FEASIBILITY_SLACK = 1e-6


class ApproximationInapplicable(Exception):
    """1 + eta_k <= 0: the constant-term surrogate has no valid SINR target."""


class DegenerateSpectrum(Exception):
    """Nonzero eigenvalues coincide; the simple-pole residue form is invalid."""


@dataclass(frozen=True)
class ZfApproxParams:
    """Surrogate parameters: eta_k and the inflated targets gamma'_k."""

    eta: np.ndarray
    gamma_prime: np.ndarray
    eta_multiple: float
    r_tilde_norm2: np.ndarray


@dataclass(frozen=True)
class ResidueSpectrum:
    """Descending eigenvalues of the negated quadratic-form matrix, with the
    zero modes masked out and the negative eigenvalue located."""

    eigenvalues: np.ndarray
    nonzero: np.ndarray
    r_index: int


def zf_params(instance: ScenarioInstance, beamformer: BeamformerMatrix,
              qos: QoSSpec,
              eta_multiple: float = DEFAULT_ETA_MULTIPLE) -> ZfApproxParams:
    """Constant surrogate for the Gaussian linear term of each ZF user.

    The linear term has standard deviation 2 ||C^{1/2} b_k||; eta_k is
    eta_multiple times that.  Raises ApproximationInapplicable when
    1 + eta_k <= 0 (callers then revert to the general solver).
    """
    hh = instance.est_channels
    gains = hh @ beamformer.columns
    if np.max(np.abs(gains - np.eye(qos.n_users))) > ZF_TOL:
        raise ValueError("beamformer is not zero-forcing for the estimates")
    r_norm2 = np.empty(qos.n_users)
    for k in range(qos.n_users):
        r_tilde = instance.cov_roots[0][k] @ beamformer.column(k)
        r_norm2[k] = float(np.real(r_tilde.conj() @ r_tilde))
    eta = eta_multiple * 2.0 * np.sqrt(r_norm2)
    if np.any(1.0 + eta <= 0):
        raise ApproximationInapplicable(
            f"1 + eta <= 0 for some user (min eta {eta.min():.4f})")
    return ZfApproxParams(eta=eta, gamma_prime=qos.gamma / (1.0 + eta),
                          eta_multiple=eta_multiple, r_tilde_norm2=r_norm2)


def residue_spectrum(minus_q: np.ndarray) -> ResidueSpectrum:
    """Eigen-data of -Q sorted descending, zero modes thresholded away."""
    lam = np.linalg.eigvalsh(minus_q)[::-1]
    thresh = 1e-12 * max(1.0, float(np.max(np.abs(lam), initial=0.0)))
    nonzero = np.abs(lam) > thresh
    negatives = np.flatnonzero(nonzero & (lam < 0))
    r_index = int(negatives[0]) if negatives.size else -1
    return ResidueSpectrum(eigenvalues=lam, nonzero=nonzero, r_index=r_index)


def _check_distinct(lam_nz: np.ndarray):
    if lam_nz.size < 2:
        return
    for i in range(lam_nz.size - 1):
        a, b = lam_nz[i], lam_nz[i + 1]
        if abs(a - b) <= RELATIVE_GAP_TOL * max(abs(a), abs(b)):
            raise DegenerateSpectrum(f"eigenvalues collide: {a} ~ {b}")


def _residue_terms(lam_nz: np.ndarray, u: float, which: np.ndarray) -> float:
    total = 0.0
    for idx in np.flatnonzero(which):
        lam_l = lam_nz[idx]
        others = np.delete(lam_nz, idx)
        total += -np.exp(-u / lam_l) / np.prod(1.0 - others / lam_l)
    return total


def residue_probability(spectrum: ResidueSpectrum, p_k: float,
                        gamma_prime_k: float, sigma_k2: float) -> float:
    """Exact CDF of the surrogate outage margin by residues.

    The margin is nonnegative with probability
        1 + sum over positive eigenvalues of f_l   if p_k >= gamma'_k s2
        -f at the negative eigenvalue              otherwise,
    with f_l = -exp(-(p_k/gamma'_k - s2)/lam_l) / prod_{j != l}(1 - lam_j/lam_l)
    and products over nonzero eigenvalues only.
    """
    lam_nz = spectrum.eigenvalues[spectrum.nonzero]
    _check_distinct(lam_nz)
    u = p_k / gamma_prime_k - sigma_k2
    if u >= 0.0:
        raw = 1.0 + _residue_terms(lam_nz, u, lam_nz > 0)
    else:
        raw = -_residue_terms(lam_nz, u, lam_nz < 0)
    if raw < -1e-5 or raw > 1.0 + 1e-5:
        raise DegenerateSpectrum(f"residue sum out of range: {raw}")
    return float(min(1.0, max(0.0, raw)))


def _minus_q(instance: ScenarioInstance, beamformer: BeamformerMatrix,
             powers: np.ndarray, gamma_k: float, k: int) -> np.ndarray:
    chalf = instance.cov_roots[0][k]
    a_mat = _signal_interference_matrix(
        beamformer, PowerAllocation(powers=powers), gamma_k, k)
    q = chalf @ a_mat @ chalf
    return -0.5 * (q + q.conj().T)


class _SurrogateOracle(OutageOracle):
    """Surrogate-constraint probabilities, by residues with a quadrature
    fallback on degenerate spectra; ``exact`` keeps the exact ones."""

    def __init__(self, instance: ScenarioInstance, beamformer: BeamformerMatrix,
                 qos: QoSSpec, params: ZfApproxParams, quad_tol: float):
        super().__init__(instance, beamformer, qos, quad_tol)
        self.instance, self.beamformer, self.params = instance, beamformer, params

    def constraint(self, powers: np.ndarray, k: int) -> float:
        mq = _minus_q(self.instance, self.beamformer, powers, float(self.gamma[k]), k)
        spec = residue_spectrum(mq)
        gamma_prime, sigma2 = float(self.params.gamma_prime[k]), float(self.noise_var[k])
        try:
            return residue_probability(spec, float(powers[k]), gamma_prime, sigma2)
        except DegenerateSpectrum:
            u = powers[k] / gamma_prime - sigma2
            gq = GaussianQuadratic(M=mq, z=np.zeros(mq.shape[0]), tau=u)
            return cdf_quadrature(decompose(gq), float(u), tol=self.quad_tol).value


def solve_zf_coord_descent(instance: ScenarioInstance,
                           beamformer: BeamformerMatrix, qos: QoSSpec,
                           config: DescentConfig = None,
                           eta_multiple: float = DEFAULT_ETA_MULTIPLE,
                           p_start: PowerAllocation = None,
                           eta_refine_attempts: int = 0) -> SolveReport:
    """Coordinate descent with the residue surrogate in place of the exact
    integral; the exact probabilities of the returned powers are certified by
    quadrature and reported alongside the surrogate ones.

    ``eta_refine_attempts`` > 0 re-solves with eta tightened by 1.15 whenever
    the exact certification fails, at most that many times.
    """
    config = config or DescentConfig()
    multiple = eta_multiple
    for attempt in range(1 + max(0, eta_refine_attempts)):
        params = zf_params(instance, beamformer, qos, multiple)
        oracle = _SurrogateOracle(instance, beamformer, qos, params, config.quad_tol)
        if p_start is not None:
            p_init, fallback = p_start.powers.copy(), False
        else:
            alloc, fallback = init_powers_pcsi(instance.est_channels, beamformer,
                                               qos, instance.noise_var)
            p_init = alloc.powers
        report = _run_descent(oracle, beamformer, qos, config, p_init, fallback)
        exact = oracle.exact_all(report.powers.powers)
        report.per_user_prob_approx = report.per_user_prob
        report.per_user_prob_exact = exact
        if report.solved and np.all(exact >= 1.0 - qos.epsilon):
            return report
        if attempt == eta_refine_attempts:
            return report
        multiple *= 1.15
    return report


def _single_user_power(gamma_k, gamma_prime_k, sigma_k2, r_norm2, epsilon_k):
    """Exact minimal surrogate-feasible power when there is no interference:
    the margin CDF is a single negative-eigenvalue exponential."""
    denom = gamma_k / gamma_prime_k - r_norm2 * np.log(1.0 - epsilon_k)
    return float(gamma_k * sigma_k2 / denom)


def coord_update_init(instance: ScenarioInstance, beamformer: BeamformerMatrix,
                      qos: QoSSpec,
                      params: ZfApproxParams = None) -> PowerAllocation:
    """Closed-form starting powers: for each user, the equal-power level that
    meets that user's surrogate constraint with equality (not necessarily a
    feasible joint allocation).

    Falls back to gamma_k sigma_k^2 when the closed form has a nonpositive
    denominator or a degenerate spectrum.
    """
    params = params or zf_params(instance, beamformer, qos)
    n = qos.n_users
    sigma2 = instance.noise_var
    p0 = np.empty(n)
    for k in range(n):
        if n == 1:
            p0[k] = _single_user_power(qos.gamma[k], params.gamma_prime[k],
                                       sigma2[k], params.r_tilde_norm2[k],
                                       qos.epsilon[k])
            continue
        mq = _minus_q(instance, beamformer, np.ones(n), float(qos.gamma[k]), k)
        spec = residue_spectrum(mq)
        lam_nz = spec.eigenvalues[spec.nonzero]
        fallback = float(qos.gamma[k] * sigma2[k])
        try:
            _check_distinct(lam_nz)
        except DegenerateSpectrum:
            p0[k] = fallback
            continue
        if lam_nz.size == 0 or lam_nz[0] <= 0:
            p0[k] = _single_user_power(qos.gamma[k], params.gamma_prime[k],
                                       sigma2[k], params.r_tilde_norm2[k],
                                       qos.epsilon[k])
            continue
        lam1 = lam_nz[0]
        prod = np.prod(1.0 - lam_nz[1:] / lam1)
        denom = 1.0 / params.gamma_prime[k] + lam1 * np.log(qos.epsilon[k] * prod)
        p0[k] = sigma2[k] / denom if denom > 0 else fallback
    return PowerAllocation(powers=p0)


def _step_from_spectrum(lam_nz: np.ndarray, gamma_k, gamma_prime_k, sigma_k2,
                        epsilon_k, r_norm2, literal_gamma: bool):
    """One frozen-spectrum coordinate update.

    First tries the small-power branch (negative-eigenvalue tail equation);
    if that root is outside (0, gamma' s2), takes the conservative
    dominant-positive-eigenvalue root and floors it at gamma' s2.
    """
    _check_distinct(lam_nz)
    negatives = np.flatnonzero(lam_nz < 0)
    positives = np.flatnonzero(lam_nz > 0)
    if positives.size == 0:
        return _single_user_power(gamma_k, gamma_prime_k, sigma_k2, r_norm2,
                                  epsilon_k)
    gp_s2 = gamma_prime_k * sigma_k2
    if negatives.size:
        lam_r = lam_nz[negatives[0]]
        others = np.delete(lam_nz, negatives[0])
        prod_r = np.prod(1.0 - others / lam_r)
        p_tilde = gp_s2 - gamma_prime_k * lam_r * np.log((1.0 - epsilon_k) * prod_r)
        if 0.0 < p_tilde < gp_s2:
            return float(p_tilde)
    lam1 = lam_nz[positives[0]]
    others = np.delete(lam_nz, positives[0])
    prod_1 = np.prod(1.0 - others / lam1)
    g = gamma_k if literal_gamma else gamma_prime_k
    p_breve = g * sigma_k2 - g * lam1 * np.log(epsilon_k * prod_1)
    return float(max(p_breve, gp_s2))


def coord_update_step(instance: ScenarioInstance, beamformer: BeamformerMatrix,
                      qos: QoSSpec, p_prev_cycle: PowerAllocation, k: int,
                      params: ZfApproxParams = None,
                      literal_gamma: bool = False) -> float:
    """Coordinate update for user k with the spectrum frozen at the previous
    cycle's powers."""
    params = params or zf_params(instance, beamformer, qos)
    mq = _minus_q(instance, beamformer, p_prev_cycle.powers,
                  float(qos.gamma[k]), k)
    spec = residue_spectrum(mq)
    lam_nz = spec.eigenvalues[spec.nonzero]
    try:
        return _step_from_spectrum(
            lam_nz, float(qos.gamma[k]), float(params.gamma_prime[k]),
            float(instance.noise_var[k]), float(qos.epsilon[k]),
            float(params.r_tilde_norm2[k]), literal_gamma)
    except DegenerateSpectrum:
        oracle = _SurrogateOracle(instance, beamformer, qos, params, 1e-8)
        return _bisect_min_feasible(oracle, instance, qos, p_prev_cycle.powers, k)


def _bisect_min_feasible(prob, instance, qos, powers, k, band=1e-3):
    """Minimal feasible power for coordinate k under the oracle ``prob`` by
    doubling then bisection (fallback path for degenerate frozen spectra)."""
    floor = 1.0 - float(qos.epsilon[k])
    trial = powers.copy()
    hi = max(float(qos.gamma[k] * instance.noise_var[k]), trial[k], 1e-12)
    for _ in range(80):
        trial[k] = hi
        if prob(trial, k) >= floor:
            break
        hi *= 2.0
    else:
        return hi
    lo = 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        trial[k] = mid
        pm = prob(trial, k)
        if pm >= floor:
            hi = mid
            if pm <= floor + band:
                break
        else:
            lo = mid
    return hi


def solve_zf_coord_update(instance: ScenarioInstance,
                          beamformer: BeamformerMatrix, qos: QoSSpec,
                          i_max: int = 50,
                          eta_multiple: float = DEFAULT_ETA_MULTIPLE,
                          quad_tol: float = 1e-8,
                          literal_gamma: bool = False) -> SolveReport:
    """Cyclic coordinate updates from the closed-form start until the
    surrogate constraints all hold (or i_max cycles elapse).

    Iterates are not kept feasible; each cycle freezes every user's spectrum
    at the previous cycle's powers, so a cycle costs one eigendecomposition
    per user.  Exact probabilities of the final powers are certified by
    quadrature and reported alongside the surrogate ones.
    """
    t0 = time.perf_counter()
    params = zf_params(instance, beamformer, qos, eta_multiple)
    prob = _SurrogateOracle(instance, beamformer, qos, params, quad_tol)
    n = qos.n_users
    sigma2 = instance.noise_var
    floor = 1.0 - qos.epsilon

    p = coord_update_init(instance, beamformer, qos, params).powers.copy()
    probs = np.array([prob(p, k) for k in range(n)])
    cycles = 0
    bisect_steps = 0
    while not np.all(probs >= floor - FEASIBILITY_SLACK) and cycles < i_max:
        cycles += 1
        p_prev = p.copy()
        spectra = []
        for k in range(n):
            mq = _minus_q(instance, beamformer, p_prev, float(qos.gamma[k]), k)
            spec = residue_spectrum(mq)
            spectra.append(spec.eigenvalues[spec.nonzero])
        for k in range(n):
            try:
                p[k] = _step_from_spectrum(
                    spectra[k], float(qos.gamma[k]), float(params.gamma_prime[k]),
                    float(sigma2[k]), float(qos.epsilon[k]),
                    float(params.r_tilde_norm2[k]), literal_gamma)
            except DegenerateSpectrum:
                before = prob.evals
                p[k] = _bisect_min_feasible(prob, instance, qos, p_prev, k)
                bisect_steps += prob.evals - before
        probs = np.array([prob(p, k) for k in range(n)])
        if np.max(np.abs(p - p_prev)) <= 1e-12 * max(1.0, float(np.max(p))):
            break  # fixed point reached at float resolution

    feasible = bool(np.all(probs >= floor - FEASIBILITY_SLACK))
    if feasible:
        # the fixed point meets the constraints with equality; scaling all
        # powers up strictly raises every probability (relatively less
        # noise), so a few tiny nudges make feasibility strict
        for _ in range(50):
            if np.all(probs >= floor):
                break
            p *= 1.0 + 4e-6
            probs = np.array([prob(p, k) for k in range(n)])
        feasible = bool(np.all(probs >= floor))
    alloc = PowerAllocation(powers=p)
    exact = prob.exact_all(p)
    return SolveReport(
        status=SolveStatus.SOLVED if feasible else SolveStatus.CYCLE_LIMIT,
        powers=alloc, per_user_prob=probs, per_user_prob_exact=exact,
        total_power=alloc.total_power(beamformer), cycles=cycles,
        bisection_steps=bisect_steps, integral_evals=prob.evals,
        wall_time=time.perf_counter() - t0, init_fallback=False,
        per_user_prob_approx=probs.copy())
