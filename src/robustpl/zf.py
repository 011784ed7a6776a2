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

import numpy as np

from .descent import (DescentConfig, OutageOracle, SolveReport, SolveStatus,
                      _bisect_user_power, _run_descent)
from .model import (
    BeamformerMatrix,
    PowerAllocation,
    QoSSpec,
    ScenarioInstance,
    ZF_TOL,
    build_outage_form,  # noqa: F401 (perfbench/tracing.py wraps this name)
    psd_sqrt,  # noqa: F401 (perfbench/tracing.py wraps this name)
)
from .quadform import EigenSpectrum, cdf_quadrature
from .quadform import outage_probability  # noqa: F401 (perfbench/tracing.py wraps it)

__all__ = [
    "ApproximationInapplicable",
    "DegenerateSpectrum",
    "residue_spectrum",
    "residue_probability",
    "SurrogateOracle",
    "solve_zf_coord_descent",
    "solve_zf_coord_update",
]

DEFAULT_ETA_MULTIPLE = -1.3
RELATIVE_GAP_TOL = 1e-9
# The coordinate-update fixed point meets the surrogate constraints with
# equality; a hair of slack keeps float noise from costing whole cycles.
FEASIBILITY_SLACK = 1e-6
FALLBACK_DELTA = DescentConfig().delta_min  # band of the degenerate-spectrum step


class ApproximationInapplicable(Exception):
    """1 + eta_k <= 0: the constant-term surrogate has no valid SINR target."""


class DegenerateSpectrum(Exception):
    """Nonzero eigenvalues coincide; the simple-pole residue form is invalid."""


def residue_spectrum(minus_q: np.ndarray) -> np.ndarray:
    """The nonzero eigenvalues of -Q, descending; zero modes are those below
    1e-12 of the largest magnitude (``cdf_quadrature``'s threshold)."""
    lam = np.linalg.eigvalsh(minus_q)[::-1]
    thresh = 1e-12 * max(1.0, float(np.max(np.abs(lam), initial=0.0)))
    return lam[np.abs(lam) > thresh]


def _residue_weights(lam_nz: np.ndarray) -> np.ndarray:
    """prod_{j != l} (1 - lam_j / lam_l) for every l of the descending
    nonzero eigenvalues; raises DegenerateSpectrum when two of them collide."""
    scale = np.maximum(np.abs(lam_nz[:-1]), np.abs(lam_nz[1:]))
    close = np.abs(np.diff(lam_nz)) <= RELATIVE_GAP_TOL * scale
    if np.any(close):
        i = int(np.argmax(close))
        raise DegenerateSpectrum(f"eigenvalues collide: {lam_nz[i]} ~ {lam_nz[i + 1]}")
    ratios = 1.0 - lam_nz[None, :] / lam_nz[:, None]
    np.fill_diagonal(ratios, 1.0)
    return np.prod(ratios, axis=1)


def residue_probability(lam_nz: np.ndarray, p_k: float,
                        gamma_prime_k: float, sigma_k2: float) -> float:
    """Exact CDF of the surrogate outage margin by residues.

    The margin is nonnegative with probability
        1 + sum over positive eigenvalues of f_l   if p_k >= gamma'_k s2
        -f at the negative eigenvalue              otherwise,
    with f_l = -exp(-(p_k/gamma'_k - s2)/lam_l) / prod_{j != l}(1 - lam_j/lam_l)
    and products over the nonzero eigenvalues lam_nz (``residue_spectrum``).
    """
    weights = _residue_weights(lam_nz)
    u = p_k / gamma_prime_k - sigma_k2
    # only the selected sign is exponentiated: exp(-u / lam) of the other
    # sign can overflow
    which = lam_nz > 0 if u >= 0.0 else lam_nz < 0
    total = sum(np.exp(-u / lam_nz[which]) / weights[which])
    raw = 1.0 - total if u >= 0.0 else total
    if raw < -1e-5 or raw > 1.0 + 1e-5:
        raise DegenerateSpectrum(f"residue sum out of range: {raw}")
    return float(min(1.0, max(0.0, raw)))


def _single_user_power(gamma_k, gamma_prime_k, sigma_k2, r_norm2, epsilon_k):
    """Exact minimal surrogate-feasible power when there is no interference:
    the margin CDF is a single negative-eigenvalue exponential."""
    denom = gamma_k / gamma_prime_k - r_norm2 * np.log(1.0 - epsilon_k)
    return float(gamma_k * sigma_k2 / denom)


def _step_from_spectrum(lam_nz: np.ndarray, gamma_k, gamma_prime_k, sigma_k2,
                        epsilon_k, r_norm2, literal_gamma: bool):
    """One frozen-spectrum coordinate update.

    First tries the small-power branch (negative-eigenvalue tail equation);
    if that root is outside (0, gamma' s2), takes the conservative
    dominant-positive-eigenvalue root and floors it at gamma' s2.
    """
    weights = _residue_weights(lam_nz)
    negatives = np.flatnonzero(lam_nz < 0)
    positives = np.flatnonzero(lam_nz > 0)
    if positives.size == 0:
        return _single_user_power(gamma_k, gamma_prime_k, sigma_k2, r_norm2,
                                  epsilon_k)
    gp_s2 = gamma_prime_k * sigma_k2
    if negatives.size:
        lam_r, w_r = lam_nz[negatives[0]], weights[negatives[0]]
        p_tilde = gp_s2 - gamma_prime_k * lam_r * np.log((1.0 - epsilon_k) * w_r)
        if 0.0 < p_tilde < gp_s2:
            return float(p_tilde)
    lam1, w1 = lam_nz[positives[0]], weights[positives[0]]
    g = gamma_k if literal_gamma else gamma_prime_k
    p_breve = g * sigma_k2 - g * lam1 * np.log(epsilon_k * w1)
    return float(max(p_breve, gp_s2))


class SurrogateOracle(OutageOracle):
    """The residue surrogate of one ZF (instance, beamformer, qos) on the
    oracle's cached per-user data.

    ``eta`` is eta_multiple times 2 ||C_k^{1/2} b_k|| (``r_norm2`` is the
    squared norm), the standard deviation of the margin's linear term, and
    ``gamma_prime`` = gamma / (1 + eta).  Raises ValueError for directions
    that are not ZF for the estimates, and ApproximationInapplicable when
    1 + eta_k <= 0.  ``constraint`` is the surrogate probability by residues
    on the spectrum of -Q = -G_k diag(c) G_k^H, or by quadrature on the same
    eigenvalues (the rotated centre is zero) when they collide; ``report``
    certifies the returned powers with ``exact_all``.
    """

    def __init__(self, instance: ScenarioInstance, beamformer: BeamformerMatrix,
                 qos: QoSSpec, eta_multiple: float = DEFAULT_ETA_MULTIPLE,
                 quad_tol: float = 1e-8):
        super().__init__(instance, beamformer, qos, quad_tol)
        if np.max(np.abs(self.hb - np.eye(qos.n_users))) > ZF_TOL:
            raise ValueError("beamformer is not zero-forcing for the estimates")
        self.r_norm2 = np.empty(qos.n_users)
        for k in range(qos.n_users):
            r_tilde = instance.cov_roots[0][k] @ beamformer.column(k)
            self.r_norm2[k] = float(np.real(r_tilde.conj() @ r_tilde))
        self.eta = eta_multiple * 2.0 * np.sqrt(self.r_norm2)
        if np.any(1.0 + self.eta <= 0):
            raise ApproximationInapplicable(
                f"1 + eta <= 0 for some user (min eta {self.eta.min():.4f})")
        self.gamma_prime = qos.gamma / (1.0 + self.eta)
        self.epsilon = qos.epsilon

    def spectrum(self, powers: np.ndarray, k: int) -> np.ndarray:
        return residue_spectrum(self.q_matrix(-self.signed_powers(powers, k), k))

    def constraint(self, powers: np.ndarray, k: int) -> float:
        lam_nz = self.spectrum(powers, k)
        gamma_prime, sigma2 = float(self.gamma_prime[k]), float(self.noise_var[k])
        try:
            return residue_probability(lam_nz, float(powers[k]), gamma_prime, sigma2)
        except DegenerateSpectrum:
            centred = EigenSpectrum(eigenvalues=lam_nz, z_tilde=np.zeros(lam_nz.size))
            u = float(powers[k] / gamma_prime - sigma2)
            return cdf_quadrature(centred, u, tol=self.quad_tol).value

    def start(self) -> PowerAllocation:
        """Closed-form start: per user, the equal-power level meeting its
        surrogate constraint with equality, or gamma_k sigma_k^2 when the
        closed form has a nonpositive denominator or a degenerate spectrum."""
        n, sigma2 = self.gamma.size, self.noise_var
        p0 = self.gamma * sigma2  # the fallback
        for k in range(n):
            lam_nz = self.spectrum(np.ones(n), k)
            try:
                weights = _residue_weights(lam_nz)
            except DegenerateSpectrum:
                continue
            if lam_nz.size == 0 or lam_nz[0] <= 0:
                p0[k] = _single_user_power(self.gamma[k], self.gamma_prime[k],
                                           sigma2[k], self.r_norm2[k],
                                           self.epsilon[k])
                continue
            denom = (1.0 / self.gamma_prime[k]
                     + lam_nz[0] * np.log(self.epsilon[k] * weights[0]))
            if denom > 0:
                p0[k] = sigma2[k] / denom
        return PowerAllocation(powers=p0)

    def step(self, p_frozen: np.ndarray, k: int, literal_gamma: bool) -> float:
        """User k's update with the spectrum frozen at p_frozen; on a
        degenerate spectrum, p[k] doubles from max(gamma_k sigma_k^2, p[k])
        until the counted constraint holds, then bisects into the band
        [1 - eps_k, 1 - eps_k + FALLBACK_DELTA]."""
        lam_nz = self.spectrum(p_frozen, k)
        epsilon_k = float(self.epsilon[k])
        try:
            return _step_from_spectrum(
                lam_nz, float(self.gamma[k]), float(self.gamma_prime[k]),
                float(self.noise_var[k]), epsilon_k, float(self.r_norm2[k]),
                literal_gamma)
        except DegenerateSpectrum:
            pass
        trial = p_frozen.copy()
        trial[k] = max(float(self.gamma[k] * self.noise_var[k]), trial[k], 1e-12)
        for _ in range(80):
            prob = self(trial, k)
            if prob >= 1.0 - epsilon_k:
                return _bisect_user_power(self, trial, k, FALLBACK_DELTA,
                                          epsilon_k, prob)[0]
            trial[k] *= 2.0
        return float(trial[k])

    def report(self, status, beamformer, p, probs, t0, **counts) -> SolveReport:
        exact = self.exact_all(p)  # before the base report reads the clock
        result = super().report(status, beamformer, p, probs, t0, **counts)
        result.per_user_prob_exact = exact
        return result


def solve_zf_coord_descent(instance: ScenarioInstance,
                           beamformer: BeamformerMatrix, qos: QoSSpec,
                           config: DescentConfig = None,
                           eta_multiple: float = DEFAULT_ETA_MULTIPLE,
                           p_start: PowerAllocation = None) -> SolveReport:
    """Coordinate descent with the residue surrogate in place of the exact
    integral; the exact probabilities of the returned powers are certified by
    quadrature and reported alongside the surrogate ones.
    """
    config = config or DescentConfig()
    oracle = SurrogateOracle(instance, beamformer, qos, eta_multiple, config.quad_tol)
    return _run_descent(oracle, instance, beamformer, qos, config, p_start)


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
    prob = SurrogateOracle(instance, beamformer, qos, eta_multiple, quad_tol)
    n = qos.n_users
    floor = 1.0 - qos.epsilon

    p = prob.start().powers
    probs = np.array([prob(p, k) for k in range(n)])
    cycles = 0
    bisect_steps = 0
    while not np.all(probs >= floor - FEASIBILITY_SLACK) and cycles < i_max:
        cycles += 1
        p_prev = p.copy()
        before = prob.evals  # only degenerate-spectrum fallbacks evaluate
        for k in range(n):
            p[k] = prob.step(p_prev, k, literal_gamma)
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
    status = SolveStatus.SOLVED if feasible else SolveStatus.CYCLE_LIMIT
    return prob.report(status, beamformer, p, probs, t0, cycles=cycles,
                       bisection_steps=bisect_steps)
