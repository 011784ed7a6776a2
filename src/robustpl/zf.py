"""Fast power loading for zero-forcing directions.

With ZF directions the estimated cross-channels vanish, and replacing the
Gaussian linear term of the outage margin by a fixed negative multiple of its
standard deviation (eta) turns the constraint into the CDF of a purely
quadratic form.  That CDF is a rational-integrand contour integral, evaluated
exactly by residues, which removes the numerical integration from the inner
loop.  Two solvers build on it: a feasible coordinate descent identical in
control flow to the general solver, and a cheaper cyclic coordinate update
that moves toward the feasible set from a closed-form start, freezing
every user's spectrum once per cycle with one stacked eigendecomposition.
"""

from __future__ import annotations

import time

import numpy as np

from .descent import (MAX_CYCLES, OutageOracle, SolveReport, SolveStatus, _LazyProbs,
                      _bisect_user_power, _run_descent)
from .model import (BeamformerMatrix, PowerAllocation, QoSSpec, ScenarioInstance,
                    ZF_TOL, eigvalsh)
from .model import build_outage_form, psd_sqrt  # noqa: F401 (perfbench/tracing.py wraps them)
from .quadform import QUAD_TOL, cdf_quadrature, zero_mode_threshold
from .quadform import outage_probability  # noqa: F401 (perfbench/tracing.py wraps it)

__all__ = ["ApproximationInapplicable", "DegenerateSpectrum", "residue_spectrum",
           "residue_probability", "SurrogateOracle", "solve_zf_coord_descent",
           "solve_zf_coord_update"]

DEFAULT_ETA_MULTIPLE = -1.3
RELATIVE_GAP_TOL = 1e-9
ROUNDING_TOL = QUAD_TOL / 10  # residue rounding allowance: see residue_probability
EPS = 2.0 ** -52
# Each closed-form step aims at outage eps_k (1 - FEASIBILITY_SLACK), a hair above
# the floor (1e-6 at eps_k = 0.05), so that the coordinate-update fixed point meets
# the floor itself; relative, the aim stays positive for every eps_k in (0, 1).
FEASIBILITY_SLACK = 2e-5


class ApproximationInapplicable(Exception):
    """1 + eta_k <= 0: the constant-term surrogate has no valid SINR target."""


class DegenerateSpectrum(Exception):
    """Nonzero eigenvalues coincide; the simple-pole residue form is invalid."""


def residue_spectrum(minus_q: np.ndarray):
    """The nonzero eigenvalues of -Q, descending: those above
    ``zero_mode_threshold``, as in ``cdf_quadrature``.  Of a (K, n, n)
    stack, the list of the K matrices' spectra from one ``eigvalsh`` call
    (LAPACK's per-matrix results are those of single calls)."""
    lam = eigvalsh(minus_q).tolist()
    return [_nonzero(row) for row in lam] if np.ndim(minus_q) > 2 else _nonzero(lam)


def _nonzero(lam: list) -> np.ndarray:  # residue_spectrum's filter, on ascending lam
    thresh = zero_mode_threshold(lam)
    return np.array([x for x in lam[::-1] if abs(x) > thresh])


def _check_separated(lam: list):
    """Raise DegenerateSpectrum when two neighbours of the descending
    nonzero eigenvalues lam (floats) collide."""
    for a, b in zip(lam, lam[1:]):
        if abs(b - a) <= RELATIVE_GAP_TOL * max(abs(a), abs(b)):
            raise DegenerateSpectrum(f"eigenvalues collide: {a} ~ {b}")


def _residue_weight(lam: list, lam_l: float) -> tuple:
    """w_l = prod_{j != l} (1 - r_jl) and kappa_l = sum_{j != l} |r_jl / (1 -
    r_jl)|, r_jl = lam_j / lam_l, over the others of the separated lam."""
    w, kappa = 1.0, 0.0
    for lam_j in lam:
        if lam_j != lam_l:
            r = lam_j / lam_l
            w *= 1.0 - r
            kappa += abs(r / (1.0 - r))
    return w, kappa


def _certified_weight(lam: list, lam_l: float) -> float:
    """w_l of ``_residue_weight``, or DegenerateSpectrum when its relative
    rounding error, up to eps (m + kappa_l), exceeds ROUNDING_TOL."""
    w, kappa = _residue_weight(lam, lam_l)
    if EPS * (len(lam) + kappa) > ROUNDING_TOL:
        raise DegenerateSpectrum(f"weight rounding error up to {EPS * (len(lam) + kappa):.3g}")
    return w


def residue_probability(lam_nz: np.ndarray, p_k: float,
                        gamma_prime_k: float, sigma_k2: float) -> float:
    """Exact CDF of the surrogate outage margin by residues.

    The margin is nonnegative with probability
        1 + sum over positive eigenvalues of f_l   if p_k >= gamma'_k s2
        -f at the negative eigenvalue              otherwise,
    with f_l = -exp(-(p_k/gamma'_k - s2)/lam_l) / prod_{j != l}(1 - lam_j/lam_l)
    and products over the m nonzero eigenvalues lam_nz (``residue_spectrum``).

    Near a collision the terms t_l = exp(-u/lam_l) / w_l grow and cancel.
    With eps = 2^-52, t_l errs relatively by at most eps/2 |u/lam_l| (from
    u/lam_l), eps (``np.exp``), eps/2 (1 + |r_jl/(1 - r_jl)|) per factor of
    w_l and eps/2 per product and quotient (m - 1 in all), in sum eps (m +
    |u/lam_l| + kappa_l) (``_residue_weight``).  Summing adds (m - 1) eps/2
    sum |t_l|: the sum errs by less than eps sum_l |t_l| (2m + |u/lam_l| +
    kappa_l) to first order, 1 - sum by eps/2 more.  Above ROUNDING_TOL
    this raises DegenerateSpectrum, as do collisions and a sum out of [0, 1].
    """
    lam = lam_nz.tolist()
    _check_separated(lam)
    u = p_k / gamma_prime_k - sigma_k2
    # only the selected sign is exponentiated: exp(-u / lam) of the other
    # sign can overflow
    which = [x for x in lam if (x > 0 if u >= 0.0 else x < 0)]
    total = bound = 0.0
    for lam_l, e in zip(which, np.exp([-u / x for x in which]).tolist()):
        w, kappa = _residue_weight(lam, lam_l)
        t = e / w
        total += t
        bound += abs(t) * (2 * len(lam) + abs(u / lam_l) + kappa)
    if EPS * bound > ROUNDING_TOL:
        raise DegenerateSpectrum(f"residue sum rounding error up to {EPS * bound:.3g}")
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
                        epsilon_k, r_norm2):
    """One frozen-spectrum coordinate update, at gamma' = gamma / (1 + eta).

    First tries the small-power branch (negative-eigenvalue tail equation);
    if that root is outside (0, gamma' s2), takes the conservative
    dominant-positive-eigenvalue root and floors it at gamma' s2.  Raises
    DegenerateSpectrum on colliding eigenvalues or an uncertified weight.
    """
    lam = lam_nz.tolist()
    _check_separated(lam)
    if not lam or lam[0] <= 0:  # no positive eigenvalue
        return _single_user_power(gamma_k, gamma_prime_k, sigma_k2, r_norm2,
                                  epsilon_k)
    gp_s2 = gamma_prime_k * sigma_k2
    if lam[-1] < 0:
        lam_r = next(x for x in lam if x < 0)
        w_r = _certified_weight(lam, lam_r)
        p_tilde = gp_s2 - gamma_prime_k * lam_r * np.log((1.0 - epsilon_k) * w_r)
        if 0.0 < p_tilde < gp_s2:
            return float(p_tilde)
    w_1 = _certified_weight(lam, lam[0])
    p_breve = gp_s2 - gamma_prime_k * lam[0] * np.log(epsilon_k * w_1)
    return float(max(p_breve, gp_s2))


class SurrogateOracle(OutageOracle):
    """The residue surrogate of one ZF (instance, beamformer, qos) on the
    oracle's cached per-user data.

    ``eta`` is eta_multiple times 2 ||C_k^{1/2} b_k|| (``r_norm2`` is the
    squared norm), the standard deviation of the margin's linear term, and
    ``gamma_prime`` = gamma / (1 + eta).  Raises ValueError for directions
    that are not ZF for the estimates, and ApproximationInapplicable when
    1 + eta_k <= 0.  It overrides only ``read``, which calls and the
    inherited ``ray_limit`` go through: the counted surrogate probability by
    residues on the spectrum of -Q = -G_k diag(c) G_k^H, or by quadrature on
    the same eigenvalues (the rotated centre is zero) when they collide or
    the residue sum's rounding bound exceeds ROUNDING_TOL; ``report``
    certifies the returned powers with ``exact_all``.  ``spectra``
    decomposes every user at one power vector in one stacked call, kept
    (``last_read``) for ``spectrum`` at those powers; other reads decompose
    one matrix.  Its solvers choose its start: ``solve_zf_coord_descent``
    the PCSI ray, ``solve_zf_coord_update`` the closed-form ``start``.
    """

    def __init__(self, instance: ScenarioInstance, beamformer: BeamformerMatrix,
                 qos: QoSSpec, eta_multiple: float = DEFAULT_ETA_MULTIPLE):
        super().__init__(instance, beamformer, qos)
        if np.max(np.abs(instance.est_channels @ beamformer.columns - np.eye(qos.n_users))) > ZF_TOL:
            raise ValueError("beamformer is not zero-forcing for the estimates")
        r_tilde = [g[:, k] for k, g in enumerate(self.g_mats)]  # C_k^{1/2} b_k
        self.r_norm2 = np.array([float(np.real(r.conj() @ r)) for r in r_tilde])
        self.eta = eta_multiple * 2.0 * np.sqrt(self.r_norm2)
        if np.any(1.0 + self.eta <= 0):
            raise ApproximationInapplicable(
                f"1 + eta <= 0 for some user (min eta {self.eta.min():.4f})")
        self.gamma_prime = qos.gamma / (1.0 + self.eta)
        self.last_read = (None, None)  # (powers.tobytes(), their spectra)

    def spectra(self, powers: np.ndarray) -> list:
        if powers.tobytes() != self.last_read[0]:
            self.last_read = powers.tobytes(), residue_spectrum(self.minus_qs(powers))
        return self.last_read[1]

    def spectrum(self, powers: np.ndarray, k: int) -> np.ndarray:
        if powers.tobytes() == self.last_read[0]:
            return self.last_read[1][k]
        return residue_spectrum(self.minus_form(powers, k)[0])

    def read(self, powers: np.ndarray, k: int, sigma2: float = None) -> tuple:
        self.evals += 1
        sigma2 = float(self.noise_var[k]) if sigma2 is None else sigma2
        lam_nz, gamma_prime = self.spectrum(powers, k), float(self.gamma_prime[k])
        try:
            return residue_probability(lam_nz, float(powers[k]), gamma_prime, sigma2), ROUNDING_TOL
        except DegenerateSpectrum:
            est = cdf_quadrature((lam_nz, np.zeros(lam_nz.size)),
                                 float(powers[k] / gamma_prime - sigma2), self.tol[k])
            return est.value, est.abs_error_bound

    def start(self) -> PowerAllocation:
        """Closed-form start: per user, the equal-power level meeting its
        surrogate constraint with equality, or gamma_k sigma_k^2 when the
        closed form has a nonpositive denominator or a degenerate spectrum."""
        n, sigma2, epsilon = self.gamma.size, self.noise_var, self.qos.epsilon
        p0 = self.gamma * sigma2  # the fallback
        for k, lam_nz in enumerate(self.spectra(np.ones(n))):
            lam = lam_nz.tolist()
            try:
                _check_separated(lam)
                w_1 = _certified_weight(lam, lam[0]) if lam and lam[0] > 0 else None
            except DegenerateSpectrum:
                continue
            if w_1 is None:
                p0[k] = _single_user_power(self.gamma[k], self.gamma_prime[k],
                                           sigma2[k], self.r_norm2[k], epsilon[k])
                continue
            denom = 1.0 / self.gamma_prime[k] + lam[0] * np.log(epsilon[k] * w_1)
            if denom > 0:
                p0[k] = sigma2[k] / denom
        return PowerAllocation(powers=p0)

    def step(self, p_frozen: np.ndarray, k: int) -> float:
        """User k's closed-form update at ``gamma_prime[k]`` with the spectrum
        frozen at p_frozen, its root aimed at outage eps_k (1 -
        FEASIBILITY_SLACK), a hair above the floor.  On a degenerate spectrum,
        p[k] doubles from max(gamma_k sigma_k^2, p[k]) until the counted
        constraint holds, then bisects into the oracle's band [1 - eps_k,
        1 - eps_k + width_k], or gives up once the total power passes
        ``cap`` and returns that p[k] unevaluated."""
        lam_nz = self.spectrum(p_frozen, k)
        epsilon_k = float(self.qos.epsilon[k])
        try:
            return _step_from_spectrum(
                lam_nz, float(self.gamma[k]), float(self.gamma_prime[k]), float(self.noise_var[k]),
                epsilon_k * (1.0 - FEASIBILITY_SLACK), float(self.r_norm2[k]))
        except DegenerateSpectrum:
            pass
        trial = p_frozen.copy()
        trial[k] = max(float(self.gamma[k] * self.noise_var[k]), trial[k])
        for _ in range(80):
            if np.dot(trial, self.norms2) > self.cap:
                break
            prob = self(trial, k)
            if prob >= 1.0 - epsilon_k:
                return _bisect_user_power(self, trial, k, prob)[0]
            trial[k] *= 2.0
        return float(trial[k])

    def report(self, status, p, probs, t0, **counts) -> SolveReport:
        exact = self.exact_all(p)  # before the base report reads the clock
        result = super().report(status, p, probs, t0, **counts)
        result.per_user_prob_exact = exact
        return result


def solve_zf_coord_descent(instance: ScenarioInstance,
                           beamformer: BeamformerMatrix, qos: QoSSpec,
                           eta_multiple: float = DEFAULT_ETA_MULTIPLE) -> SolveReport:
    """Coordinate descent with the residue surrogate in place of the exact
    integral; the exact probabilities of the returned powers are certified by
    quadrature and reported alongside the surrogate ones.  The descent starts
    on the perfect-CSI ray (``init_powers_pcsi``), without single-user raises.
    """
    return _run_descent(SurrogateOracle(instance, beamformer, qos, eta_multiple), None)


def solve_zf_coord_update(instance: ScenarioInstance,
                          beamformer: BeamformerMatrix, qos: QoSSpec,
                          eta_multiple: float = DEFAULT_ETA_MULTIPLE) -> SolveReport:
    """Cyclic coordinate updates (``SurrogateOracle.step``, each root at
    gamma' = gamma / (1 + eta), aimed a hair above the floor) from the
    closed-form start until every surrogate probability meets its floor
    1 - eps_k, MAX_CYCLES cycles (the descent's cap) elapse, or the total
    power passes the oracle's ``cap``; no scaling follows the loop.  Ending
    above the cap infeasible reports DIVERGED (an update with no fixed point
    drives the powers without bound).

    Iterates are not kept feasible; each cycle freezes every user's spectrum
    at the previous cycle's powers, so each power vector costs one stacked
    eigendecomposition, read by the feasibility test at it and shared with
    the next cycle's steps.  Exact probabilities of the final powers are
    certified by quadrature and reported alongside the surrogate ones.
    """
    t0 = time.perf_counter()
    prob = SurrogateOracle(instance, beamformer, qos, eta_multiple)
    n, floor = qos.n_users, prob.floor

    p = prob.start().powers
    probs = _LazyProbs(prob, p)

    def meets() -> bool:  # evaluates users only up to the first below its floor
        prob.spectra(p)  # one stacked read, which the next cycle's steps share
        return probs.first_failing(lambda k, q: q >= floor[k], range(n)) is None

    cycles = bisect_steps = 0
    while not meets() and cycles < MAX_CYCLES and np.dot(p, prob.norms2) <= prob.cap:
        cycles += 1
        p_prev = p.copy()
        before = prob.evals  # only degenerate-spectrum fallbacks evaluate
        for k in range(n):
            p[k] = prob.step(p_prev, k)
        bisect_steps += prob.evals - before
        probs.stale[:] = True
        if np.max(np.abs(p - p_prev)) <= 1e-12 * float(np.max(p)):
            break  # fixed point reached at float resolution

    status = (SolveStatus.SOLVED if meets()
              else SolveStatus.DIVERGED if np.dot(p, prob.norms2) > prob.cap
              else SolveStatus.CYCLE_LIMIT)
    return prob.report(status, p, probs.complete(), t0, cycles=cycles,
                       bisection_steps=bisect_steps)
