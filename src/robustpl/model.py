"""Downlink system model: channels, estimates, beamformers, SINR, and the
quadratic-form view of the per-user outage constraint."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

HERMITIAN_TOL = 1e-12
ZF_TOL = 1e-9
MAX_NEWTON_STEPS = 10_000  # iteration budget of build_pcsi_directions


class SingularChannel(Exception):
    """Estimated channel Gram matrix is numerically singular."""


class Diverged(Exception):
    """An iterative solve found no root: infeasible, or out of iterations."""


def db_to_linear(x_db):
    return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)


def complex_normal(rng: np.random.Generator, *shape) -> np.ndarray:
    """Standard circular complex Gaussian samples, CN(0, 1) per entry."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class QoSSpec:
    """Per-user SINR targets (linear) and outage tolerances."""

    gamma: np.ndarray
    epsilon: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gamma", np.atleast_1d(np.asarray(self.gamma, dtype=float)))
        object.__setattr__(self, "epsilon", np.atleast_1d(np.asarray(self.epsilon, dtype=float)))
        if self.gamma.shape != self.epsilon.shape:
            raise ValueError("gamma and epsilon must have matching shapes")
        if not np.all(self.gamma > 0):
            raise ValueError("SINR targets must be positive")
        if not np.all((self.epsilon > 0) & (self.epsilon < 1)):
            raise ValueError("outage tolerances must lie in (0, 1)")

    @classmethod
    def from_db(cls, gamma_db, epsilon, n_users: int) -> "QoSSpec":
        gamma = np.full(n_users, db_to_linear(gamma_db), dtype=float)
        eps = np.full(n_users, float(epsilon))
        return cls(gamma=gamma, epsilon=eps)

    @property
    def n_users(self) -> int:
        return self.gamma.size


@dataclass(frozen=True)
class ScenarioInstance:
    """One simulated draw: true channels, estimates, error covariances, noise.

    Row k of ``true_channels`` / ``est_channels`` is the conjugated channel
    vector h_k^H / its estimate.  ``error_cov[k]`` is the Hermitian positive
    definite covariance of the estimation error for user k: its smallest
    eigenvalue must exceed 1e-12 times its largest.
    """

    true_channels: np.ndarray
    est_channels: np.ndarray
    error_cov: np.ndarray
    noise_var: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.true_channels, dtype=complex)
        hh = np.asarray(self.est_channels, dtype=complex)
        cov = np.asarray(self.error_cov, dtype=complex)
        nv = np.atleast_1d(np.asarray(self.noise_var, dtype=float))
        object.__setattr__(self, "true_channels", h)
        object.__setattr__(self, "est_channels", hh)
        object.__setattr__(self, "error_cov", cov)
        object.__setattr__(self, "noise_var", nv)
        k, nt = h.shape
        if hh.shape != (k, nt):
            raise ValueError("true and estimated channels must share a shape")
        if cov.shape != (k, nt, nt):
            raise ValueError(f"error_cov must have shape ({k}, {nt}, {nt})")
        if nv.shape != (k,):
            raise ValueError("noise_var must have one entry per user")
        for name, x in (("true_channels", h), ("est_channels", hh), ("error_cov", cov), ("noise_var", nv)):
            if not np.all(np.isfinite(x)):
                raise ValueError(f"{name} must be finite")
        if not np.all(nv > 0):
            raise ValueError("noise variances must be positive")
        if cov.size:  # one Hermitian check and one stacked eigvalsh over the users
            scale = max(1.0, float(np.max(np.abs(cov))))
            if np.max(np.abs(cov - cov.conj().swapaxes(-1, -2))) > HERMITIAN_TOL * scale:
                raise ValueError("error covariance is not Hermitian")
            if not np.all((w := eigvalsh(cov))[:, 0] > 1e-12 * w[:, -1]):
                raise ValueError("error covariance is not positive definite")

    @property
    def n_users(self) -> int:
        return self.true_channels.shape[0]

    @property
    def n_tx(self) -> int:
        return self.true_channels.shape[1]

    @cached_property
    def cov_roots(self) -> tuple:
        """Read-only stacks (C_k^{1/2}, C_k^{-1/2}) over the users, computed
        once per instance: ``error_cov`` must not change in place after."""
        roots = psd_sqrt(self.error_cov), psd_inv_sqrt(self.error_cov)
        roots[0].flags.writeable = roots[1].flags.writeable = False
        return roots


@dataclass(frozen=True)
class BeamformerMatrix:
    """Fixed (unnormalized) transmit directions, one column per user."""

    columns: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.columns, dtype=complex)
        object.__setattr__(self, "columns", b)
        if b.ndim != 2:
            raise ValueError("beamformer matrix must be two-dimensional")
        if np.any(np.linalg.norm(b, axis=0) == 0):
            raise ValueError("beamformer columns must be nonzero")


@dataclass(frozen=True)
class PowerAllocation:
    """Nonnegative per-user transmit powers for fixed directions."""

    powers: np.ndarray

    def __post_init__(self):
        p = np.atleast_1d(np.asarray(self.powers, dtype=float))
        object.__setattr__(self, "powers", p)
        if np.any(p < 0):
            raise ValueError("powers must be nonnegative")
        if not np.all(np.isfinite(p)):
            raise ValueError("powers must be finite")


def generate_rayleigh_channels(n_tx: int, n_users: int, rng_seed) -> np.ndarray:
    """i.i.d. Rayleigh-fading channel rows, CN(0, 1) entries."""
    if n_tx < 1 or n_users < 1:
        raise ValueError("n_tx and n_users must be at least 1")
    rng = _as_rng(rng_seed)
    return complex_normal(rng, n_users, n_tx)


def uplink_error_variance(sigma2_bs: float, l_ut: int, p_ut: float) -> float:
    """Estimation error variance from orthogonal uplink training."""
    if sigma2_bs <= 0 or l_ut < 1 or p_ut <= 0:
        raise ValueError("uplink training needs sigma2_bs > 0, L_ut >= 1 and P_ut > 0")
    return sigma2_bs / (sigma2_bs + l_ut * p_ut)


def draw_estimate(true_channels: np.ndarray, sigma_e2: float, rng: np.random.Generator):
    """(est_channels, error_cov) with est = true + error, the error drawn
    i.i.d. CN(0, sigma_e^2 I) per user from rng, and error_cov[k] = sigma_e^2 I."""
    h = np.asarray(true_channels, dtype=complex)
    k, nt = h.shape
    est = h + np.sqrt(sigma_e2) * complex_normal(rng, k, nt)
    return est, np.broadcast_to(sigma_e2 * np.eye(nt), (k, nt, nt)).copy()


def build_zf(est_channels: np.ndarray) -> BeamformerMatrix:
    """Zero-forcing directions for the estimated channels: B = H^H (H H^H)^-1."""
    return build_rci(est_channels, 0.0)


def build_rci(est_channels: np.ndarray, alpha: float) -> BeamformerMatrix:
    """Regularized channel inversion directions: B = H^H (H H^H + alpha I)^-1."""
    if alpha < 0:
        raise ValueError("regularization must be nonnegative")
    hh = np.asarray(est_channels, dtype=complex)
    k = hh.shape[0]
    gram = hh @ hh.conj().T + alpha * np.eye(k)
    if alpha == 0 and np.linalg.cond(gram) > 1e12:
        raise SingularChannel("estimated channel Gram matrix is ill conditioned")
    return BeamformerMatrix(columns=hh.conj().T @ np.linalg.inv(gram))


def build_pcsi_directions(est_channels: np.ndarray, qos: QoSSpec) -> BeamformerMatrix:
    """Optimal fixed directions when the estimates are treated as exact.

    Solves the power-minimization problem through its Lagrange dual, the
    virtual uplink (Rashid-Farrokhi, Tassiulas & Liu 1998; Wiesel, Eldar &
    Shamai 2006): find q > 0 with F(q) = q o d - gamma / (1 + gamma) = 0,
    d_i = h_i^H R^-1 h_i and R = I + sum_j q_j h_j h_j^H, which the noise
    does not enter; direction k is R^-1 h_k, normalized.  Damped Newton from
    q = 1: one solve of R against H^H gives M_ij = h_i^H R^-1 h_j and the
    Jacobian J = diag(d) - diag(q) |M|^2.  The step -J^-1 F is halved while
    any q_k <= 0; it stops when the step is below 1e-12 relative to q, or
    below 1e-8 and no longer shrinking.  J q = q o e, e_i = ||R^-1 h_i||^2,
    so the unit noise's share e_i / d_i is J's margin; an infeasible uplink
    drives it to 0.  Raises Diverged when a share falls below 1.5e-8
    (~sqrt(eps); one user's share at the root is 1 / (1 + gamma)), when no
    step above eps keeps q > 0, or after MAX_NEWTON_STEPS iterations.
    """
    hh = np.asarray(est_channels, dtype=complex)
    k, nt = hh.shape
    ratio = qos.gamma / (1.0 + qos.gamma)
    q, last = np.ones(k), np.inf
    for _ in range(MAX_NEWTON_STEPS):
        x = np.linalg.solve(np.eye(nt) + (hh.conj().T * q) @ hh, hh.conj().T)
        m = hh @ x
        d, norms = m.diagonal().real, np.linalg.norm(x, axis=0)
        if not np.all(norms ** 2 >= 1.5e-8 * d):
            raise Diverged("virtual uplink infeasible: noise share below 1.5e-8")
        step = np.linalg.solve(np.diag(d) - q[:, None] * np.abs(m) ** 2, ratio - q * d)
        rel = np.max(np.abs(step) / q)
        if rel < 1e-12 or last <= rel < 1e-8:
            break
        t, last = 1.0, rel
        while np.any(q + t * step <= 0):
            t *= 0.5
            if t < np.finfo(float).eps:
                raise Diverged("virtual uplink Newton step has no positive damping")
        q = q + t * step
    else:
        raise Diverged("virtual uplink iteration did not converge")
    return BeamformerMatrix(columns=x / norms)


def sinr(channel_row: np.ndarray, beamformer: BeamformerMatrix,
         allocation: PowerAllocation, sigma_k2: float, k: int) -> float:
    """SINR of user k for a given channel row (conjugated channel vector)."""
    g2 = np.abs(np.asarray(channel_row) @ beamformer.columns) ** 2
    p = allocation.powers
    signal = g2[k] * p[k]
    interference = float(np.dot(g2, p) - signal)
    return float(signal / (interference + sigma_k2))


def mc_probability(instance: ScenarioInstance, beamformer: BeamformerMatrix,
                   allocation: PowerAllocation, qos: QoSSpec, k: int,
                   n_samples: int, rng_seed) -> tuple:
    """Monte Carlo estimate of Pr(SINR_k >= gamma_k) over the estimation
    error, with the true channel reconstructed as h_k^H = est_k^H - e_k^H.

    Returns (hit frequency, its binomial standard error); the standard error
    is not a certified bound.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    rng = _as_rng(rng_seed)
    chalf = instance.cov_roots[0][k]
    est_row = instance.est_channels[k]
    b, p = beamformer.columns, allocation.powers
    gamma_k, sigma_k2 = float(qos.gamma[k]), float(instance.noise_var[k])

    hits, remaining, chunk = 0, int(n_samples), 262_144
    while remaining > 0:
        n = min(chunk, remaining)
        delta = complex_normal(rng, n, instance.n_tx)
        err_rows_h = (delta @ chalf.T).conj()  # rows e_k^H
        rows = est_row[None, :] - err_rows_h
        g2 = np.abs(rows @ b) ** 2
        signal = g2[:, k] * p[k]
        interference = g2 @ p - signal
        hits += int(np.count_nonzero(signal >= gamma_k * (interference + sigma_k2)))
        remaining -= n
    freq = hits / n_samples
    return freq, float(np.sqrt(freq * (1.0 - freq) / n_samples))


def eigh(a: np.ndarray) -> tuple:
    """``np.linalg.eigh(a)`` bit for bit, by numpy's private ``numpy.linalg._umath_linalg`` gufunc
    without its wrapper; raises LinAlgError on any NaN eigenvalue (no convergence, or an inf in a)."""
    w, v = _umath_linalg.eigh_lo(a, signature="D->dD" if a.dtype.kind == "c" else "d->dd")
    return _no_nan(w), v


def eigvalsh(a: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvalsh(a)`` bit for bit, by ``numpy.linalg._umath_linalg`` as ``eigh`` is; like
    numpy's, it can return finite eigenvalues for a NaN on a's diagonal, so check a first."""
    return _no_nan(_umath_linalg.eigvalsh_lo(a, signature="D->d" if a.dtype.kind == "c" else "d->d"))


def _no_nan(w: np.ndarray) -> np.ndarray:  # vdot(w, w) >= 0 fails only on a NaN in w
    if not np.vdot(w, w) >= 0:
        raise LinAlgError("Eigenvalues did not converge")
    return w


def psd_sqrt(c: np.ndarray) -> np.ndarray:
    """Principal Hermitian PSD square root, negative eigenvalues clamped to 0;
    of a (K, n, n) stack, each matrix's from one ``eigh`` call."""
    w, v = eigh(np.asarray(c, dtype=complex))
    return (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ v.conj().swapaxes(-1, -2)


def psd_inv_sqrt(c: np.ndarray) -> np.ndarray:
    """Principal inverse square root C^{-1/2} of a Hermitian positive definite
    C, as ``ScenarioInstance`` admits; of a (K, n, n) stack, each matrix's."""
    w, v = eigh(np.asarray(c, dtype=complex))
    return (v * (1.0 / np.sqrt(w))[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _signal_interference_matrix(beamformer: BeamformerMatrix,
                                allocation: PowerAllocation,
                                gamma_k: float, k: int) -> np.ndarray:
    """(p_k / gamma_k) b_k b_k^H  -  sum_{j != k} p_j b_j b_j^H."""
    b = beamformer.columns
    p = allocation.powers
    bk = b[:, k]
    a = (p[k] / gamma_k) * np.outer(bk, bk.conj())
    mask = np.ones(p.size, dtype=bool)
    mask[k] = False
    bbar = b[:, mask]
    return a - (bbar * p[mask]) @ bbar.conj().T


def build_outage_form(instance: ScenarioInstance, beamformer: BeamformerMatrix,
                      allocation: PowerAllocation, qos: QoSSpec, k: int) -> tuple:
    """User k's outage form (-Q, a, tau) at the given powers, built from
    scratch (``OutageOracle.minus_form`` reads the same tuple from its cache).
    With A = ``_signal_interference_matrix`` and the normalized error delta ~
    CN(0, I), the SINR margin is delta^H Q delta + 2 Re(delta^H r) + v, Q =
    C_k^{1/2} A C_k^{1/2}, r = C_k^{1/2} A h_k = -Q a, v = h_k^H A h_k -
    sigma_k^2, a = -C_k^{-1/2} h_k: it is tau - (delta - a)^H (-Q) (delta - a)
    with tau = v - a^H Q a."""
    sqrt_c, inv_sqrt_c = instance.cov_roots
    chalf, cinvhalf = sqrt_c[k], inv_sqrt_c[k]
    hk = instance.est_channels[k].conj()
    a_mat = _signal_interference_matrix(beamformer, allocation, qos.gamma[k], k)
    q = chalf @ a_mat @ chalf
    q = 0.5 * (q + q.conj().T)
    v = float(np.real(hk.conj() @ a_mat @ hk)) - float(instance.noise_var[k])
    a = -cinvhalf @ hk
    return -q, a, v - float(np.real(a.conj() @ q @ a))


def init_powers_pcsi(est_channels: np.ndarray, beamformer: BeamformerMatrix,
                     qos: QoSSpec, noise_var) -> PowerAllocation:
    """Powers that meet the SINR targets exactly if the estimates were the
    truth.

    Solves the K x K balance system with diagonal |h_k^H b_k|^2 / gamma_k and
    off-diagonal -|h_k^H b_i|^2 against the noise vector.  Returns the
    decoupled values gamma_k sigma_k^2 instead when the system is ill
    conditioned (condition number above 1e12), the solve fails or it yields
    a nonpositive or non-finite power.
    """
    hh = np.asarray(est_channels, dtype=complex)
    k = hh.shape[0]
    nv = np.broadcast_to(np.asarray(noise_var, dtype=float), (k,))
    g2 = np.abs(hh @ beamformer.columns) ** 2
    mat = -g2.copy()
    np.fill_diagonal(mat, g2.diagonal() / qos.gamma)
    try:
        p = None if np.linalg.cond(mat) > 1e12 else np.linalg.solve(mat, nv)
    except np.linalg.LinAlgError:
        p = None
    if p is None or np.any(p <= 0) or not np.all(np.isfinite(p)):
        p = qos.gamma * nv
    return PowerAllocation(powers=p)
