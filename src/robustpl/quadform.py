"""CDF of Hermitian quadratic forms of standard complex Gaussian vectors.

Evaluates Pr(||x - z||^2_M <= tau) for x ~ CN(0, I) through the contour
integral of the moment generating function,

    (1/2pi) int  e^{tau s} / s * e^{-c(s)} / det(I + s M)  d omega,
    s = beta + i omega,   c(s) = sum_m |z_m|^2 s lam_m / (1 + s lam_m),

taken over a vertical line with I + beta M positive definite.  The value is
independent of the admissible offset beta; numerically the offset is placed at
the minimizer of the integrand magnitude on the real axis (the magnitude along
the contour peaks at omega = 0, so this choice minimizes cancellation).

Placement is a safeguarded Newton iteration in log(beta) (pole-adjusted for
indefinite M) from the two-moment saddle point, usually two or three
derivative evaluations.  The integrand needs no complex logarithms: it is
exp(tau s - c(s) - g0) / (s prod_m (1 + s lam_m)), g0 the log magnitude at
omega = 0, with c(s) in the s lam / (1 + s lam) form that does not cancel
for large sum |z_m|^2; logs are summed only where that could overflow.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .model import (
    BeamformerMatrix,
    PowerAllocation,
    QoSSpec,
    QuadraticOutageForm,
    ScenarioInstance,
    complex_normal,
    psd_sqrt,  # noqa: F401 (perfbench/tracing.py wraps this name)
)

__all__ = [
    "GaussianQuadratic",
    "EigenSpectrum",
    "ProbabilityEstimate",
    "EvalMethod",
    "ToleranceNotMet",
    "decompose",
    "cdf_quadrature",
    "outage_probability",
    "mc_probability",
]


class ToleranceNotMet(Exception):
    """Quadrature could not certify the requested tolerance.

    Carries the best available ``estimate`` (a ProbabilityEstimate with its
    achieved error bound).
    """

    def __init__(self, message: str, estimate: "ProbabilityEstimate"):
        super().__init__(message)
        self.estimate = estimate


class EvalMethod(enum.Enum):
    QUADRATURE = "quadrature"
    MONTE_CARLO = "monte_carlo"


@dataclass(frozen=True)
class GaussianQuadratic:
    """The triple (M, z, tau) defining Pr(||x - z||^2_M <= tau)."""

    M: np.ndarray
    z: np.ndarray
    tau: float

    def __post_init__(self):
        m = np.asarray(self.M, dtype=complex)
        z = np.asarray(self.z, dtype=complex)
        object.__setattr__(self, "M", m)
        object.__setattr__(self, "z", z)
        scale = max(1.0, float(np.max(np.abs(m)))) if m.size else 1.0
        if np.max(np.abs(m - m.conj().T)) > 1e-12 * scale:
            raise ValueError("M must be Hermitian")


@dataclass(frozen=True)
class EigenSpectrum:
    """Eigen-data of M plus a default admissible contour offset."""

    eigenvalues: np.ndarray
    z_tilde: np.ndarray
    beta: float


@dataclass(frozen=True)
class ProbabilityEstimate:
    value: float
    abs_error_bound: float
    method: EvalMethod
    raw_value: float = None

    def __post_init__(self):
        if self.raw_value is None:
            object.__setattr__(self, "raw_value", self.value)
        object.__setattr__(self, "value", float(min(1.0, max(0.0, self.value))))


def decompose(form: GaussianQuadratic) -> EigenSpectrum:
    """Eigendecomposition with eigenvalues sorted descending; the stored beta
    is an admissible default (1 for PSD M, else half the distance to the
    pole at 1/|lam_min|)."""
    lam, vecs = np.linalg.eigh(form.M)
    order = np.argsort(lam)[::-1]
    lam = lam[order]
    vecs = vecs[:, order]
    z_tilde = vecs.conj().T @ form.z
    lam_min = float(lam.min()) if lam.size else 0.0
    beta = 1.0 if lam_min >= 0 else 0.5 / abs(lam_min)
    return EigenSpectrum(eigenvalues=lam, z_tilde=z_tilde, beta=beta)


# ---------------------------------------------------------------------------
# contour placement


def _log_mag(beta, lam, zt2, tau, log_weight=1.0):
    """log of the integrand magnitude on the real axis (omega = 0); with
    ``log_weight`` 0 the 1/s factor is left out (the Chernoff exponent)."""
    total = tau * beta - log_weight * math.log(beta)
    for l, z in zip(lam, zt2):
        bl = beta * l
        total -= z * bl / (1.0 + bl) + math.log1p(bl)
    return total


def _log_mag_parts(beta, lam, zt2, tau, log_weight):
    """(u, du, v, dv, curv): d _log_mag / d log(beta) = u - v with u, v > 0
    (u takes tau*beta if tau > 0 and the negative-eigenvalue terms, v the
    rest), the derivatives of u and v, and beta^2 d^2 _log_mag / d beta^2."""
    tb = tau * beta
    u, du = (tb, tb) if tau > 0 else (0.0, 0.0)
    v, dv = (log_weight - tb, -tb) if tau < 0 else (log_weight, 0.0)
    curv = log_weight
    for l, z in zip(lam, zt2):
        t = beta * l
        q = 1.0 / (1.0 + t)
        a = t * q
        aq = a * q
        w = z * aq + a
        dw = (z * (1.0 - t) * q + 1.0) * aq
        curv += a * a * (1.0 + 2.0 * z * q)
        if l > 0:
            v += w
            dv += dw
        else:
            u -= w
            du -= dw
    return u, du, v, dv, curv


def _pick_beta(lam, zt2, tau, log_weight=1.0):
    """Minimizer of the (strictly convex) _log_mag over admissible offsets.

    Newton on H = log(u / v) (see _log_mag_parts; its slope stays bounded
    where u - v flattens out) in xi = log(beta / (1 - beta/cap)), cap =
    1/|lam_min| the pole, from the positive root of the two-moment expansion
    s2 b^2 + (tau - mu) b - log_weight = 0.  The sign of u - v keeps a
    bracket; a step leaving it bisects it, or moves by 2 while it is open.
    A loose tolerance suffices: the integral is beta-independent, and any
    admissible beta gives a valid Chernoff bound.
    """
    lam_min = min(lam)
    cap = -1.0 / lam_min if lam_min < 0 else math.inf
    beta_cap = (1.0 - 1e-9) * cap

    def xi_of(beta):
        return math.log(beta) - math.log1p(-beta / cap)

    def beta_of(xi):
        e = math.exp(min(xi, 700.0))
        return e / (1.0 + e / cap)

    mu = sum((1.0 + z) * l for l, z in zip(lam, zt2))
    s2 = sum((1.0 + 2.0 * z) * l * l for l, z in zip(lam, zt2))
    b = tau - mu
    root = math.sqrt(b * b + 4.0 * log_weight * s2)
    start = 2.0 * log_weight / (b + root) if b > 0 else (root - b) / (2.0 * s2)
    xi_cap = xi_of(beta_cap) if lam_min < 0 else math.inf
    lo, hi = -math.inf, xi_cap
    xi = xi_of(min(start, 0.5 * cap))
    for _ in range(100):
        beta = beta_of(xi)
        u, du, v, dv, _ = _log_mag_parts(beta, lam, zt2, tau, log_weight)
        if u > v:
            hi = xi
        elif xi >= xi_cap:
            return beta_cap
        else:
            lo = xi
        slope = (du / u - dv / v) * (1.0 - beta / cap) if u > 0 else 0.0
        step = (max(-50.0, min(-math.log(u / v) / slope, 50.0)) if slope > 0
                else math.copysign(math.inf, v - u))
        new = xi + step
        if abs(step) <= 1e-3 and new <= hi:
            return beta_of(new)
        if not lo < new < hi:
            if math.isinf(hi):
                new = xi + 2.0
            elif hi == xi_cap and new >= hi:
                new = xi_cap  # the minimizer may sit at the clamp: test it
            elif math.isinf(lo):
                new = xi - 2.0
            else:
                new = 0.5 * (lo + hi)
        xi = new
    return beta_of(xi)


# ---------------------------------------------------------------------------
# batched Gauss-Kronrod panels

_GK_X = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_GK_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_GK_WG = np.zeros(15)
_GK_WG[1::2] = [0.129484966168870, 0.279705391489277, 0.381830050505119,
                0.417959183673469, 0.381830050505119, 0.279705391489277,
                0.129484966168870]


def _panel_rule(f, a, b):
    """Vectorized 15-point Kronrod / 7-point Gauss rule on panels.

    ``a``, ``b`` are arrays of panel endpoints; returns (K15, |K15-G7|,
    integral of |f|) per panel.
    """
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = mid[:, None] + half[:, None] * _GK_X[None, :]
    vals = f(nodes.ravel()).reshape(nodes.shape)
    k15 = half * (vals @ _GK_WK)
    g7 = half * (vals @ _GK_WG)
    resabs = half * (np.abs(vals) @ _GK_WK)
    return k15, np.abs(k15 - g7), resabs


def _integrate_adaptive(f, edges, target, max_segments=16384, max_rounds=48):
    """Globally adaptive panel integration of f over consecutive ``edges``.

    Returns (value, error_bound, resabs, converged).
    """
    a = edges[:-1].copy()
    b = edges[1:].copy()
    k15, err, resabs = _panel_rule(f, a, b)
    for _ in range(max_rounds):
        total_err = float(err.sum())
        floor = 50 * np.finfo(float).eps * float(resabs.sum())
        if total_err <= max(target, floor):
            break
        if a.size >= max_segments:
            break
        share = max(target, floor) / (2.0 * a.size)
        split = err > share
        if not split.any():
            break
        keep = ~split
        mids = 0.5 * (a[split] + b[split])
        new_a = np.concatenate([a[keep], a[split], mids])
        new_b = np.concatenate([b[keep], mids, b[split]])
        kk, ee, rr = _panel_rule(f, np.concatenate([a[split], mids]),
                                 np.concatenate([mids, b[split]]))
        k15 = np.concatenate([k15[keep], kk])
        err = np.concatenate([err[keep], ee])
        resabs = np.concatenate([resabs[keep], rr])
        a, b = new_a, new_b
    total_err = float(err.sum())
    floor = 50 * np.finfo(float).eps * float(resabs.sum())
    bound = max(total_err, floor)
    return float(k15.sum()), bound, float(resabs.sum()), total_err <= max(target, floor)


def _chernoff_log(lam, zt2, tau):
    """log of the Chernoff bound on Pr(Y <= tau), Y the quadratic form with
    eigenvalues lam and noncentrality |z_m|^2.

    Minimizes h(beta) = tau*beta - c(beta) - sum log(1+beta*lam) over the
    admissible beta > 0; h(0) = 0, so the bound never exceeds 1, and any
    admissible beta yields a valid bound, so a loose minimization suffices.
    The right tail follows from the same helper with (lam, tau) negated.
    """
    if tau >= sum((1.0 + z) * l for l, z in zip(lam, zt2)):
        return 0.0  # h'(0) = tau - mu >= 0: the minimum is h(0)
    b = _pick_beta(lam, zt2, tau, log_weight=0.0)
    return _log_mag(b, lam, zt2, tau, log_weight=0.0)


_HEAD = np.array([0.0, 1 / 32, 1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0])


def _vertical_cut(beta, lam, zt2, tau, g0, target, sigma):
    """Truncation point for a purely vertical contour: beyond it

        |f(omega)| <= exp(tau*beta - Re c(Omega) - g0) / (omega^(r+1) prod|lam|)

    integrates below ``target``.  Uses monotonicity of Re c in omega; scalar
    arithmetic, since r <= a few and the cut is usually within 8 doublings."""
    terms = [(l, z, 1.0 + beta * l) for l, z in zip(lam, zt2)]
    r = len(terms)
    log_amp = tau * beta - g0 - sum(math.log(abs(l)) for l, _, _ in terms)
    log_target = np.log(target) + math.log(r)
    omega = 8.0 * sigma
    for _ in range(400):
        re_c = 0.0
        for l, z, bl1 in terms:
            ol = omega * l
            re_c += z * (1.0 - bl1 / (bl1 * bl1 + ol * ol))
        if log_amp - re_c - r * math.log(omega) <= log_target:
            return omega
        omega *= 2.0
    return omega


def _integrand(s, lam, zt2, tau, g0):
    """exp(tau s - c(s) - g0) / (s prod_m (1 + s lam_m)) at the nodes ``s``.

    |exp(tau s - c(s) - g0)| <= beta prod(1 + beta lam) on the vertical line
    (e^5 more on the ray), and both that and |s prod(1 + s lam)| are at most
    |s| prod(1 + |s||lam|); where that could overflow, logs are summed."""
    sl = s[:, None] * lam
    one_sl = 1.0 + sl
    expo = tau * s - np.sum(zt2 * (sl / one_sl), axis=1) - g0
    s_max = float(np.max(np.abs(s)))
    log_bound = math.log(s_max) + sum(math.log1p(s_max * abs(l)) for l in lam)
    if log_bound < 600.0:  # exp() and the product stay finite
        return np.exp(expo) / (s * np.prod(one_sl, axis=1))
    return np.exp(expo - np.sum(np.log(one_sl), axis=1) - np.log(s))


def cdf_quadrature(spectrum: EigenSpectrum, tau: float, tol: float = 1e-8,
                   beta: float = None, strict: bool = True) -> ProbabilityEstimate:
    """Adaptive quadrature of the contour integral to absolute tolerance tol.

    Exploits conjugate symmetry to integrate (1/pi) int_0^inf Re F(beta+iw) dw.
    When ``beta`` is None the offset is placed at the magnitude-minimizing
    admissible point.  Raises ToleranceNotMet (carrying the estimate) when the
    budget cannot certify tol and ``strict`` is set.
    """
    lam_all = np.asarray(spectrum.eigenvalues, dtype=float)
    zt2_all = np.abs(np.asarray(spectrum.z_tilde)) ** 2
    tau = float(tau)

    thresh = 1e-12 * max(1.0, float(np.max(np.abs(lam_all), initial=0.0)))
    keep = (np.abs(lam_all) > thresh) | (zt2_all * np.abs(lam_all) > thresh)
    lam = lam_all[keep]
    zt2 = zt2_all[keep]

    def _exact(value):
        return ProbabilityEstimate(value=value, abs_error_bound=0.0,
                                   method=EvalMethod.QUADRATURE)

    if lam.size == 0:
        return _exact(1.0 if tau >= 0 else 0.0)
    if lam.min() >= 0 and tau <= 0:
        return _exact(0.0)
    if lam.max() <= 0 and tau >= 0:
        return _exact(1.0)

    # Chernoff bounds on both tails: they certify deep-tail values directly
    # and guarantee the remaining quadrature cases sit within a few standard
    # deviations of the bulk, where the contour integrand is mildly behaved.
    lam_l, zt2_l = lam.tolist(), zt2.tolist()
    log_left = _chernoff_log(lam_l, zt2_l, tau)
    if log_left <= np.log(tol / 4.0):
        return ProbabilityEstimate(value=0.0, abs_error_bound=float(np.exp(log_left)),
                                   method=EvalMethod.QUADRATURE, raw_value=0.0)
    log_right = _chernoff_log([-l for l in lam_l], zt2_l, -tau)
    if log_right <= np.log(tol / 4.0):
        return ProbabilityEstimate(value=1.0, abs_error_bound=float(np.exp(log_right)),
                                   method=EvalMethod.QUADRATURE, raw_value=1.0)

    if beta is None:
        beta = _pick_beta(lam_l, zt2_l, tau)
    else:
        if beta <= 0 or np.any(1.0 + beta * lam <= 0):
            raise ValueError("contour offset must keep I + beta*M positive definite")
    g0 = _log_mag(beta, lam_l, zt2_l, tau)

    def vertical_integrand(omega):
        return _integrand(beta + 1j * omega, lam, zt2, tau, g0).real

    scale = np.exp(g0) / np.pi
    tail_target = (tol / 10.0) / scale
    quad_target = (tol / 2.0) / scale
    sigma = beta / math.sqrt(_log_mag_parts(beta, lam_l, zt2_l, tau, 1.0)[4])

    # A 45-degree ray into the upper half-plane (poles are all real, so the
    # integrand is analytic there) turns the oscillatory tail into one that
    # decays like exp(-|tau| t).  Along the ray from beta + i*Omega the c-term
    # can add at most sum_m |z_m|^2 / (|lam_m| Omega) to the log magnitude, so
    # the ray is well conditioned only when that growth is small; otherwise
    # the saturation of Re c makes the plain vertical cut cheap instead.
    use_ray = False
    ray_skip_tail = None
    if tau != 0.0:
        omega_sw = 16.0 * sigma
        corner = complex(beta, omega_sw)
        # log magnitude at the corner plus the growth bound along the ray
        amp_log = tau * beta - g0 - math.log(abs(corner))
        for l, z in zip(lam_l, zt2_l):
            cl = corner * l
            amp_log -= z * (cl / (1.0 + cl)).real + math.log(abs(1.0 + cl))
            amp_log += z / (abs(l) * omega_sw)
        # tail of the ray bound integrated from t: sqrt(2) e^{amp_log-|tau|t}/|tau|
        full_ray_tail_log = amp_log + 0.5 * np.log(2.0) - np.log(abs(tau))
        if full_ray_tail_log <= np.log(tail_target):
            ray_skip_tail = np.exp(full_ray_tail_log)
        elif amp_log <= 5.0:
            use_ray = True

    if tau != 0.0 and ray_skip_tail is not None:
        # everything beyond the switch point is below the tail budget already
        raw_sum, err_sum, _resabs, converged = _integrate_adaptive(
            vertical_integrand, omega_sw * _HEAD, quad_target)
        tail_bound = scale * ray_skip_tail
    elif use_ray:
        raw_v, err_v, _res_v, conv_v = _integrate_adaptive(
            vertical_integrand, omega_sw * _HEAD, quad_target / 2.0)
        d = -np.sign(tau) + 1j

        def ray_integrand(t):
            return (-1j * d * _integrand(corner + t * d, lam, zt2, tau, g0)).real

        t_max = max((amp_log + 0.5 * np.log(2.0) - np.log(abs(tau))
                     - np.log(tail_target / 2.0)) / abs(tau), 4.0 / abs(tau))
        edges = [0.0, min(t_max, 0.25 / abs(tau))]
        while edges[-1] < t_max:
            edges.append(min(2.0 * edges[-1], t_max))
        raw_r, err_r, _res_r, conv_r = _integrate_adaptive(
            ray_integrand, np.asarray(edges), quad_target / 2.0)
        raw_sum = raw_v + raw_r
        err_sum = err_v + err_r
        converged = conv_v and conv_r
        tail_bound = tol / 10.0
    else:
        # vertical contour with geometric panels out to the analytic
        # polynomial tail bound (Re c monotone in omega)
        omega_max = _vertical_cut(beta, lam_l, zt2_l, tau, g0, tail_target, sigma)
        edges = [0.0, 0.5 * sigma]
        while edges[-1] < omega_max:
            edges.append(min(2.0 * edges[-1], omega_max))
        raw_sum, err_sum, _resabs, converged = _integrate_adaptive(
            vertical_integrand, np.asarray(edges), quad_target)
        tail_bound = tol / 10.0

    raw = scale * raw_sum
    bound = scale * err_sum + tail_bound
    estimate = ProbabilityEstimate(value=raw, abs_error_bound=bound,
                                   method=EvalMethod.QUADRATURE, raw_value=raw)
    if strict and (not converged or bound > tol):
        raise ToleranceNotMet(
            f"quadrature certified only {bound:.3e} > tol {tol:.3e}", estimate)
    return estimate


def outage_probability(form: QuadraticOutageForm, tol: float = 1e-8,
                       strict: bool = True) -> ProbabilityEstimate:
    """Probability that the SINR target is met, Pr(SINR_k >= gamma_k),
    evaluated as the CDF of the recentred quadratic form at tau."""
    gq = GaussianQuadratic(M=-form.Q, z=form.a, tau=form.tau)
    return cdf_quadrature(decompose(gq), form.tau, tol=tol, strict=strict)


def mc_probability(instance: ScenarioInstance, beamformer: BeamformerMatrix,
                   allocation: PowerAllocation, qos: QoSSpec, k: int,
                   n_samples: int, rng_seed) -> ProbabilityEstimate:
    """Monte Carlo estimate of Pr(SINR_k >= gamma_k) over the estimation
    error, with the true channel reconstructed as h_k^H = est_k^H - e_k^H.

    Returns the hit frequency with its binomial standard error.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    rng = np.random.default_rng(rng_seed) if not isinstance(
        rng_seed, np.random.Generator) else rng_seed
    chalf = instance.cov_roots[0][k]
    est_row = instance.est_channels[k]
    b = beamformer.columns
    p = allocation.powers
    gamma_k = float(qos.gamma[k])
    sigma_k2 = float(instance.noise_var[k])

    hits = 0
    remaining = int(n_samples)
    chunk = 262_144
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
    se = float(np.sqrt(freq * (1.0 - freq) / n_samples))
    return ProbabilityEstimate(value=freq, abs_error_bound=se,
                               method=EvalMethod.MONTE_CARLO)
