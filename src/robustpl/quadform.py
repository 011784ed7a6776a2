"""CDF of Hermitian quadratic forms of standard complex Gaussian vectors.

Evaluates Pr(||x - z||^2_M <= tau) for x ~ CN(0, I) through the contour
integral of the moment generating function,

    (1/2pi) int  e^{tau s} / s * e^{-c(s)} / det(I + s M)  d omega,
    s = beta + i omega,   c(s) = sum_m |z_m|^2 s lam_m / (1 + s lam_m),

over a vertical line with I + beta M positive definite, by one certified
trapezoid rule with a fixed step.  The value does not depend on beta; the
offset is placed at the minimizer of the integrand magnitude on the real axis
(a safeguarded Newton iteration in log beta from the two-moment saddle point),
where the magnitude along the line peaks at omega = 0.  The integrand is
exp(tau s - c(s) - g0) / (s prod_m (1 + s lam_m)), g0 its log magnitude at
omega = 0, without complex logarithms unless the product could overflow, on
(eigenvalue, node) arrays.  Chernoff bounds answer deep tails; tangents of
their convex exponent rule out, unminimized, those that cannot reach tol/4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import eigh
from .model import psd_sqrt  # noqa: F401 (perfbench/tracing.py wraps this name)

__all__ = [
    "ProbabilityEstimate",
    "ToleranceNotMet",
    "cdf_quadrature",
    "outage_probability",
    "saddlepoint_cdf",
]


class ToleranceNotMet(Exception):
    """Quadrature could not certify the requested tolerance.

    Carries the best available ``estimate`` (a ProbabilityEstimate with its
    achieved error bound).
    """

    def __init__(self, message: str, estimate: "ProbabilityEstimate"):
        super().__init__(message)
        self.estimate = estimate


@dataclass(frozen=True)
class ProbabilityEstimate:
    value: float
    abs_error_bound: float
    raw_value: float = None
    slope: float = None  # set by saddlepoint_cdf alone: its uncertified dP/dp along a direction

    def __post_init__(self):
        if self.raw_value is None:
            object.__setattr__(self, "raw_value", self.value)
        object.__setattr__(self, "value", float(min(1.0, max(0.0, self.value))))


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


def _pick_beta(lam, zt2, tau, log_weight=1.0, moments=None):
    """Minimizer of the (strictly convex) _log_mag over admissible offsets.

    Newton on H = log(u / v) (see _log_mag_parts; its slope stays bounded
    where u - v flattens out) in xi = log(beta / (1 - beta/cap)), cap =
    1/|lam_min| the pole, from the positive root of the two-moment expansion
    s2 b^2 + (tau - mu) b - log_weight = 0 (``moments``: (mu, s2), if known).
    The sign of u - v keeps a bracket; a step leaving it bisects it, or moves
    by 2 while it is open.  A loose tolerance suffices: the integral is
    beta-independent, and any admissible beta gives a valid Chernoff bound.
    """
    lam_min = min(lam)
    cap = -1.0 / lam_min if lam_min < 0 else math.inf
    beta_cap = (1.0 - 1e-9) * cap

    def xi_of(beta):
        return math.log(beta) - math.log1p(-beta / cap)

    def beta_of(xi):
        e = math.exp(min(xi, 700.0))
        return e / (1.0 + e / cap)

    mu, s2 = moments or _moments(lam, zt2)
    b = tau - mu
    root = math.sqrt(b * b + 4.0 * log_weight * s2)
    start = 2.0 * log_weight / (b + root) if b > 0 else (root - b) / (2.0 * s2)
    if start == 0.0:
        # log_weight 0 and (mu - tau) / s2 underflows: h is flat to double
        # precision near 0, so the smallest positive offset is as good as any
        return math.ulp(0.0)
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


def _moments(lam, zt2):
    """Mean and variance of the quadratic form."""
    return (sum((1.0 + z) * l for l, z in zip(lam, zt2)),
            sum((1.0 + 2.0 * z) * l * l for l, z in zip(lam, zt2)))


def _chernoff_screen(lam, zt2, tau, mu, s2):
    """A lower bound, less a rounding margin, on min h (-inf: none), h =
    _log_mag with log_weight 0: min e^h over admissible beta > 0 is the
    Chernoff bound on Pr(Y <= tau), Y with mean mu > tau (the caller's side
    of the mean) and variance s2.  h is convex, h(0) = 0 and h'(0) = tau -
    mu, so h lies above its tangents at 0 and at b1 = min((mu - tau)/s2,
    cap/2) (or any b1 in (0, cap)), and the sign of b1 h'(b1) = u - v puts
    the minimizer between b1 and 0 or cap."""
    cap = -1.0 / min(lam) if min(lam) < 0 else math.inf
    b1 = max(min((mu - tau) / s2, 0.5 * cap), math.ulp(0.0))
    u, _, v, _, _ = _log_mag_parts(b1, lam, zt2, tau, 0.0)
    h1 = _log_mag(b1, lam, zt2, tau, 0.0)
    far = 0.0 if u >= v else cap
    low = max((tau - mu) * max(b1, far), h1 + (u - v) * (far / b1 - 1.0))
    return low - 1e-9 * (1.0 + abs(h1) + (u + v) * max(1.0, far / b1))


QUAD_TOL = 1e-8         # certification tolerance of every probability a solver acts on
LOG2 = math.log(2.0)
CHUNK = 2048            # nodes per vectorized integrand call
MAX_NODES = 1 << 18     # node cap: past it the tolerance is reported as unmet
_MAX_ORDER = 8          # highest order of summation by parts on the tail
NEAR_MEAN = 0.1         # saddlepoint_cdf is None where |w| or |u| is below this
_LOG_FACT = [math.lgamma(m + 1.0) for m in range(_MAX_ORDER + 1)]


def _trapezoid_step(beta, cap, lam, zt2, tau, g0, target, log_lam):
    """Step h with discretization error ``target`` on the half line: f is
    analytic on 0 < Re s < cap, so on a strip |Re s - beta| < a inside it the
    rule errs by at most 2 M / (e^{2 pi a/h} - 1) (Trefethen & Weideman, SIAM
    Rev. 56(3), 2014), M bounding int_0^inf |f| on the strip's lines; that
    is convex across the strip (|f| is subharmonic), so the edges suffice.
    On the edge Re s = e, |f| peaks at omega = 0 and is at most |f(e)|
    (W/omega)^(r+1) beyond, W^(r+1) = e prod(1 + e lam) / prod|lam|, so
    M <= W |f(e)| (1 + 1/r); log_lam is sum log|lam|.  Of the strips a =
    {1/2, 9/10} min(beta, cap - beta), the one with the larger step wins."""
    r, width, best = len(lam), min(beta, cap - beta), 0.0
    for a in (0.5 * width, 0.9 * width):
        log_m = -math.inf
        for e in (beta - a, beta + a):
            log_p, c = math.log(e), 0.0  # log(e prod(1 + e lam)), c(e)
            for l, z in zip(lam, zt2):
                log_p += math.log1p(e * l)
                c += z * e * l / (1.0 + e * l)
            log_m = max(log_m, (log_p - log_lam) / (r + 1) - log_p + tau * e - c - g0)
        x = LOG2 + math.log1p(1.0 / r) + log_m - math.log(target)
        best = max(best, 2.0 * math.pi * a / (max(x, 0.0) + math.log1p(math.exp(-abs(x)))))
    return best


def _vertical_cut(beta, lam, zt2, tau, g0, target, sigma, h, omega_max, log_lam):
    """Cut Omega <= omega_max of the trapezoid sum, past which the nodes add
    at most ``target``: (Omega, m, bound).  m = 0: for omega >= Omega, |f| <=
    exp(tau beta - Re c(Omega) - g0) / (omega prod min(1 + beta lam, |lam|
    omega)) with the minima taken at Omega, and |f| decreases, so the sum
    past node Omega/h + 1 is below the integral of that from Omega.  m > 0:
    with f = E^n g_n, E = e^{i tau h}, D = 1/(1 - E), summing by parts m times
    leaves sum_{j<m} D^(j+1) E^(N+j) Delta^j g_N, added explicitly, and a
    remainder below |D|^m sum |Delta^m g|, bounded by Cauchy's estimate on
    discs of radius omega/2 (there |s|, |1 + s lam|/|lam| >= omega/2 and
    Re c >= sum z (1 - 2/(|lam| omega))); rounding, ~(2|D|)^m, limits m."""
    terms = [(l, z, 1.0 + beta * l) for l, z in zip(lam, zt2)]
    r = len(terms)
    sin_half = abs(math.sin(0.5 * tau * h))
    log_dh = math.log(0.5 * h / sin_half) if sin_half > 0.0 else math.inf  # |Dh|
    log_2d = max(0.0, LOG2 + log_dh - math.log(h))  # log max(1, 2|D|)
    base = tau * beta - g0 - sum(zt2) + (r + 1) * LOG2 - log_lam
    z_over = 2.0 * sum(z / abs(l) for l, z in zip(lam, zt2))
    log_eps_h = math.log(50.0 * math.ulp(1.0) * h)

    def log_bound(omega):
        """(log bound, m, rate): the bound falls at least at that rate in
        log omega."""
        re_c = log_den = rate = 0.0
        d = 0  # factors bounded by |lam| omega
        for l, z, bl1 in terms:
            ol2 = (omega * l) ** 2
            den = bl1 * bl1 + ol2
            re_c += z * (1.0 - bl1 / den)
            rate += 2.0 * z * bl1 * ol2 / (den * den)
            d += ol2 >= bl1 * bl1
            log_den += 0.5 * math.log(max(ol2, bl1 * bl1))
        if d == 0:  # 1/omega alone does not integrate: let one factor decay
            d = 1
            log_den += max(math.log(abs(omega * l) / bl1) for l, _, bl1 in terms)
        log_om = math.log(omega)
        log_f = tau * beta - g0 - re_c - log_om - log_den  # bounds log|f(omega)|
        best = (log_f + log_om - math.log(d), 0, rate + d)
        for m in range(1, min(_MAX_ORDER, int(0.5 * omega * math.exp(-log_dh))) + 1):
            rem = (base + z_over / omega - (m + r) * log_om + m * (LOG2 + log_dh)
                   + _LOG_FACT[m] + math.log(1.0 / (m + r) + h / omega))
            total = LOG2 + max(rem, log_eps_h + log_f + math.log(m) + m * log_2d)
            if total >= best[0]:
                break
            best = (total, m, d)
        return best

    # Newton on log omega from 16 sigma (about half the usual cut), aimed
    # 0.05 past the target, steps at most 1, bisecting the bracket of tested
    # points when a step leaves it
    log_target, x_max = math.log(target), math.log(omega_max)
    lo, hi, found = -math.inf, x_max, None
    x = min(math.log(16.0 * sigma), x_max)
    for _ in range(12):
        log_b, m, rate = log_bound(math.exp(x))
        if log_b <= log_target:
            hi, found = x, (math.exp(x), m, math.exp(log_b))
        elif x >= x_max:
            break  # the node cap: the tail bound stays above target
        else:
            lo = x
        step = max(-1.0, min((log_b - log_target) / rate + 0.05, 1.0))
        if found and (hi - lo <= 0.15 or abs(step) <= 0.1):
            break
        if not found:
            x = min(x + step, x_max)
        else:
            x = x + step if lo < x + step < hi else 0.5 * (lo + hi)
    return found or (math.exp(x), m, math.exp(log_b) if log_b < 709.0 else math.inf)


def _integrand(s, lam, zt2, tau, g0, abs_s=None):
    """exp(tau s - c(s) - g0) / (s prod_m (1 + s lam_m)) at the nodes ``s`` (|s|: ``abs_s``).

    Eigenvalue-major (m, n) arrays make a product m - 1 vector operations;
    the exponent, which can cancel to many digits, keeps np.sum's row order.
    |exp(tau s - c(s) - g0)| <= beta prod(1 + beta lam) on the vertical line,
    and both that and |s prod(1 + s lam)| are at most |s| prod(1 + |s||lam|);
    where that could overflow, logs are summed."""
    sl = lam[:, None] * s
    one_sl = 1.0 + sl
    terms = (zt2[:, None] * (sl / one_sl)).T.copy()  # node-major rows
    expo = tau * s - terms.sum(axis=1) - g0
    s_max = float((np.abs(s) if abs_s is None else abs_s).max())
    log_bound = math.log(s_max) + sum(math.log1p(s_max * abs(l)) for l in lam.tolist())
    return (np.exp(expo) / (s * one_sl.prod(axis=0)) if log_bound < 600.0  # no overflow
            else np.exp(expo - np.log(one_sl).sum(axis=0) - np.log(s)))


def zero_mode_threshold(lam) -> float:
    """Eigenvalues of magnitude at most this are the form's zero modes."""
    return 1e-12 * max(map(abs, lam), default=0.0)


def cdf_quadrature(spectrum: tuple, tau: float, tol: float = QUAD_TOL) -> ProbabilityEstimate:
    """The contour integral to absolute tolerance tol by the trapezoid rule
    (h/pi) (1/2 + sum_{n>=1} Re f(nh)), using conjugate symmetry.

    ``spectrum`` is the pair (eigenvalues, |z~|^2) of M and z, z~ = V^H z for
    M's eigenvectors V (``outage_probability`` takes M and z themselves).
    The offset sits at the magnitude minimizer, the step comes from the wider
    certified strip (``_trapezoid_step``, tol/2), the cut from the tail bound
    (``_vertical_cut``, tol/10), and the bound adds a rounding floor of eps h
    sum |f| times f's relative rounding error in eps.
    Chernoff bounds answer deep tails; a form whose mean or variance is not
    finite raises ValueError.
    A bound above tol (as past the node cap MAX_NODES) raises
    ToleranceNotMet, whose ``estimate`` carries the value and that bound."""
    tau = float(tau)
    lam_all, zt2_all = (np.asarray(x, dtype=float).tolist() for x in spectrum)
    thresh = zero_mode_threshold(lam_all)
    kept = [(l, z) for l, z in zip(lam_all, zt2_all)
            if abs(l) > thresh or z * abs(l) > thresh]

    def _exact(value):
        return ProbabilityEstimate(value=value, abs_error_bound=0.0)

    if not kept:
        return _exact(1.0 if tau >= 0 else 0.0)
    lam_l, zt2_l = map(list, zip(*kept))
    if min(lam_l) >= 0 and tau <= 0:
        return _exact(0.0)
    if max(lam_l) <= 0 and tau >= 0:
        return _exact(1.0)

    # Chernoff bounds certify deep tails, minimized only where the screen lets
    # them reach floor: the tail on tau's side of the mean (the other's minimum
    # is h(0) = 0 > floor); the right tail is the left one of (-lam, -tau)
    mu, s2 = _moments(lam_l, zt2_l)
    if not (math.isfinite(mu) and math.isfinite(s2)):
        raise ValueError("the form's mean or variance is not finite")
    floor = math.log(tol / 4.0)
    if sign := (tau < mu) - (tau > mu):
        lam_t, tau_t, mu_t, value = [sign * l for l in lam_l], sign * tau, sign * mu, float(sign < 0)
        if _chernoff_screen(lam_t, zt2_l, tau_t, mu_t, s2) <= floor:
            b = _pick_beta(lam_t, zt2_l, tau_t, log_weight=0.0, moments=(mu_t, s2))
            log_tail = _log_mag(b, lam_t, zt2_l, tau_t, log_weight=0.0)
            if log_tail <= floor:
                return ProbabilityEstimate(value=value, abs_error_bound=math.exp(log_tail))

    # a negative definite form is integrated as its positive definite mirror,
    # 1 - Pr(-Y <= -tau), whose strip has no pole to the right of beta
    mirror = max(lam_l) < 0
    if mirror:
        lam_l, tau, mu = [-l for l in lam_l], -tau, -mu
    cap = -1.0 / min(lam_l) if min(lam_l) < 0 else math.inf
    beta = _pick_beta(lam_l, zt2_l, tau, moments=(mu, s2))
    g0 = _log_mag(beta, lam_l, zt2_l, tau)
    curv = _log_mag_parts(beta, lam_l, zt2_l, tau, 1.0)[4]  # beta^2 g0''
    if g0 > 700.0:
        raise ValueError("e^g0 overflows at this contour offset")
    scale = math.exp(g0) / math.pi
    sigma = beta / math.sqrt(curv)

    log_lam = sum(math.log(abs(l)) for l in lam_l)
    h = _trapezoid_step(beta, cap, lam_l, zt2_l, tau, g0, (tol / 2.0) / scale, log_lam)
    # a cut half a step short of the last node keeps rounding from adding one
    omega, order, tail = _vertical_cut(beta, lam_l, zt2_l, tau, g0, (tol / 10.0) / scale,
                                       sigma, h, (MAX_NODES - 1.5 - _MAX_ORDER) * h, log_lam)
    n_nodes = math.ceil(omega / h) + 1
    lam, zt2 = np.array(lam_l), np.array(zt2_l)
    # f's relative rounding error in eps is err0 + err1 |s|: 50 for the exp,
    # product and quotient, and (m + 9)/2 E for the exponent, whose m terms
    # err by 8 eps/2 of their sizes and whose sums by (m + 1) eps/2 of E =
    # |g0| + |tau s| + sum |z s lam / (1 + s lam)|; |1 + s lam| >= 1 + beta lam
    weight = 0.5 * (len(lam_l) + 9)
    err0 = 50.0 + weight * abs(g0)
    err1 = weight * (abs(tau) + sum(z * abs(l) / (1.0 + beta * l) for l, z in zip(lam_l, zt2_l)))
    total, err_total = -0.5, 0.0  # f(beta) = 1, its node weighs 1/2
    for start in range(0, n_nodes, CHUNK):
        s = beta + 1j * h * np.arange(start, min(start + CHUNK, n_nodes))
        vals = _integrand(s, lam, zt2, tau, g0, abs_s := np.abs(s))
        total += float(vals.real.sum())
        abs_f = np.abs(vals)
        err_total += err0 * float(abs_f.sum()) + err1 * float(abs_f @ abs_s)
    if order:  # the boundary terms of the tail summed by parts
        n = np.arange(n_nodes, n_nodes + order)
        s = beta + 1j * h * n
        edge = _integrand(s, lam, zt2, tau, g0)
        phase, d_edge = np.exp(1j * tau * h * n), 1.0 / (1.0 - np.exp(1j * tau * h))
        diffs = edge / phase
        edge_err = float(np.max(np.abs(edge) * (err0 + err1 * np.abs(s))))
        for j in range(order):
            total += (d_edge ** (j + 1) * phase[j] * diffs[0]).real
            err_total += abs(d_edge) ** (j + 1) * 2.0 ** j * edge_err
            diffs = np.diff(diffs)

    raw = scale * h * total
    if mirror:
        raw = 1.0 - raw
    bound = tol / 2.0 + scale * (tail + math.ulp(1.0) * h * err_total)
    estimate = ProbabilityEstimate(value=raw, abs_error_bound=bound)
    if not bound <= tol:
        raise ToleranceNotMet(
            f"quadrature certified only {bound:.3e} > tol {tol:.3e}", estimate)
    return estimate


def rotate(form: tuple, direction=None, eig=None) -> tuple:
    """(spectrum, tau, slope_terms) of the form (-Q, a, tau) by -Q's ``eigh`` (``eig`` if known):
    ((lam descending, |z~|^2), tau, rows conj(z~) u~, conj(u~) z~, |u~|^2 or None), x~ = V^H x."""
    minus_q, a, tau = form
    lam, vecs = eigh(minus_q) if eig is None else eig
    basis = vecs[:, ::-1].conj().T  # V^H, eigenvalues descending
    lam, z_t = lam[::-1], basis @ a
    if direction is not None:
        u_t = basis @ direction
        direction = np.array([z_t.conj() * u_t, u_t.conj() * z_t, abs(u_t) ** 2])
    return (lam, np.abs(z_t) ** 2), tau, direction


def outage_probability(form: tuple, tol: float = QUAD_TOL, eig=None) -> ProbabilityEstimate:
    """Pr(SINR_k >= gamma_k), certified: the CDF at tau of the recentred quadratic
    form (-Q, a, tau) of ``OutageOracle.minus_form`` or ``model.build_outage_form``,
    by ``rotate`` (``eig``: -Q's ``eigh``, if known) and ``cdf_quadrature``."""
    spectrum, tau, _ = rotate(form, eig=eig)
    return cdf_quadrature(spectrum, tau, tol=tol)


def saddlepoint_cdf(spectrum: tuple, tau: float, slope_terms=None):
    """Pr(Y <= tau) for ``cdf_quadrature``'s spectrum by the second-order Lugannani-Rice formula
    (Lugannani & Rice, Adv. Appl. Probab. 12(2), 1980; Daniels, Int. Stat. Rev. 55(1), 1987) at the
    saddle point t, K_1(t) = tau, from Newton steps inside v_j = 1/(1 - t lam_j) > 0, K_n = sum_j
    (lam_j v_j)^n (n-1)! (1 + n |z~_j|^2 v_j); uncertified (an infinite bound), None near the mean or
    without t.  The ``slope`` is e^(K - t tau)/sqrt(2 pi K_2) (A B + C) by ``rotate``'s rows."""
    lam, zt2 = (np.asarray(x, dtype=float).tolist() for x in spectrum)
    tau, (mu, k2) = float(tau), _moments(lam, zt2)
    lo = max((1.0 / l for l in lam if l < 0.0), default=-math.inf)
    hi = min((1.0 / l for l in lam if l > 0.0), default=math.inf)
    t, k1 = 0.0, mu
    for _ in range(60):
        step = (tau - k1) / k2 if k2 > 0.0 else math.nan  # no spread, or t ran off
        if not abs(step) * math.sqrt(k2) > 1e-9:  # converged, or nan
            break
        lo, hi = (t, hi) if step > 0.0 else (lo, t)
        t = t + step if lo < t + step < hi else 0.5 * (lo + hi)
        k1 = k2 = 0.0
        for l, z in zip(lam, zt2):
            v = 1.0 / (1.0 - t * l)
            k1 += l * v * (1.0 + z * v)
            k2 += (l * v) ** 2 * (1.0 + 2.0 * z * v)
    if not abs(step) * math.sqrt(k2) <= 1e-9:  # no saddle point
        return None
    t += step  # the last, converged step: far smaller than the distance to a pole
    excess = k3 = k4 = 0.0  # excess: K(t) - t mu
    for l, z in zip(lam, zt2):
        v = 1.0 / (1.0 - t * l)
        excess += z * (t * l) ** 2 * v - math.log1p(-t * l) - t * l
        k3 += 2.0 * (l * v) ** 3 * (1.0 + 3.0 * z * v)
        k4 += 6.0 * (l * v) ** 4 * (1.0 + 4.0 * z * v)
    w, u = math.copysign(math.sqrt(2.0 * max(0.0, t * (tau - mu) - excess)), t), t * math.sqrt(k2)
    if min(abs(w), abs(u)) < NEAR_MEAN:
        return None
    k3, k4 = k3 / k2 ** 1.5, k4 / k2 ** 2
    phi = math.exp(-0.5 * w * w) / math.sqrt(2.0 * math.pi)
    value = 0.5 * math.erfc(-w / math.sqrt(2.0)) + phi * (1.0 / w - 1.0 / u - 1.0 / w ** 3 + 1.0 / u ** 3
                                                          + k3 / (2.0 * u * u) - (k4 / 8.0 - 5.0 * k3 * k3 / 24.0) / u)
    slope = None
    if slope_terms is not None:
        a, b, c = slope_terms @ (1.0 / (1.0 - t * np.array(lam)))
        slope = phi / math.sqrt(k2) * float((a * b + c).real)
    return ProbabilityEstimate(value=value, abs_error_bound=math.inf, slope=slope)
