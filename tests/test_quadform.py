import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st
from scipy.stats import ncx2

import robustpl.quadform as quadform

from robustpl import (
    PowerAllocation,
    build_outage_form,
    cdf_quadrature,
    complex_normal,
    mc_probability,
    outage_probability,
    ToleranceNotMet,
)
from robustpl.quadform import (NEAR_MEAN, _integrand, _log_mag, _log_mag_parts, _moments,
                                _pick_beta, rotate, saddlepoint_cdf)

from conftest import fixed_contour_offset, gil_pelaez, make_zf_setup, solver_forms


def random_hermitian(rng, n, scale=1.0):
    x = complex_normal(rng, n, n) * scale
    return 0.5 * (x + x.conj().T)


class TestCdfQuadrature:
    def test_exponential_case(self):
        # |x|^2 for scalar CN(0,1) is Exp(1)
        spec = (np.array([1.0]), np.array([0.0]))
        est = cdf_quadrature(spec, np.log(2.0))
        assert est.value == pytest.approx(0.5, abs=1e-8)

    def test_zero_matrix_is_indicator(self):
        spec = (np.zeros(3), np.ones(3))
        assert cdf_quadrature(spec, 1.0).value == 1.0
        assert cdf_quadrature(spec, -1.0).value == 0.0

    def test_noncentral_chi_square_oracle(self):
        # 2|x - z|^2 ~ noncentral chi-square, 2 dof, noncentrality 2|z|^2
        spec = (np.array([1.0]), np.array([1.0]))
        est = cdf_quadrature(spec, 2.0)
        assert est.value == pytest.approx(ncx2.cdf(4.0, 2, 2.0), abs=1e-7)

    def test_scaled_noncentral_cases(self, rng):
        for _ in range(10):
            lam = float(rng.uniform(0.1, 3.0))
            z = complex_normal(rng, 1)
            tau = float(rng.uniform(0.0, 4.0))
            spec = (np.array([lam]), np.abs(z) ** 2)
            est = cdf_quadrature(spec, tau)
            oracle = ncx2.cdf(2.0 * tau / lam, 2, 2.0 * abs(z[0]) ** 2)
            assert est.value == pytest.approx(oracle, abs=1e-7)

    def test_negative_definite_complement(self, rng):
        for _ in range(5):
            lam = -float(rng.uniform(0.1, 2.0))
            z = complex_normal(rng, 1)
            tau = -float(rng.uniform(0.1, 3.0))
            spec = (np.array([lam]), np.abs(z) ** 2)
            est = cdf_quadrature(spec, tau)
            oracle = ncx2.sf(2.0 * tau / lam, 2, 2.0 * abs(z[0]) ** 2)
            assert est.value == pytest.approx(oracle, abs=1e-7)

    def test_indefinite_against_monte_carlo(self, rng):
        for trial in range(4):
            n = int(rng.integers(2, 5))
            m = random_hermitian(rng, n)
            z = complex_normal(rng, n)
            x = complex_normal(np.random.default_rng(trial), 400_000, n)
            vals = np.einsum("ij,jk,ik->i", (x - z).conj(), m, x - z).real
            # mid-range quantile keeps the binomial comparison informative
            tau = float(np.quantile(vals, rng.uniform(0.1, 0.9)))
            est = outage_probability((m, z, tau))
            freq = float(np.mean(vals <= tau))
            se = np.sqrt(freq * (1 - freq) / 400_000)
            assert abs(est.value - freq) <= 4 * se

    def test_contour_offset_independence(self, rng):
        tol = 1e-8
        for _ in range(6):
            m = random_hermitian(rng, 3, scale=0.5)
            z = complex_normal(rng, 3)
            tau = float(rng.normal())
            lam, vecs = np.linalg.eigh(m)
            spec = lam, zt2 = lam, np.abs(vecs.conj().T @ z) ** 2
            bstar = _pick_beta(lam, zt2, tau)
            cap = 1.0 / abs(lam.min()) if lam.min() < 0 else np.inf
            b1 = 0.5 * bstar
            b2 = min(2.0 * bstar, 0.5 * (bstar + cap)) if np.isfinite(cap) else 2.0 * bstar
            with fixed_contour_offset(b1):
                v1 = cdf_quadrature(spec, tau, tol=tol).value
            with fixed_contour_offset(b2):
                v2 = cdf_quadrature(spec, tau, tol=tol).value
            assert abs(v1 - v2) <= 10 * tol

    def test_raw_value_stays_in_clamped_range(self, rng):
        tol = 1e-8
        for _ in range(20):
            m = random_hermitian(rng, 3, scale=0.3)
            z = complex_normal(rng, 3)
            tau = float(rng.normal())
            est = outage_probability((m, z, tau))
            assert -10 * tol <= est.raw_value <= 1.0 + 10 * tol


@st.composite
def spectra(draw):
    """Up to six eigenvalues with magnitudes 1e-6..1e3, PSD, indefinite or
    negative definite, and noncentralities summing to at most 1e8."""
    r = draw(st.integers(1, 6))
    mags = np.array([10.0 ** draw(st.floats(-6.0, 3.0)) for _ in range(r)])
    kind = draw(st.sampled_from(["psd", "indefinite", "nsd"]))
    signs = np.ones(r) if kind == "psd" else -np.ones(r)
    if kind == "indefinite":
        signs[1:] = [draw(st.sampled_from([-1.0, 1.0])) for _ in range(r - 1)]
    lam = np.sort(mags * signs)[::-1]
    zt2 = np.zeros(r)
    if draw(st.booleans()):
        w = np.array([draw(st.floats(0.01, 1.0)) for _ in range(r)])
        zt2 = 10.0 ** draw(st.floats(-3.0, 8.0)) * w / w.sum()
    return lam, zt2


def tau_at_minimizer(beta, lam, zt2):
    """The threshold at which beta minimizes the log magnitude."""
    bl1 = 1.0 + beta * lam
    return float(1.0 / beta + np.sum(zt2 * lam / bl1 ** 2 + lam / bl1))


@st.composite
def placement_cases(draw):
    """A spectrum with a threshold in the bulk (mean +- 6 standard
    deviations), or, for negative eigenvalues, one whose minimizer sits
    within a factor 1 - 10^-0.3 .. 1 - 1e-6 of the pole 1/|lam_min|."""
    lam, zt2 = draw(spectra())
    if lam.min() < 0 and draw(st.booleans()):
        frac = 1.0 - 10.0 ** -draw(st.floats(0.3, 6.0))
        return lam, zt2, tau_at_minimizer(frac / -lam.min(), lam, zt2)
    mu = float(np.sum((1.0 + zt2) * lam))
    sd = math.sqrt(float(np.sum((1.0 + 2.0 * zt2) * lam ** 2)))
    tau = mu + draw(st.floats(-6.0, 6.0)) * sd
    if lam.min() >= 0:
        tau = max(tau, 1e-3 * mu)  # PSD forms need tau > 0 for a minimizer
    return lam, zt2, tau


class TestContourPlacement:
    @settings(max_examples=300, deadline=None)
    @given(placement_cases())
    def test_minimizer_within_eight_evaluations(self, case):
        lam, zt2, tau = case
        with mock.patch.object(quadform, "_log_mag_parts",
                               wraps=_log_mag_parts) as parts:
            beta = _pick_beta(lam, zt2, tau)
        assert parts.call_count <= 8
        lam_l, zt2_l = lam.tolist(), zt2.tolist()
        beta_cap = (1.0 - 1e-9) / -lam.min() if lam.min() < 0 else math.inf
        assert 0.0 < beta <= beta_cap
        # the derivative of the log magnitude changes sign within 1e-3
        u, _, v, _, _ = _log_mag_parts(beta * (1.0 - 1e-3), lam_l, zt2_l, tau, 1.0)
        assert u <= v
        upper = min(beta * (1.0 + 1e-3), beta_cap)
        u, _, v, _, _ = _log_mag_parts(upper, lam_l, zt2_l, tau, 1.0)
        assert u >= v or beta == beta_cap

    @settings(max_examples=200, deadline=None)
    @given(spectra(), st.floats(-6.0, 6.0))
    def test_product_integrand_matches_log_sum(self, spectrum, k):
        lam, zt2 = spectrum
        mu = float(np.sum((1.0 + zt2) * lam))
        tau = mu + k * math.sqrt(float(np.sum((1.0 + 2.0 * zt2) * lam ** 2)))
        beta = 0.5 / -lam.min() if lam.min() < 0 else 1.0 / np.abs(lam).max()
        g0 = _log_mag(beta, lam, zt2, tau)
        sigma = beta / math.sqrt(_log_mag_parts(beta, lam, zt2, tau, 1.0)[4])
        s = beta + 1j * sigma * np.array([0.0, 0.01, 0.3, 1.0, 4.0, 30.0, 1e3])
        got = _integrand(s, lam, zt2, tau, g0)
        sl = s[:, None] * lam
        expo = tau * s - np.sum(zt2 * (sl / (1.0 + sl)), axis=1) - g0
        ref = np.exp(expo - np.sum(np.log(1.0 + sl), axis=1) - np.log(s))
        # both forms share the exponent, whose rounding moves the phase;
        # values near the subnormal range carry no relative precision
        tol = 1e-12 + 8.0 * np.finfo(float).eps * np.abs(expo)
        assert np.all(np.abs(got - ref) <= tol * np.abs(ref) + 1e-290)

    def test_log_sum_where_the_product_would_overflow(self):
        # |s prod(1 + s lam)| ~ 1e333 at omega = 0, while the integrand
        # divided by e^g0 is 1 there
        lam = np.full(6, 1e3)
        zt2 = np.ones(6)
        tau, beta = 1e-44, 1e45
        g0 = _log_mag(beta, lam, zt2, tau)
        s = beta + 1j * np.array([0.0, 1e44, 1e46])
        sl = s[:, None] * lam
        expo = tau * s - np.sum(zt2 * (sl / (1.0 + sl)), axis=1) - g0
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(np.exp(expo[0]) / (s[0] * np.prod(1.0 + sl[0])))
        with np.errstate(over="raise", invalid="raise"):
            got = _integrand(s, lam, zt2, tau, g0)
        ref = np.exp(expo - np.sum(np.log(1.0 + sl), axis=1) - np.log(s))
        assert abs(got[0] - 1.0) <= 1e-9
        tol = 1e-12 + 8.0 * np.finfo(float).eps * np.abs(expo)
        assert np.all(np.abs(got - ref) <= tol * np.abs(ref))

    def test_chernoff_minimizer_below_the_smallest_float(self):
        # the right-tail Chernoff bound at tau = 5e-324 has its minimizer
        # near 1e-324, where the start point underflows to 0
        spec = (np.array([1.0, -1.0]), np.zeros(2))
        est = cdf_quadrature(spec, 5e-324)
        assert abs(est.raw_value - 0.5) <= est.abs_error_bound + 1e-12


def quadrature_or_unmet(spectrum, tau, tol):
    """The certified estimate, or the one ToleranceNotMet carries, with a
    flag telling which."""
    try:
        return cdf_quadrature(spectrum, tau, tol=tol), True
    except ToleranceNotMet as err:
        return err.estimate, False


@st.composite
def tail_cases(draw):
    """placement_cases(), with tau also pushed 6 to 40 standard deviations
    into either tail (short of the exact answers at tau = 0)."""
    lam, zt2, tau = draw(placement_cases())
    if draw(st.booleans()):
        mu = float(np.sum((1.0 + zt2) * lam))
        sd = math.sqrt(float(np.sum((1.0 + 2.0 * zt2) * lam ** 2)))
        tau = mu + draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(6.0, 40.0)) * sd
        if lam.min() >= 0:
            tau = max(tau, 1e-3 * mu)
        if lam.max() <= 0:
            tau = min(tau, 1e-3 * mu)
    return lam, zt2, tau


class TestChernoffScreen:
    @settings(max_examples=400, deadline=None)
    @given(tail_cases(), st.sampled_from([1e-8, 1e-4]))
    def test_screen_never_hides_a_shortcut(self, case, tol):
        lam, zt2, tau = case
        zt2_l = zt2.tolist()
        est, _ = quadrature_or_unmet((lam, zt2), tau, tol)
        exact = (lam.min() >= 0 and tau <= 0) or (lam.max() <= 0 and tau >= 0)
        for value, sign in ((0.0, 1.0), (1.0, -1.0)):
            lam_t, tau_t = (sign * lam).tolist(), sign * tau
            mu, s2 = quadform._moments(lam_t, zt2_l)
            if tau_t >= mu:
                continue  # the minimum is h(0) = 0: no shortcut, and cdf_quadrature screens no such side
            low = quadform._chernoff_screen(lam_t, zt2_l, tau_t, mu, s2)
            beta = _pick_beta(lam_t, zt2_l, tau_t, log_weight=0.0)
            exponent = _log_mag(beta, lam_t, zt2_l, tau_t, log_weight=0.0)
            assert low <= exponent
            if min(lam_t) >= 0 and low == -math.inf:
                event("no screen: infinite cap")
            if exponent <= math.log(tol / 4.0) and not exact:
                event(f"shortcut to {value}")
                assert est.raw_value == est.value == value
                assert est.abs_error_bound == math.exp(exponent)
                break

    def test_no_screen_on_the_left_tail_of_a_positive_form(self):
        # for lam >= 0, h'' falls with beta, so the Newton point b1 from 0
        # stops short of the minimizer, and without a pole nothing bounds h
        # beyond it
        lam, zt2, tau = [2.0, 1.0, 0.5], [0.3, 0.0, 1.2], 0.2
        mu, s2 = quadform._moments(lam, zt2)
        assert quadform._chernoff_screen(lam, zt2, tau, mu, s2) == -math.inf
        beta = _pick_beta(lam, zt2, tau, log_weight=0.0)
        assert math.isfinite(_log_mag(beta, lam, zt2, tau, log_weight=0.0))


class TestCertificate:
    @settings(max_examples=150, deadline=None)
    @given(placement_cases())
    def test_bound_covers_the_error(self, case):
        lam, zt2, tau = case
        spec = (lam, zt2)
        est, certified = quadrature_or_unmet(spec, tau, 1e-8)
        assert certified == (est.abs_error_bound <= 1e-8)
        ref = quadrature_or_unmet(spec, tau, 1e-12)[0]
        gap = abs(est.raw_value - ref.raw_value)
        assert gap <= est.abs_error_bound + ref.abs_error_bound

    def test_rounding_floor_covers_a_cancelling_exponent(self):
        # tau at the mean of five unit eigenvalues with |z|^2 = 2.05e4: the
        # exponent is a difference of terms near 1e5, so f carries far more
        # than 50 eps of relative rounding error; 2Y is a noncentral
        # chi-square, 10 dof, noncentrality 2 sum |z|^2
        spec = (np.ones(5), np.full(5, 2.05e4))
        tau = 102505.0
        ref = ncx2.cdf(2.0 * tau, 10, 2.0 * 5 * 2.05e4)
        est, certified = quadrature_or_unmet(spec, tau, 1.5e-14)
        assert certified == (est.abs_error_bound <= 1.5e-14)
        assert abs(est.raw_value - ref) <= est.abs_error_bound

    @settings(max_examples=150, deadline=None)
    @given(st.floats(-3.0, 3.0), st.sampled_from([-1.0, 1.0]),
           st.one_of(st.just(0.0), st.floats(-3.0, 2.0)), st.floats(1e-3, 0.999))
    def test_single_eigenvalue_against_ncx2(self, log_mag, sign, log_z, q):
        lam = sign * 10.0 ** log_mag
        zt2 = 0.0 if log_z == 0.0 else 10.0 ** log_z
        # lam |x - z|^2 is lam/2 times a noncentral chi-square, 2 dof
        x = ncx2.ppf(q, 2, 2.0 * zt2)
        tau = 0.5 * lam * x
        ref = ncx2.cdf(x, 2, 2.0 * zt2) if lam > 0 else ncx2.sf(x, 2, 2.0 * zt2)
        spec = (np.array([lam]), np.array([zt2]))
        est = cdf_quadrature(spec, tau)
        assert abs(est.raw_value - ref) <= est.abs_error_bound + 1e-11

    def test_contour_next_to_the_pole(self, monkeypatch):
        # beta within 1e-6 (relative) of the pole at 1/|lam_min|: the strip
        # is so thin that the node cap stops the rule short of tol
        spec = (np.array([0.7, -0.3]), np.zeros(2))
        ref = cdf_quadrature(spec, 0.2)
        nodes = []
        original = quadform._integrand

        def counting(s, *args):
            nodes.append(s.size)
            return original(s, *args)

        monkeypatch.setattr(quadform, "_integrand", counting)
        tracemalloc.start()
        try:
            with fixed_contour_offset((1.0 - 1e-6) / 0.3):
                est, certified = quadrature_or_unmet(spec, 0.2, 1e-8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert certified == (est.abs_error_bound <= 1e-8)
        assert abs(est.raw_value - ref.raw_value) <= (est.abs_error_bound
                                                      + ref.abs_error_bound)
        assert max(nodes) <= quadform.CHUNK
        assert sum(nodes) <= quadform.MAX_NODES
        # one chunk's arrays, far below one array over all the nodes
        assert peak <= 64 * quadform.CHUNK * 16
        assert peak <= quadform.MAX_NODES * 16 / 4


def half_strip_step(beta, cap, lam, zt2, tau, g0, target, log_lam):
    """Reference: the step of the strip a = min(beta, cap - beta)/2 alone,
    with the same edge bound M as ``_trapezoid_step``."""
    a, r = 0.5 * min(beta, cap - beta), len(lam)
    log_m = math.log1p(1.0 / r) + max(
        (math.log(e) + sum(math.log1p(e * l) for l in lam) - log_lam) / (r + 1)
        + _log_mag(e, lam, zt2, tau) - g0 for e in (beta - a, beta + a))
    x = math.log(2.0) + log_m - math.log(target)
    return 2.0 * math.pi * a / (max(x, 0.0) + math.log1p(math.exp(-abs(x))))


def trapezoid_nodes(spectrum, tau, tol):
    """(estimate, nodes): cdf_quadrature with the nodes of its trapezoid sum,
    ceil(Omega / h) + 1 (the boundary terms of a tail summed by parts, at
    most ``_MAX_ORDER``, left out)."""
    nodes = []
    original = quadform._vertical_cut

    def counting(*args):
        cut = original(*args)
        nodes.append(math.ceil(cut[0] / args[7]) + 1)  # args[7] is h
        return cut

    with mock.patch.object(quadform, "_vertical_cut", counting):
        est, _ = quadrature_or_unmet(spectrum, tau, tol)
    return est, sum(nodes)


class TestGilPelaezReference:
    def test_solver_forms_within_their_bounds(self):
        # the 96 forms of solver_forms(); the worst |value - ref| / (bound +
        # estimate) was 0.026
        checked = 0
        for oracle, p, k in solver_forms():
            spectrum, tau, _ = rotate(oracle.minus_form(p, k))
            est = cdf_quadrature(spectrum, tau, tol=oracle.tol[k])
            ref, error = gil_pelaez(spectrum, tau)
            assert error <= 1e-10
            assert abs(est.value - ref) <= est.abs_error_bound + error
            checked += 1
        assert checked == 96

    def test_indefinite_pair_near_zero(self):
        # eigenvalues (1, -1), z = 0: the difference of two Exp(1) variables,
        # F(-1e-3) = e^{-0.001} / 2
        spectrum = (np.array([1.0, -1.0]), np.zeros(2))
        est = cdf_quadrature(spectrum, -1e-3, tol=1e-10)
        ref, error = gil_pelaez(spectrum, -1e-3)
        assert error <= 1e-10
        assert abs(est.value - ref) <= est.abs_error_bound + error
        assert abs(ref - 0.5 * math.exp(-1e-3)) <= error + 1e-15


class TestWiderStrip:
    def test_node_cap_form_certifies(self):
        # the half-width strip reached the node cap at a bound of 1.013e-8
        spec = (np.array([270.0, 1.0, 1.0, 5.5e-4, 5.5e-4]), np.zeros(5))
        est = cdf_quadrature(spec, 631.0)
        assert est.abs_error_bound <= 1e-8

    def test_indefinite_pair_near_zero_certifies_at_1e_10(self):
        # Y = E1 - E2 for unit exponentials: Pr(Y <= tau) = e^tau / 2 at tau < 0;
        # the half-width strip certified only 8.4e-10
        spec = (np.array([1.0, -1.0]), np.zeros(2))
        est = cdf_quadrature(spec, -1e-3, tol=1e-10)
        assert abs(est.raw_value - 0.5 * math.exp(-1e-3)) <= est.abs_error_bound

    @settings(max_examples=500, deadline=None)
    @given(placement_cases())
    def test_no_more_nodes_and_bound_covers_the_error(self, case):
        lam, zt2, tau = case
        spec = (lam, zt2)
        steps = []
        wider = quadform._trapezoid_step

        def recording(beta, cap, *args):
            steps.append((wider(beta, cap, *args), half_strip_step(beta, cap, *args)))
            return steps[-1][0]

        with mock.patch.object(quadform, "_trapezoid_step", recording):
            est, nodes = trapezoid_nodes(spec, tau, 1e-8)
        # up to rounding: the two compute the half strip's M in other orders
        assert all(h >= h_half * (1.0 - 1e-12) for h, h_half in steps)
        with mock.patch.object(quadform, "_trapezoid_step", half_strip_step):
            _, nodes_half = trapezoid_nodes(spec, tau, 1e-8)
        # at the node cap both sums stop at the cut omega_max
        assert nodes <= max(nodes_half, quadform.MAX_NODES - quadform._MAX_ORDER)
        ref, certified = quadrature_or_unmet(spec, tau, 1e-12)
        if certified:
            event("reference certified")
            assert abs(est.raw_value - ref.raw_value) <= est.abs_error_bound + 1e-12


class TestOutageProbability:
    def test_saturates_at_large_power(self):
        inst, b, qos = make_zf_setup(7)
        p = qos.gamma * 0.01
        p_big = p.copy()
        p_big[0] *= 1e6
        form = build_outage_form(inst, b, PowerAllocation(powers=p_big), qos, 0)
        assert outage_probability(form).value >= 0.999

    def test_matches_monte_carlo_on_zf_instance(self):
        inst, b, qos = make_zf_setup(9)
        p = PowerAllocation(powers=qos.gamma * 0.01 * 1.4)
        for k in range(3):
            form = build_outage_form(inst, b, p, qos, k)
            quad = outage_probability(form).value
            freq, se = mc_probability(inst, b, p, qos, k, 1_000_000, [9, k])
            assert abs(quad - freq) <= 4 * max(se, 1e-6)

    def test_monotone_in_own_and_cross_powers(self, rng):
        inst, b, qos = make_zf_setup(13)
        for _ in range(15):
            p = rng.uniform(0.3, 3.0, 3) * 0.01 * qos.gamma
            k = int(rng.integers(0, 3))
            base = outage_probability(build_outage_form(
                inst, b, PowerAllocation(powers=p), qos, k)).value
            up = p.copy()
            up[k] *= 1.05
            hi = outage_probability(build_outage_form(
                inst, b, PowerAllocation(powers=up), qos, k)).value
            assert hi >= base - 1e-8
            j = (k + 1) % 3
            up = p.copy()
            up[j] *= 1.05
            lo = outage_probability(build_outage_form(
                inst, b, PowerAllocation(powers=up), qos, k)).value
            assert lo <= base + 1e-8


def saddlepoint_quantile(spectrum, q):
    """A tau with saddlepoint_cdf(spectrum, tau) close to q in (0.5, 1), by
    bisection between the mean (where the estimate is None) and 10 standard
    deviations above it, or the end 0 of a negative definite form's support."""
    lam, zt2 = spectrum
    mu, s2 = _moments(lam.tolist(), zt2.tolist())
    lo, hi = mu, mu + 10.0 * math.sqrt(s2)
    if lam.max() < 0:
        hi = min(hi, 0.0)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        est = saddlepoint_cdf(spectrum, mid)
        lo, hi = (lo, mid) if est is not None and est.raw_value >= q else (mid, hi)
    return hi


class TestSaddlepoint:
    # One eigenvalue is the formula's worst case: its error falls as the
    # form gets more terms or more noncentrality.

    @pytest.mark.parametrize("q", [0.1, 0.3, 0.7, 0.9, 0.95, 0.99])
    def test_exponential(self, q):
        # |x|^2 ~ Exp(1); measured errors 6.3e-4, 1.6e-3, 1.4e-3, 6.0e-4,
        # 3.2e-4 and 6.9e-5 at these q
        est = saddlepoint_cdf((np.array([1.0]), np.array([0.0])), -math.log1p(-q))
        assert abs(est.raw_value - q) <= (1e-3 if q >= 0.9 else 2e-3)
        assert est.abs_error_bound == math.inf and est.slope is None

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-3.0, 3.0), st.sampled_from([-1.0, 1.0]),
           st.one_of(st.just(0.0), st.floats(-3.0, 2.0)), st.floats(0.9, 0.99))
    def test_single_eigenvalue_against_ncx2(self, log_mag, sign, log_z, q):
        # lam |x - z|^2 is lam/2 times a noncentral chi-square, 2 dof, as in
        # acceptance criterion 2; over a grid of these draws the largest
        # error was 1.2e-3
        lam = sign * 10.0 ** log_mag
        zt2 = 0.0 if log_z == 0.0 else 10.0 ** log_z
        x = ncx2.ppf(q if lam > 0 else 1.0 - q, 2, 2.0 * zt2)
        ref = ncx2.cdf(x, 2, 2.0 * zt2) if lam > 0 else ncx2.sf(x, 2, 2.0 * zt2)
        est = saddlepoint_cdf((np.array([lam]), np.array([zt2])), 0.5 * lam * x)
        assert abs(est.raw_value - ref) <= 2e-3

    @settings(max_examples=150, deadline=None)
    @given(spectra(), st.floats(0.9, 0.99))
    def test_agrees_with_the_quadrature(self, spectrum, q):
        # measured on 300 draws: |error| p50 6.8e-5, p90 6.0e-4, p99 1.4e-3,
        # max 1.5e-3; the worst are central forms of one or two dominant
        # eigenvalues, and a scan of the central pairs (a, -1) over a in
        # [1e-3, 1e3] and q found at most 2.4e-3 (a = 0.63, q = 0.9)
        tau = saddlepoint_quantile(spectrum, q)
        est, _ = quadrature_or_unmet(spectrum, tau, 1e-8)
        assert 0.89 <= est.raw_value <= 0.995
        sp = saddlepoint_cdf(spectrum, tau)
        assert abs(sp.raw_value - est.raw_value) <= 3e-3 + est.abs_error_bound

    def test_certified_read_carries_no_slope(self):
        # one slope source: outage_probability returns the quadrature alone,
        # and saddlepoint_cdf on the same rotated spectrum gives the slope,
        # None where the estimate is (here: at the mean); with P in
        # [0.9, 0.99], on 1,528 such forms (seeds 700-729) the saddlepoint
        # value erred by at most 1.2e-3
        checked = nones = 0
        for oracle, p, k in solver_forms():
            minus_q, a, tau = oracle.minus_form(p, k)
            u = oracle.direction(k)
            mean = _moments(*(x.tolist() for x in rotate((minus_q, a, tau))[0]))[0]
            for form in ((minus_q, a, tau), (minus_q, a, mean)):
                plain = outage_probability(form)
                assert plain.slope is None
                est = saddlepoint_cdf(*rotate(form, u))
                if 0.9 <= plain.value <= 0.99:
                    assert abs(est.raw_value - plain.raw_value) <= 2e-3 and est.slope > 0.0
                checked, nones = checked + 1, nones + (est is None)
        assert 0 < nones < checked

    def test_none_near_the_mean(self, rng):
        for r in (1, 3, 6):
            lam, zt2 = rng.normal(size=r), rng.uniform(0.0, 2.0, r)
            mu, s2 = _moments(lam.tolist(), zt2.tolist())
            assert saddlepoint_cdf((lam, zt2), mu) is None
            for side in (-1.0, 1.0):  # |w| and |u| grow about as |tau - mu| / sd
                near = mu + side * 0.5 * NEAR_MEAN * math.sqrt(s2)
                assert saddlepoint_cdf((lam, zt2), near) is None
        # no spread at all: a zero form
        assert saddlepoint_cdf((np.zeros(2), np.ones(2)), 0.5) is None

    @pytest.mark.parametrize("lam, tau", [(1.0, -0.5), (1.0, 0.0), (-1.0, 0.5)])
    def test_none_outside_the_support(self, lam, tau):
        assert saddlepoint_cdf((np.array([lam, 0.5 * lam]), np.zeros(2)), tau) is None

    def test_rotate_is_the_quadrature_input(self):
        inst, b, qos = make_zf_setup(9)
        form = build_outage_form(inst, b, PowerAllocation(powers=qos.gamma * 0.014), qos, 0)
        spectrum, tau, _ = rotate(form)
        assert outage_probability(form) == cdf_quadrature(spectrum, tau)


class TestMonteCarlo:
    def test_deterministic_under_seed(self):
        inst, b, qos = make_zf_setup(15)
        p = PowerAllocation(powers=qos.gamma * 0.01)
        a = mc_probability(inst, b, p, qos, 0, 50_000, 321)
        c = mc_probability(inst, b, p, qos, 0, 50_000, 321)
        assert a == c

    def test_rejects_no_samples(self):
        inst, b, qos = make_zf_setup(15)
        p = PowerAllocation(powers=qos.gamma * 0.01)
        with pytest.raises(ValueError, match="n_samples"):
            mc_probability(inst, b, p, qos, 0, 0, 321)

    def test_zero_power_never_succeeds(self):
        inst, b, qos = make_zf_setup(19)
        p = PowerAllocation(powers=np.array([0.0, 0.05, 0.05]))
        freq, _ = mc_probability(inst, b, p, qos, 0, 2000, 2)
        assert freq == 0.0

    def test_standard_error_matches_binomial(self):
        inst, b, qos = make_zf_setup(23)
        p = PowerAllocation(powers=qos.gamma * 0.01 * 1.3)
        freq, se = mc_probability(inst, b, p, qos, 0, 10_000, 3)
        assert se == pytest.approx(np.sqrt(freq * (1 - freq) / 10_000))
