from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st

import robustpl.zf

from robustpl import (
    ApproximationInapplicable,
    DegenerateSpectrum,
    PowerAllocation,
    QoSSpec,
    ScenarioInstance,
    SolveStatus,
    SurrogateOracle,
    ToleranceNotMet,
    build_outage_form,
    build_zf,
    cdf_quadrature,
    outage_probability,
    residue_probability,
    residue_spectrum,
    solve_general,
    solve_zf_coord_descent,
    solve_zf_coord_update,
)
from robustpl.descent import _run_descent
from robustpl.zf import FEASIBILITY_SLACK, ROUNDING_TOL, _step_from_spectrum

from conftest import make_instance, make_zf_setup, uncounted_read


def unitary_channel_instance(sigma_e2, n=3, sigma2=0.01):
    """Estimates with orthonormal rows, so ZF columns have unit norm."""
    rng = np.random.default_rng(7)
    x = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    q, _ = np.linalg.qr(x)
    est = q.conj().T
    cov = np.broadcast_to(sigma_e2 * np.eye(n), (n, n, n)).copy()
    return ScenarioInstance(true_channels=est, est_channels=est,
                            error_cov=cov, noise_var=np.full(n, sigma2))


def identity_channel_setup(sigma_e2=0.002, gamma_db=5.0):
    """Doubly degenerate spectra: every step falls back to the search."""
    eye = np.eye(3, dtype=complex)
    inst = ScenarioInstance(
        true_channels=eye, est_channels=eye,
        error_cov=np.broadcast_to(sigma_e2 * eye, (3, 3, 3)).copy(),
        noise_var=np.full(3, 0.01))
    return inst, build_zf(eye), QoSSpec.from_db(gamma_db, 0.05, 3)


class TestZfParams:
    def test_unit_norm_arithmetic(self):
        inst = unitary_channel_instance(0.002)
        qos = QoSSpec.from_db(5.0, 0.05, 3)
        oracle = SurrogateOracle(inst, build_zf(inst.est_channels), qos)
        eta_expected = -1.3 * 2.0 * np.sqrt(0.002)
        np.testing.assert_allclose(oracle.eta, eta_expected, rtol=1e-9)
        np.testing.assert_allclose(oracle.gamma_prime,
                                   qos.gamma / (1.0 + eta_expected), rtol=1e-9)

    def test_inapplicable_at_large_uncertainty(self):
        inst = unitary_channel_instance(0.25)
        qos = QoSSpec.from_db(5.0, 0.05, 3)
        with pytest.raises(ApproximationInapplicable):
            SurrogateOracle(inst, build_zf(inst.est_channels), qos)

    def test_rejects_non_zf_directions(self):
        from robustpl import build_rci
        inst = make_instance(3)
        qos = QoSSpec.from_db(5.0, 0.05, 3)
        with pytest.raises(ValueError):
            SurrogateOracle(inst, build_rci(inst.est_channels, 0.03), qos)


class TestResidueProbability:
    def test_two_eigenvalue_closed_form(self):
        # CDF at u=1 for eigenvalues (1, -0.5): 1 - e^{-1} / 1.5
        spec = residue_spectrum(np.diag([1.0, -0.5]))
        val = residue_probability(spec, p_k=2.0, gamma_prime_k=1.0, sigma_k2=1.0)
        assert val == pytest.approx(1.0 - np.exp(-1.0) / 1.5, abs=1e-12)
        quad = outage_probability((np.diag([1.0, -0.5]), np.zeros(2), 1.0)).value
        assert val == pytest.approx(quad, abs=1e-9)

    def test_branch_boundary_continuity(self):
        spec = residue_spectrum(np.diag([2.0, 1.0, -0.5]))
        left = residue_probability(spec, 1.0 - 1e-12, 1.0, 1.0)
        right = residue_probability(spec, 1.0, 1.0, 1.0)
        assert left == pytest.approx(right, abs=1e-9)

    def test_saturates_to_one(self):
        spec = residue_spectrum(np.diag([1e-4, 0.5e-4, -0.3e-4]))
        val = residue_probability(spec, p_k=1e3 * 1e-4, gamma_prime_k=1.0,
                                  sigma_k2=0.0)
        assert val >= 1.0 - 1e-10

    def test_zero_modes_excluded(self):
        with_zero = residue_spectrum(np.diag([1.0, 0.0, -0.5]))
        without = residue_spectrum(np.diag([1.0, -0.5]))
        for u in (-0.3, 0.2, 1.0):
            a = residue_probability(with_zero, 1.0 + u, 1.0, 1.0)
            b = residue_probability(without, 1.0 + u, 1.0, 1.0)
            assert a == pytest.approx(b, abs=1e-12)

    def test_degenerate_spectrum_raises(self):
        spec = residue_spectrum(np.diag([1.0, 1.0 + 1e-12, -0.5]))
        with pytest.raises(DegenerateSpectrum):
            residue_probability(spec, 1.5, 1.0, 1.0)

    @staticmethod
    def quadrature_reference(lam_nz, u):
        # on some of these forms the quadrature's rounding floor keeps its
        # certified bound above 1e-12; the estimate ToleranceNotMet carries,
        # with the bound it reached, is the one to compare within
        try:
            return cdf_quadrature((lam_nz, np.zeros(lam_nz.size)), u, tol=1e-12)
        except ToleranceNotMet as err:
            return err.estimate

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-1.0, 1.0),
           st.lists(st.floats(0.25, 1.0), min_size=0, max_size=4),
           st.floats(-2.0, 1.0), st.sampled_from([-1.0, 1.0]),
           st.floats(-3.0, 0.5))
    def test_matches_quadrature_on_separated_spectra(self, top, steps, neg,
                                                     sign, log_u):
        # one negative and 1-5 positive eigenvalues, neighbours at least a
        # quarter decade apart, spanning up to four decades; u on both
        # sides of the branch switch at u = 0
        pos = 10.0 ** (top - np.cumsum([0.0] + steps))
        lam = np.concatenate([pos, [-(10.0 ** neg)]])
        spec = residue_spectrum(np.diag(lam))
        p_k = 1.0 + sign * 10.0 ** log_u
        ref = self.quadrature_reference(spec, p_k - 1.0)
        val = residue_probability(spec, p_k, 1.0, 1.0)
        assert abs(val - ref.value) <= ref.abs_error_bound + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-12.0, -1.0))
    @example(-5.0)
    @example(-8.0)
    def test_near_collision_raises_or_meets_rounding_bound(self, log_g):
        # -Q = diag(1 + g, 1, -0.5) 1e-3 at u = 2e-3: the positive terms
        # grow like 1/g and cancel; without the rounding guard the sum
        # errs by 9.2e-8 at g = 1e-5 and by 9.9e-3 at g = 1e-8
        g = 10.0 ** log_g
        spec = residue_spectrum(np.diag([(1.0 + g) * 1e-3, 1e-3, -0.5e-3]))
        p_k = 1.0 + 2e-3
        ref = self.quadrature_reference(spec, p_k - 1.0)
        try:
            val = residue_probability(spec, p_k, 1.0, 1.0)
        except DegenerateSpectrum:
            return
        assert abs(val - ref.value) <= ROUNDING_TOL + ref.abs_error_bound

    def test_every_constraint_goes_through_residue_probability(self, monkeypatch):
        # perfbench/tracing.py counts surrogate evaluations by wrapping the
        # module-level name; a read that bypassed it would go uncounted
        residue_calls, constraint_calls = [], []
        original = robustpl.zf.residue_probability
        read = SurrogateOracle.read

        def counting_residue(*args):
            residue_calls.append(args)
            return original(*args)

        def counting_read(self, powers, k, *args):
            constraint_calls.append(k)
            return read(self, powers, k, *args)

        monkeypatch.setattr(robustpl.zf, "residue_probability", counting_residue)
        monkeypatch.setattr(SurrogateOracle, "read", counting_read)
        for seed in (301, 302):
            inst, b, qos = make_zf_setup(seed)
            solve_zf_coord_descent(inst, b, qos)
            solve_zf_coord_update(inst, b, qos)
        assert len(constraint_calls) > 0
        assert len(residue_calls) == len(constraint_calls)

    def test_matches_quadrature_on_random_zf_spectra(self, rng):
        worst = 0.0
        for _ in range(40):
            pos = np.sort(rng.uniform(1e-5, 5e-4, 2))[::-1]
            neg = -rng.uniform(1e-5, 5e-4, 1)
            lam = np.concatenate([pos, neg])
            u = float(rng.uniform(-5e-4, 1.5e-3))
            spec = residue_spectrum(np.diag(lam))
            val = residue_probability(spec, 1.0 + u, 1.0, 1.0)
            quad = outage_probability((np.diag(lam), np.zeros(3), u)).value
            worst = max(worst, abs(val - quad))
        assert worst <= 1e-9

    def test_residue_sign_alternation(self, rng):
        for _ in range(20):
            pos = np.sort(rng.uniform(1e-5, 5e-4, 3))[::-1]
            neg = -rng.uniform(1e-5, 5e-4, 1)
            lam = np.concatenate([pos, neg])
            u = float(rng.uniform(0.0, 1e-3))
            terms = []
            for idx in range(3):
                others = np.delete(lam, idx)
                terms.append(-np.exp(-u / lam[idx])
                             / np.prod(1.0 - others / lam[idx]))
            signs = np.sign(terms)
            assert signs[0] < 0
            assert np.all(signs[1:] == -signs[:-1])

    def test_residue_magnitudes_decay_on_instances(self, rng):
        # magnitude ordering of the positive-eigenvalue terms on actual
        # ZF spectra (two positive modes when K = 3)
        for seed in range(300, 310):
            inst, b, qos = make_zf_setup(seed)
            p = rng.uniform(0.5, 2.5, 3) * qos.gamma * 0.01
            for k in range(3):
                lam_nz = residue_spectrum(
                    build_outage_form(inst, b, PowerAllocation(powers=p), qos, k)[0])
                pos = lam_nz[lam_nz > 0]
                u = float(rng.uniform(0.0, 1e-3))
                mags = []
                for lam_l in pos:
                    others = lam_nz[lam_nz != lam_l]
                    mags.append(abs(np.exp(-u / lam_l)
                                    / np.prod(1.0 - others / lam_l)))
                assert np.all(np.diff(mags) <= 1e-15)

    def test_eigen_count_structure(self, rng):
        inst, b, qos = make_zf_setup(205)
        for _ in range(10):
            p = rng.uniform(0.2, 3.0, 3) * qos.gamma * 0.01
            for k in range(3):
                lam_nz = residue_spectrum(
                    build_outage_form(inst, b, PowerAllocation(powers=p), qos, k)[0])
                assert np.sum(lam_nz < 0) == 1
                assert np.sum(lam_nz > 0) <= 2


class TestCoordDescentZf:
    def test_zero_uncertainty_limit(self):
        inst, b, qos = make_zf_setup(207, sigma_e2=1e-12)
        report = solve_zf_coord_descent(inst, b, qos)
        target = qos.gamma * 0.01
        assert np.max(np.abs(report.powers.powers - target) / target) < 0.01

    def test_surrogate_band_and_exact_certification(self):
        inst, b, qos = make_zf_setup(209)
        report = solve_zf_coord_descent(inst, b, qos)
        assert report.solved
        assert np.all(report.per_user_prob >= 0.95)
        assert np.all(report.per_user_prob <= 0.951)
        assert report.per_user_prob_exact is not None

    def test_more_conservative_than_exact_solver(self):
        inst, b, qos = make_zf_setup(211)
        exact = solve_general(inst, b, qos)
        approx = solve_zf_coord_descent(inst, b, qos)
        assert exact.total_power <= approx.total_power + 1e-6 * approx.total_power

    def test_exact_feasibility_rate(self):
        feasible = 0
        total = 0
        for seed in range(213, 243):
            inst, b, qos = make_zf_setup(seed)
            try:
                report = solve_zf_coord_descent(inst, b, qos)
            except ApproximationInapplicable:
                continue
            if not report.solved:
                continue
            total += 1
            if np.all(report.per_user_prob_exact >= 1.0 - qos.epsilon):
                feasible += 1
        assert total >= 20
        assert feasible / total >= 0.9


class TestCoordUpdate:
    def test_init_positive_and_finite(self):
        inst, b, qos = make_zf_setup(247)
        p0 = SurrogateOracle(inst, b, qos).start()
        assert np.all(p0.powers > 0)
        assert np.all(np.isfinite(p0.powers))

    def test_init_decreases_with_looser_outage(self):
        inst = make_instance(249)
        b = build_zf(inst.est_channels)
        tight = SurrogateOracle(inst, b, QoSSpec.from_db(5.0, 0.05, 3)).start()
        loose = SurrogateOracle(inst, b, QoSSpec.from_db(5.0, 0.999, 3)).start()
        assert np.all(loose.powers < tight.powers)

    def test_single_user_closed_form_solves_exactly(self):
        inst = make_instance(251, n_tx=2, n_users=1)
        b = build_zf(inst.est_channels)
        qos = QoSSpec.from_db(5.0, 0.05, 1)
        oracle = SurrogateOracle(inst, b, qos)
        p0 = oracle.start()
        spec = residue_spectrum(build_outage_form(inst, b, p0, qos, 0)[0])
        val = residue_probability(spec, float(p0.powers[0]),
                                  float(oracle.gamma_prime[0]), 0.01)
        assert val == pytest.approx(0.95, abs=1e-9)

    @pytest.mark.parametrize("n_tx", [1, 3])
    def test_single_user_step_takes_the_closed_form(self, n_tx, monkeypatch):
        # one user's -Q has no positive eigenvalue: the step is the
        # interference-free closed form, aimed a hair above the floor
        inst, b, qos = make_zf_setup(251, n_tx=n_tx, n_users=1)
        oracle, single, calls = SurrogateOracle(inst, b, qos), robustpl.zf._single_user_power, []
        monkeypatch.setattr(robustpl.zf, "_single_user_power",
                            lambda *args: calls.append(args) or single(*args))
        p = np.array([1.0])
        p[0] = oracle.step(p, 0)
        assert len(calls) == 1
        aim = 1.0 - float(qos.epsilon[0]) * (1.0 - FEASIBILITY_SLACK)
        assert uncounted_read(oracle, p, 0)[0] == pytest.approx(aim, abs=1e-12)
        assert solve_zf_coord_update(inst, b, qos).solved

    def test_small_power_branch_hits_floor_exactly(self):
        # admissible small-power root: for eigenvalues (0.1, -0.05) and
        # gamma' sigma^2 = 0.02, the window requires epsilon near 0.7
        lam = np.array([0.1, -0.05])
        gamma_prime, sigma2, eps = 2.0, 0.01, 0.7
        p = _step_from_spectrum(lam, gamma_k=2.0, gamma_prime_k=gamma_prime,
                                sigma_k2=sigma2, epsilon_k=eps, r_norm2=1.0)
        assert 0.0 < p < gamma_prime * sigma2
        expected = gamma_prime * sigma2 - gamma_prime * (-0.05) * np.log(
            (1.0 - eps) * (1.0 - 0.1 / -0.05))
        assert p == pytest.approx(expected, abs=1e-15)
        val = residue_probability(residue_spectrum(np.diag(lam)), p,
                                  gamma_prime, sigma2)
        assert val == pytest.approx(1.0 - eps, abs=1e-12)

    def test_typical_case_takes_conservative_branch(self):
        inst, b, qos = make_zf_setup(253)
        oracle = SurrogateOracle(inst, b, qos)
        p_prev = PowerAllocation(powers=qos.gamma * 0.01)
        for k in range(3):
            pk = oracle.step(p_prev.powers, k)
            assert pk >= oracle.gamma_prime[k] * 0.01
            lam_nz = residue_spectrum(build_outage_form(inst, b, p_prev, qos, k)[0])
            trial = p_prev.powers.copy()
            trial[k] = pk
            # certified on the frozen spectrum: dropping the alternating tail
            # of the residue series is conservative
            val = residue_probability(lam_nz, pk, float(oracle.gamma_prime[k]), 0.01)
            assert val >= 1.0 - float(qos.epsilon[k]) - 1e-12

    @pytest.mark.parametrize("g, falls_back", [(1e-8, True), (1e-5, False)])
    def test_step_refuses_uncertified_weight(self, g, falls_back):
        # -Q = diag(1 + g, 1, -0.5) 1e-3 takes the dominant-eigenvalue root,
        # whose weight w_1 = (1 - 1/(1 + g)) 1.5 errs relatively by up to
        # eps (m + kappa_1), kappa_1 ~ 1/g: 2.2e-8 at g = 1e-8
        lam = residue_spectrum(np.diag([(1.0 + g) * 1e-3, 1e-3, -0.5e-3]))
        args = (lam, 2.0, 2.0, 0.01, 0.05, 1.0)
        if falls_back:
            with pytest.raises(DegenerateSpectrum, match="rounding"):
                _step_from_spectrum(*args)
            return
        w_1 = 1.0
        for x in lam[1:]:  # exact rational arithmetic on the same floats
            w_1 *= 1 - Fraction(x) / Fraction(lam[0])
        expected = 2.0 * 0.01 - 2.0 * lam[0] * np.log(0.05 * float(w_1))
        assert _step_from_spectrum(*args) == pytest.approx(expected, rel=1e-12)

    def test_dominant_eigenvalue_limit(self):
        # side eigenvalues negligible: the conservative root approaches
        # gamma' s2 - gamma' lam_1 ln(eps)
        lam = np.array([0.1, 1e-9, -1e-9])
        gamma_prime, sigma2, eps = 2.0, 0.01, 0.05
        p = _step_from_spectrum(lam, 2.0, gamma_prime, sigma2, eps, 1.0)
        expected = gamma_prime * sigma2 - gamma_prime * 0.1 * np.log(eps)
        assert p == pytest.approx(expected, rel=1e-6)

    def test_exponential_tail_limit(self):
        # a vanishing positive mode leaves the pure negative-exponential
        # margin, solved exactly on the small-power branch
        lam = np.array([1e-12, -0.05])
        gamma_prime, sigma2, eps = 2.0, 0.01, 0.05
        p = _step_from_spectrum(lam, 2.0, gamma_prime, sigma2, eps, 1.0)
        expected = gamma_prime * sigma2 \
            - gamma_prime * (-0.05) * np.log(1.0 - eps)
        assert 0.0 < p < gamma_prime * sigma2
        assert p == pytest.approx(expected, rel=1e-6)
        val = residue_probability(residue_spectrum(np.diag(lam)), p,
                                  gamma_prime, sigma2)
        assert val == pytest.approx(1.0 - eps, abs=1e-9)

    def test_solver_zero_uncertainty(self):
        inst, b, qos = make_zf_setup(257, sigma_e2=1e-12)
        report = solve_zf_coord_update(inst, b, qos)
        assert report.cycles <= 1
        target = qos.gamma * 0.01
        assert np.max(np.abs(report.powers.powers - target) / target) < 0.01

    def test_solver_reaches_surrogate_feasibility(self):
        inst, b, qos = make_zf_setup(259)
        report = solve_zf_coord_update(inst, b, qos)
        assert report.status is SolveStatus.SOLVED
        assert np.all(report.per_user_prob >= 0.95)

    @pytest.mark.parametrize("seed, gamma_db", [(600, 0.0), (602, 5.0), (606, 5.0)])
    def test_solved_powers_are_the_last_steps(self, seed, gamma_db, monkeypatch):
        # the steps aim a hair above the floor, so these fixed points meet it
        # as the last cycle's steps leave them: no power is scaled after the loop
        inst, b, qos = make_zf_setup(seed, gamma_db=gamma_db)
        outputs, step = [], SurrogateOracle.step

        def recording(oracle, p_frozen, k):
            outputs.append(step(oracle, p_frozen, k))
            return outputs[-1]

        monkeypatch.setattr(SurrogateOracle, "step", recording)
        report = solve_zf_coord_update(inst, b, qos)
        assert report.status is SolveStatus.SOLVED
        assert 0 < report.cycles and len(outputs) == 3 * report.cycles
        assert np.array_equal(report.powers.powers, outputs[-3:])
        assert np.all(report.per_user_prob >= 1.0 - qos.epsilon)

    def test_tiny_outage_tolerance_keeps_a_positive_aim(self):
        # at eps = 1e-7 an aim of eps - 1e-6 would be negative and every
        # dominant-eigenvalue root NaN; the relative aim eps (1 - slack) is not
        inst, b, qos = make_zf_setup(600, gamma_db=0.0, epsilon=1e-7)
        oracle = SurrogateOracle(inst, b, qos)
        p = oracle.start().powers
        for k in range(3):
            assert 0.0 < oracle.step(p, k) < np.inf
        report = solve_zf_coord_update(inst, b, qos)
        assert report.status is SolveStatus.SOLVED
        assert np.all(report.per_user_prob >= 1.0 - 1e-7)

    def test_chained_refinement_never_raises_power(self):
        inst, b, qos = make_zf_setup(261)
        first = solve_zf_coord_update(inst, b, qos)
        refined = _run_descent(SurrogateOracle(inst, b, qos), first.powers.powers)
        assert refined.total_power <= first.total_power + 1e-12

    def test_cycle_limit_status(self, monkeypatch):
        monkeypatch.setattr(robustpl.zf, "MAX_CYCLES", 0)
        inst, b, qos = make_zf_setup(263)
        report = solve_zf_coord_update(inst, b, qos)
        assert report.status is SolveStatus.CYCLE_LIMIT

    def test_growing_powers_end_diverged(self):
        # no fixed point at 10 dB: the powers grow geometrically (to 1.2e31
        # over 50 cycles without the cap), so the loop stops past the cap 1e6
        inst, b, qos = make_zf_setup(10, gamma_db=10.0)
        report = solve_zf_coord_update(inst, b, qos)
        assert report.status is SolveStatus.DIVERGED
        assert SurrogateOracle(inst, b, qos).cap == 1e6 < report.total_power
        assert report.cycles < 50
        assert not np.all(report.per_user_prob >= 0.95 - 1e-6)

    def test_fallback_doubling_stops_at_power_cap(self):
        # at sigma_e2 = 0.05 and 25 dB the degenerate-spectrum fallback never
        # meets the floor; without its cap it doubled up to 80 times a step
        inst, b, qos = identity_channel_setup(sigma_e2=0.05, gamma_db=25.0)
        report = solve_zf_coord_update(inst, b, qos)
        assert report.status is SolveStatus.DIVERGED
        assert SurrogateOracle(inst, b, qos).cap < report.total_power
        assert report.integral_evals < 114

    def test_fallback_step_lands_in_band(self):
        # identity channels give a doubly degenerate spectrum: the step
        # doubles and bisects on the surrogate oracle into its band, eps/50
        # (at 1e-3 it lands 5.4e-5 above the floor) or one set narrower
        inst, b, qos = identity_channel_setup()
        surrogate = SurrogateOracle(inst, b, qos)
        p_prev = PowerAllocation(powers=qos.gamma * 0.01)
        with pytest.raises(DegenerateSpectrum):
            residue_probability(surrogate.spectrum(p_prev.powers, 0),
                                float(p_prev.powers[0]), float(surrogate.gamma_prime[0]), 0.01)
        assert np.array_equal(surrogate.width, np.full(3, 1e-3))
        for delta in (1e-3, 4e-5):
            surrogate.width = np.full(3, delta)
            for k in range(3):
                trial = p_prev.powers.copy()
                trial[k] = surrogate.step(p_prev.powers, k)
                prob = uncounted_read(surrogate, trial, k)[0]
                assert 0.95 <= prob <= 0.95 + delta

    def test_fallback_bisection_counts_every_oracle_call(self, monkeypatch):
        # identity channels give a doubly degenerate spectrum, so every
        # coordinate step falls back to bisecting on the surrogate oracle
        inst, b, qos = identity_channel_setup()
        calls = []
        original = robustpl.zf.residue_probability

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(robustpl.zf, "residue_probability", counting)
        rep = solve_zf_coord_update(inst, b, qos)
        assert rep.solved
        assert rep.integral_evals == len(calls)
        # each fallback reports the oracle calls it made, not one step
        assert rep.bisection_steps > 3 * rep.cycles


def eager_coord_update(inst, b, qos):
    """Reference: the CoordUpdate loop that evaluates every user for each
    feasibility test against the floor, capped at ``zf.MAX_CYCLES``."""
    prob = SurrogateOracle(inst, b, qos)
    n, floor = qos.n_users, 1.0 - qos.epsilon
    p = prob.start().powers
    probs = np.array([prob(p, k) for k in range(n)])
    cycles = steps = 0
    while (not np.all(probs >= floor) and cycles < robustpl.zf.MAX_CYCLES
           and np.dot(p, prob.norms2) <= prob.cap):
        cycles += 1
        p_prev, before = p.copy(), prob.evals
        for k in range(n):
            p[k] = prob.step(p_prev, k)
        steps += prob.evals - before
        probs = np.array([prob(p, k) for k in range(n)])
        if np.max(np.abs(p - p_prev)) <= 1e-12 * float(np.max(p)):
            break
    if np.all(probs >= floor):
        status = SolveStatus.SOLVED
    elif np.dot(p, prob.norms2) > prob.cap:
        status = SolveStatus.DIVERGED
    else:
        status = SolveStatus.CYCLE_LIMIT
    return dict(status=status, powers=p, cycles=cycles, bisection_steps=steps,
                per_user_prob=probs, per_user_prob_exact=prob.exact_all(p),
                evals=prob.evals)


@pytest.mark.parametrize("seed, gamma_db, sigma_e2, kwargs", [
    *[(seed, g, 0.002, {}) for seed in (621, 622, 623) for g in (0.0, 5.0, 10.0)],
    (624, 10.0, 0.002, {"max_cycles": 1}),
    (625, 0.0, 0.002, {"max_cycles": 0}),
    (626, 10.0, 0.002, {}),
    (627, 5.0, 1e-12, {}),
    (None, 5.0, 0.002, {}),
    (10, 10.0, 0.002, {}),
])
def test_coord_update_matches_eager_reference(seed, gamma_db, sigma_e2, kwargs,
                                              monkeypatch):
    if "max_cycles" in kwargs:
        monkeypatch.setattr(robustpl.zf, "MAX_CYCLES", kwargs["max_cycles"])
    inst, b, qos = (identity_channel_setup() if seed is None
                    else make_zf_setup(seed, gamma_db=gamma_db, sigma_e2=sigma_e2))
    want = eager_coord_update(inst, b, qos)
    report = solve_zf_coord_update(inst, b, qos)
    assert report.status is want["status"]
    assert np.array_equal(report.powers.powers, want["powers"])
    assert report.cycles == want["cycles"]
    assert report.bisection_steps == want["bisection_steps"]
    assert np.array_equal(report.per_user_prob, want["per_user_prob"])
    assert np.array_equal(report.per_user_prob_exact, want["per_user_prob_exact"])
    assert report.integral_evals <= want["evals"]


class TestStackedReads:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([3, 6]), st.data())
    def test_stacked_reads_equal_single_ones_bitwise(self, seed, n, data):
        inst, b, qos = make_zf_setup(seed, n_tx=n, n_users=n)
        scale = st.one_of(st.just(0.0), st.floats(0.05, 20.0))
        powers = np.array(data.draw(st.lists(scale, min_size=n, max_size=n))) * 0.01
        try:
            oracle = SurrogateOracle(inst, b, qos)
        except ApproximationInapplicable:
            reject()  # 1 + eta <= 0: no surrogate to read
        stacked = oracle.spectra(powers)
        for k in range(n):
            single = residue_spectrum(oracle.minus_form(powers, k)[0])
            assert stacked[k].tobytes() == single.tobytes()
        single = np.array([outage_probability(oracle.minus_form(powers, k), oracle.tol[k]).value
                           for k in range(n)])
        assert oracle.exact_all(powers).tobytes() == single.tobytes()

    @pytest.mark.parametrize("seed, gamma_db", [(631, 0.0), (632, 5.0), (633, 10.0)])
    def test_coord_update_decomposes_each_power_vector_once(self, seed, gamma_db,
                                                            monkeypatch):
        inst, b, qos = make_zf_setup(seed, gamma_db)
        dims, stacked_at, read_at = [], [], []
        eigvalsh, spectra, spectrum = (robustpl.zf.eigvalsh, SurrogateOracle.spectra,
                                       SurrogateOracle.spectrum)

        def counting(a):
            dims.append(np.ndim(a))
            return eigvalsh(a)

        def stacked_read(oracle, powers):
            stacked_at.append(powers.tobytes())
            return spectra(oracle, powers)

        def read(oracle, powers, k):
            read_at.append(powers.tobytes())
            return spectrum(oracle, powers, k)

        monkeypatch.setattr(robustpl.zf, "eigvalsh", counting)
        monkeypatch.setattr(SurrogateOracle, "spectra", stacked_read)
        monkeypatch.setattr(SurrogateOracle, "spectrum", read)
        rep = solve_zf_coord_update(inst, b, qos)
        assert rep.solved and rep.cycles >= 1
        # every user read is at a vector read whole, and each such vector
        # costs one stacked call: no single-matrix call, none repeated
        assert set(read_at) <= set(stacked_at)
        assert dims == [3] * len(set(stacked_at))
