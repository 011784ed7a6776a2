import numpy as np
import pytest

from robustpl import (
    DescentConfig,
    InfeasibleStartNotFound,
    OutageOracle,
    PowerAllocation,
    QoSSpec,
    ScenarioInstance,
    SolveStatus,
    bisect_user_power,
    build_outage_form,
    build_zf,
    find_feasible_start,
    init_powers_pcsi,
    mc_probability,
    outage_probability,
    solve_general,
)

from conftest import make_instance, make_zf_setup


def exact_prob(instance, beamformer, qos, powers, k):
    form = build_outage_form(instance, beamformer,
                             PowerAllocation(powers=powers), qos, k)
    return outage_probability(form).value


def minimal_feasible_power(instance, beamformer, qos, powers, k, band=1e-6):
    """Independent high-precision oracle for the per-coordinate update map."""
    p = np.asarray(powers, dtype=float).copy()
    floor = 1.0 - float(qos.epsilon[k])
    hi = max(float(qos.gamma[k]) * 0.01, p[k], 1e-9)
    for _ in range(200):
        p[k] = hi
        if exact_prob(instance, beamformer, qos, p, k) >= floor:
            break
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        p[k] = mid
        val = exact_prob(instance, beamformer, qos, p, k)
        if val >= floor:
            hi = mid
            if val <= floor + band:
                break
        else:
            lo = mid
    return hi


class TestFeasibleStart:
    def test_near_perfect_csi_needs_at_most_two_doublings(self):
        inst, b, qos = make_zf_setup(101, sigma_e2=1e-12)
        report = solve_general(inst, b, qos)
        assert report.doublings <= 2
        assert report.status is not SolveStatus.INFEASIBLE_START_NOT_FOUND

    def test_already_feasible_start_skips_doubling(self):
        inst, b, qos = make_zf_setup(103)
        first = solve_general(inst, b, qos)
        again = solve_general(inst, b, qos, p_start=first.powers)
        assert again.doublings == 0

    def test_hopeless_instance_reports_infeasible(self):
        inst, b, qos = make_zf_setup(105, sigma_e2=0.5, gamma_db=10.0)
        config = DescentConfig()
        report = solve_general(inst, b, qos, config)
        assert report.status is SolveStatus.INFEASIBLE_START_NOT_FOUND
        # Monte Carlo confirms the outage constraint is still violated at the
        # power level where the search gave up
        mc = mc_probability(inst, b, report.powers, qos, 0, 100_000, 7)
        worst = min(mc_probability(inst, b, report.powers, qos, k, 100_000,
                                   [7, k]).value for k in range(3))
        assert worst < 1.0 - float(qos.epsilon[0])
        with pytest.raises(InfeasibleStartNotFound):
            find_feasible_start(inst, b, qos, config)

    def test_found_point_is_feasible(self):
        inst, b, qos = make_zf_setup(107)
        alloc = find_feasible_start(inst, b, qos)
        for k in range(3):
            assert exact_prob(inst, b, qos, alloc.powers, k) >= 0.95


class TestBisection:
    def test_in_band_returns_unchanged(self):
        inst, b, qos = make_zf_setup(109)
        report = solve_general(inst, b, qos)
        pk = bisect_user_power(inst, b, qos, report.powers, 0, 1e-3)
        assert pk == report.powers.powers[0]

    def test_single_user_band(self):
        inst = make_instance(111, n_tx=1, n_users=1)
        b = build_zf(inst.est_channels)
        qos = QoSSpec.from_db(5.0, 0.05, 1)
        start = find_feasible_start(inst, b, qos)
        pk = bisect_user_power(inst, b, qos, start, 0, 1e-3)
        prob = exact_prob(inst, b, qos, np.array([pk]), 0)
        assert 0.95 <= prob <= 0.951

    def test_step_guard_bounds_work(self):
        inst, b, qos = make_zf_setup(113)
        start = find_feasible_start(inst, b, qos)
        config = DescentConfig()
        report = solve_general(inst, b, qos, config, p_start=start)
        # one cycle of 3 users, each within the 60-step guard
        assert report.bisection_steps <= report.cycles * 3 * 60


class TestSolveGeneral:
    def test_zero_uncertainty_limit(self):
        inst, b, qos = make_zf_setup(115, sigma_e2=1e-12)
        report = solve_general(inst, b, qos)
        target = qos.gamma * 0.01
        assert np.max(np.abs(report.powers.powers - target) / target) < 0.01

    def test_final_probabilities_in_band(self):
        for seed in (117, 119, 121):
            inst, b, qos = make_zf_setup(seed)
            report = solve_general(inst, b, qos)
            assert report.solved
            assert np.all(report.per_user_prob >= 0.95)
            assert np.all(report.per_user_prob <= 0.951)

    def test_strict_invariant_checks_pass(self):
        inst, b, qos = make_zf_setup(123)
        config = DescentConfig(strict_checks=True)
        report = solve_general(inst, b, qos, config)
        assert report.solved

    def test_total_power_below_start(self):
        inst, b, qos = make_zf_setup(125)
        start = find_feasible_start(inst, b, qos)
        report = solve_general(inst, b, qos, p_start=start)
        assert report.total_power <= start.total_power(b) + 1e-12

    def test_sweep_order_insensitivity(self):
        inst, b, qos = make_zf_setup(127)
        r1 = solve_general(inst, b, qos, DescentConfig(sweep_order=(0, 1, 2)))
        r2 = solve_general(inst, b, qos, DescentConfig(sweep_order=(2, 0, 1)))
        assert r1.total_power == pytest.approx(r2.total_power, rel=0.01)

    def test_deterministic(self):
        inst, b, qos = make_zf_setup(129)
        r1 = solve_general(inst, b, qos)
        r2 = solve_general(inst, b, qos)
        np.testing.assert_array_equal(r1.powers.powers, r2.powers.powers)
        assert r1.bisection_steps == r2.bisection_steps
        assert r1.integral_evals == r2.integral_evals

    def test_rci_directions_also_solve(self):
        from robustpl import build_rci
        inst = make_instance(131)
        b = build_rci(inst.est_channels, 3 * 0.01)
        qos = QoSSpec.from_db(5.0, 0.05, 3)
        report = solve_general(inst, b, qos)
        assert report.solved
        assert np.all(report.per_user_prob >= 0.95)


class TestGlobalOptimality:
    def test_solution_agrees_with_independent_fixed_point(self):
        # iterating the implicit minimal-feasible-power map from the solver's
        # point must stay put up to the termination band's power slack
        for seed in (501, 502):
            inst, b, qos = make_zf_setup(seed)
            rep = solve_general(inst, b, qos)
            p = rep.powers.powers.copy()
            for _ in range(12):
                p_new = p.copy()
                for k in range(3):
                    p_new[k] = minimal_feasible_power(inst, b, qos, p_new, k,
                                                      band=1e-7)
                if np.max(np.abs(p_new - p) / p) < 1e-6:
                    p = p_new
                    break
                p = p_new
            assert np.max(np.abs(rep.powers.powers - p) / p) < 5e-3


class TestInterferenceFunctionProperties:
    def test_positivity_monotonicity_scalability(self):
        inst, b, qos = make_zf_setup(133)
        rng = np.random.default_rng(0)
        for _ in range(3):
            p = rng.uniform(0.5, 2.0, 3) * qos.gamma * 0.01
            k = int(rng.integers(0, 3))
            base = minimal_feasible_power(inst, b, qos, p, k)
            assert base > 0
            raised = p.copy()
            j = (k + 1) % 3
            raised[j] *= 1.5
            assert minimal_feasible_power(inst, b, qos, raised, k) >= base - 1e-6
            alpha = 1.8
            scaled = minimal_feasible_power(inst, b, qos, alpha * p, k)
            assert scaled < alpha * base + 1e-6


class TestOutageOracle:
    @staticmethod
    def setups():
        from robustpl import build_pcsi_directions, build_rci
        from test_model import correlated_instance

        for inst in (make_instance(401), correlated_instance(403),
                     make_instance(405, n_tx=6, n_users=6)):
            n = inst.n_users
            qos = QoSSpec.from_db(5.0, 0.05, n)
            for b in (build_zf(inst.est_channels),
                      build_rci(inst.est_channels, 0.01 * n),
                      build_pcsi_directions(inst.est_channels, qos, inst.noise_var)):
                yield inst, b, qos

    def test_form_matches_build_outage_form(self):
        rng = np.random.default_rng(7)
        for inst, b, qos in self.setups():
            oracle = OutageOracle(inst, b, qos)
            for _ in range(4):
                p = rng.uniform(0.2, 3.0, inst.n_users) * 0.01 * qos.gamma
                for k in range(inst.n_users):
                    ref = build_outage_form(inst, b, PowerAllocation(powers=p), qos, k)
                    got = oracle.form(p, k)
                    for name in ("Q", "r", "a"):
                        want = getattr(ref, name)
                        err = np.max(np.abs(getattr(got, name) - want))
                        assert err <= 1e-13 * np.max(np.abs(want)), name
                    # v = c . g_k - sigma_k^2 cancels against the noise
                    noise = float(inst.noise_var[k])
                    assert abs(got.v - ref.v) <= 1e-13 * (abs(ref.v) + noise)
                    quad = abs(float(np.real(ref.a.conj() @ ref.Q @ ref.a)))
                    assert abs(got.tau - ref.tau) <= 1e-13 * (abs(ref.v) + quad)

    def test_one_eigh_per_exact_evaluation(self, monkeypatch):
        inst, b, qos = make_zf_setup(409)
        oracle = OutageOracle(inst, b, qos)
        calls = []
        original = np.linalg.eigh

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        p = 1.3 * 0.01 * qos.gamma
        values = [oracle(p, k) for k in range(3)] + list(oracle.exact_all(p))
        assert len(calls) == 6
        assert oracle.evals == 3
        assert values[:3] == values[3:]

    def test_solver_counts_match_oracle_calls(self, monkeypatch):
        import robustpl.descent

        inst, b, qos = make_zf_setup(9)
        calls = []
        original = robustpl.descent.outage_probability

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(robustpl.descent, "outage_probability", counting)
        report = solve_general(inst, b, qos)
        assert report.solved
        assert report.integral_evals == len(calls)
