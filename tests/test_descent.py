import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from robustpl import (
    DescentConfig,
    OutageOracle,
    PowerAllocation,
    QoSSpec,
    ScenarioInstance,
    SolveStatus,
    SurrogateOracle,
    build_outage_form,
    build_zf,
    init_powers_pcsi,
    mc_probability,
    outage_probability,
    residue_spectrum,
    solve_general,
    solve_zf_coord_descent,
    solve_zf_coord_update,
)
from robustpl.descent import (MAX_BISECT_STEPS, MAX_CYCLES, MAX_DOUBLINGS, POWER_CAP,
                              _bisect_user_power, _find_feasible_start)

from conftest import make_instance, make_zf_setup, strict_step_checks


def exact_prob(instance, beamformer, qos, powers, k):
    form = build_outage_form(instance, beamformer,
                             PowerAllocation(powers=powers), qos, k)
    return outage_probability(form).value


def feasible_start(instance, beamformer, qos):
    """Doubling from the nominal powers: (allocation, feasible)."""
    oracle = OutageOracle(instance, beamformer, qos)
    p_init, _ = init_powers_pcsi(instance.est_channels, beamformer, qos,
                                 instance.noise_var)
    p, _, _, feasible = _find_feasible_start(oracle, p_init.powers)
    return PowerAllocation(powers=p), feasible


def bisect_power(instance, beamformer, qos, alloc, k, delta_k):
    """User k's power after one bisection into the band."""
    oracle = OutageOracle(instance, beamformer, qos)
    return _bisect_user_power(oracle, alloc.powers.copy(), k, delta_k,
                              float(qos.epsilon[k]))[0]


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


class TestDescentConfig:
    @pytest.mark.parametrize("delta_min", [pytest.param(0, id="zero"),
                                           pytest.param([1e-3, 2e-3, 1e-3], id="vector")])
    def test_rejects_a_band_that_is_not_a_positive_scalar(self, delta_min):
        with pytest.raises(ValueError, match="delta_min"):
            DescentConfig(delta_min=delta_min)


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
        assert not feasible_start(inst, b, qos)[1]

    def test_found_point_is_feasible(self):
        inst, b, qos = make_zf_setup(107)
        alloc, feasible = feasible_start(inst, b, qos)
        assert feasible
        for k in range(3):
            assert exact_prob(inst, b, qos, alloc.powers, k) >= 0.95


class TestBisection:
    def test_in_band_returns_unchanged(self):
        inst, b, qos = make_zf_setup(109)
        report = solve_general(inst, b, qos)
        pk = bisect_power(inst, b, qos, report.powers, 0, 1e-3)
        assert pk == report.powers.powers[0]

    def test_single_user_band(self):
        inst = make_instance(111, n_tx=1, n_users=1)
        b = build_zf(inst.est_channels)
        qos = QoSSpec.from_db(5.0, 0.05, 1)
        start, feasible = feasible_start(inst, b, qos)
        assert feasible
        pk = bisect_power(inst, b, qos, start, 0, 1e-3)
        prob = exact_prob(inst, b, qos, np.array([pk]), 0)
        assert 0.95 <= prob <= 0.951

    def test_step_guard_bounds_work(self):
        inst, b, qos = make_zf_setup(113)
        start, feasible = feasible_start(inst, b, qos)
        assert feasible
        config = DescentConfig()
        report = solve_general(inst, b, qos, config, p_start=start)
        # one cycle of 3 users, each within the 60-step guard
        assert report.bisection_steps <= report.cycles * 3 * 60


FLOOR, DELTA = 0.95, 1e-3


@st.composite
def increasing_curves(draw):
    """(P, p_k): an increasing probability P of p_k and a feasible p_k.

    P is a logistic in log p_k, a step that jumps across the band, or a
    linear ramp with plateaus at exactly 0 and 1, at scales 1e-6..1e6, with
    or without +-1e-9 of deterministic noise."""
    kind = draw(st.sampled_from(["logistic", "step", "ramp"]))
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))
    if kind == "logistic":
        slope = 10.0 ** draw(st.floats(-0.5, 4.0))
        root = scale * math.exp(math.log(FLOOR / (1.0 - FLOOR)) / slope)

        def curve(x):
            z = min(700.0, slope * (math.log(scale) - math.log(x)))
            return 1.0 / (1.0 + math.exp(z))
    elif kind == "step":
        low = draw(st.sampled_from([0.0, 0.3, FLOOR - 1e-6]))
        high = draw(st.sampled_from([1.0, 0.99, FLOOR + 2 * DELTA]))
        root = scale

        def curve(x):
            return high if x >= scale else low
    else:
        top = scale * (1.0 + 10.0 ** draw(st.floats(-6.0, 3.0)))
        root = scale + FLOOR * (top - scale)

        def curve(x):
            return min(1.0, max(0.0, (x - scale) / (top - scale)))
    if draw(st.booleans()):
        smooth = curve

        def curve(x):
            return min(1.0, max(0.0, smooth(x) + 1e-9 * math.sin(1e3 * x / scale)))
    return curve, root * 10.0 ** draw(st.floats(0.0, 4.0))


class TestSearchProperties:
    @settings(max_examples=300, deadline=None)
    @given(increasing_curves(), st.integers(0, 2), st.booleans())
    def test_lands_feasible_and_in_band(self, drawn, k, cached):
        curve, p_k = drawn
        assume(curve(p_k) >= FLOOR)
        p = np.array([0.3, 2.0, 5.0])
        p[k] = p_k
        probes = []

        def prob(powers, j):
            assert j == k
            np.testing.assert_array_equal(np.delete(powers, k), np.delete(p, k))
            probes.append(float(powers[k]))
            return curve(powers[k])

        new_pk, prob_k, steps = _bisect_user_power(
            prob, p.copy(), k, DELTA, 1.0 - FLOOR, curve(p_k) if cached else None)
        assert steps == len(probes) <= MAX_BISECT_STEPS
        assert all(0.0 < x <= p_k for x in probes)
        lo, hi = 0.0, p_k
        for x in probes[0 if cached else 1:]:
            # 1e-3 of the bracket's width from both ends, up to rounding
            assert min(x - lo, hi - x) >= 1e-3 * (hi - lo) - 4e-16 * hi
            lo, hi = (lo, x) if curve(x) >= FLOOR else (x, hi)
        assert prob_k == curve(new_pk) >= FLOOR
        if curve(p_k) <= FLOOR + DELTA:
            assert new_pk == p_k
            return
        lo = max((x for x in probes if curve(x) < FLOOR), default=0.0)
        jumped = new_pk - lo <= 1e-15 * max(1.0, new_pk)
        assert prob_k <= FLOOR + DELTA / 4 or jumped or steps == MAX_BISECT_STEPS


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
        with strict_step_checks() as steps:
            report = solve_general(inst, b, qos)
        assert report.solved
        assert len(steps) == qos.n_users * report.cycles > 0

    def test_strict_checks_catch_a_step_that_loses_feasibility(self, monkeypatch):
        import robustpl.descent

        search = robustpl.descent._bisect_user_power

        def overshooting(prob, p, k, *args):
            new_pk, prob_k, steps = search(prob, p, k, *args)
            return 0.5 * new_pk, prob_k, steps

        monkeypatch.setattr(robustpl.descent, "_bisect_user_power", overshooting)
        inst, b, qos = make_zf_setup(123)
        with pytest.raises(AssertionError, match="feasibility lost"):
            with strict_step_checks():
                solve_general(inst, b, qos)

    def test_total_power_below_start(self):
        inst, b, qos = make_zf_setup(125)
        start, feasible = feasible_start(inst, b, qos)
        assert feasible
        report = solve_general(inst, b, qos, p_start=start)
        assert report.total_power <= start.total_power(b) + 1e-12

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
                      build_pcsi_directions(inst.est_channels, qos)):
                yield inst, b, qos

    def test_form_matches_build_outage_form(self):
        rng = np.random.default_rng(7)
        for inst, b, qos in self.setups():
            oracle = OutageOracle(inst, b, qos)
            zf = np.allclose(inst.est_channels @ b.columns, np.eye(inst.n_users))
            if zf:
                surrogate = SurrogateOracle(inst, b, qos)
            for _ in range(4):
                p = rng.uniform(0.2, 3.0, inst.n_users) * 0.01 * qos.gamma
                for k in range(inst.n_users):
                    ref = build_outage_form(inst, b, PowerAllocation(powers=p), qos, k)
                    if zf:
                        # the residue surrogate's spectrum of -Q
                        want = residue_spectrum(-ref.Q)
                        got = surrogate.spectrum(p, k)
                        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
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

    @pytest.mark.parametrize("solver", [solve_general, solve_zf_coord_descent,
                                        solve_zf_coord_update])
    def test_one_oracle_per_solve(self, solver, monkeypatch):
        inst, b, qos = make_zf_setup(9)
        built = []
        original = OutageOracle.__init__

        def counting(self, *args, **kwargs):
            built.append(type(self))
            original(self, *args, **kwargs)

        monkeypatch.setattr(OutageOracle, "__init__", counting)
        solver(inst, b, qos)
        assert len(built) == 1

    @pytest.mark.parametrize("solver", [solve_general, solve_zf_coord_descent,
                                        solve_zf_coord_update])
    def test_report_matches_returned_powers(self, solver):
        inst, b, qos = make_zf_setup(9)
        report = solver(inst, b, qos)
        p = report.powers.powers
        norms2 = np.sum(np.abs(b.columns) ** 2, axis=0)
        assert report.total_power == pytest.approx(float(p @ norms2), rel=1e-12)
        for k in range(qos.n_users):
            want = exact_prob(inst, b, qos, p, k)
            assert abs(report.per_user_prob_exact[k] - want) <= 1e-8
        if solver is solve_general:
            assert np.array_equal(report.per_user_prob, report.per_user_prob_exact)


def eager_descent(oracle, beamformer, qos, config, p_start):
    """Reference: the doubling start and the cycle loop that evaluate every
    user in every doubling round and again after every cycle."""
    norms2 = np.sum(np.abs(beamformer.columns) ** 2, axis=0)
    floor = 1.0 - qos.epsilon
    delta = float(config.delta_min)
    p, doublings = p_start.copy(), 0
    while True:
        probs = np.array([oracle(p, k) for k in range(p.size)])
        feasible = bool(np.all(probs >= floor))
        if feasible or doublings >= MAX_DOUBLINGS or np.dot(p, norms2) > POWER_CAP:
            break
        p = 2.0 * p
        doublings += 1
    steps = cycles = 0
    status = (SolveStatus.CYCLE_LIMIT if feasible
              else SolveStatus.INFEASIBLE_START_NOT_FOUND)
    while feasible:
        if np.all((probs >= floor) & (probs <= floor + delta)):
            status = SolveStatus.SOLVED
            break
        if cycles >= MAX_CYCLES:
            break
        cycles += 1
        p_before, dirty = p.copy(), False
        for k in range(p.size):
            new_pk, prob_k, s = _bisect_user_power(
                oracle, p, k, delta, float(qos.epsilon[k]), None if dirty else probs[k])
            steps += s
            dirty = dirty or new_pk != p[k]
            p[k], probs[k] = new_pk, prob_k
        probs = np.array([oracle(p, k) for k in range(p.size)])
        if np.max(np.abs(p - p_before)) <= 1e-12 * max(1.0, float(np.max(p))):
            in_band = np.all((probs >= floor) & (probs <= floor + delta))
            status = SolveStatus.SOLVED if in_band else SolveStatus.CYCLE_LIMIT
            break
    return dict(status=status, powers=p, cycles=cycles, bisection_steps=steps,
                doublings=doublings, per_user_prob=probs, evals=oracle.evals)


def reference_case(name):
    """(instance, beamformer, qos, config, solver) of a named case."""
    from robustpl import build_pcsi_directions, build_rci

    if name.startswith("3x3"):
        _, seed, gamma_db, directions = name.split("-")
        inst = make_instance(int(seed))
        qos = QoSSpec.from_db(float(gamma_db), 0.05, 3)
        b = {"zf": lambda: build_zf(inst.est_channels),
             "rci": lambda: build_rci(inst.est_channels, 0.03),
             "pcsi": lambda: build_pcsi_directions(inst.est_channels, qos)}[directions]()
        return inst, b, qos, DescentConfig(), solve_general
    inst, b, qos = {
        "6x6": lambda: make_zf_setup(611, n_tx=6, n_users=6),
        "hopeless": lambda: make_zf_setup(105, sigma_e2=0.5, gamma_db=10.0),
        "stall": lambda: make_zf_setup(9),
    }.get(name, lambda: make_zf_setup(613))()
    config = DescentConfig(delta_min=1e-17 if name == "stall" else 1e-3)
    solver = solve_zf_coord_descent if name == "surrogate" else solve_general
    return inst, b, qos, config, solver


REFERENCE_CASES = ([f"3x3-{seed}-{g}-{d}" for seed in (601, 602) for g in (0, 5, 10)
                    for d in ("zf", "rci", "pcsi")]
                   + ["6x6", "hopeless", "stall", "strict", "surrogate"])


class TestLazyEvaluation:
    @pytest.mark.parametrize("name", REFERENCE_CASES)
    def test_matches_eager_reference(self, name):
        inst, b, qos, config, solver = reference_case(name)
        oracle = (SurrogateOracle(inst, b, qos) if solver is solve_zf_coord_descent
                  else OutageOracle(inst, b, qos))
        p_start = init_powers_pcsi(inst.est_channels, b, qos, inst.noise_var)[0]
        want = eager_descent(oracle, b, qos, config, p_start.powers)
        if name == "strict":
            with strict_step_checks() as steps:
                report = solver(inst, b, qos, config)
            assert len(steps) == qos.n_users * report.cycles > 0
        else:
            report = solver(inst, b, qos, config)
        assert report.status is want["status"]
        assert np.array_equal(report.powers.powers, want["powers"])
        for field in ("cycles", "bisection_steps", "doublings"):
            assert getattr(report, field) == want[field], field
        assert np.array_equal(report.per_user_prob, want["per_user_prob"])
        assert report.integral_evals <= want["evals"]

    @pytest.mark.parametrize("name, status", [
        ("hopeless", SolveStatus.INFEASIBLE_START_NOT_FOUND),
        ("stall", SolveStatus.CYCLE_LIMIT),
        ("cycle-limit", SolveStatus.CYCLE_LIMIT)])
    def test_every_exit_reports_fresh_probabilities(self, name, status, monkeypatch):
        import robustpl.descent

        inst, b, qos, config, _ = reference_case(name)
        if name == "cycle-limit":
            monkeypatch.setattr(robustpl.descent, "MAX_CYCLES", 1)
        report = solve_general(inst, b, qos, config)
        assert report.status is status
        if name == "cycle-limit":
            assert report.cycles == 1
        elif name == "stall":
            assert 0 < report.cycles < robustpl.descent.MAX_CYCLES
        p = report.powers.powers
        assert np.all(np.isfinite(report.per_user_prob))
        want = OutageOracle(inst, b, qos).exact_all(p)
        assert np.array_equal(report.per_user_prob, want)
