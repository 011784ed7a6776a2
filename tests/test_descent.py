import copy
import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import robustpl.bench
import robustpl.descent
import robustpl.model
import robustpl.quadform
from robustpl import (
    ExperimentConfig,
    OutageOracle,
    PowerAllocation,
    ProbabilityEstimate,
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
from robustpl.descent import (JUMP_DAMPING, JUMP_RATIO, MAX_BISECT_STEPS, MAX_CYCLES,
                              MAX_DOUBLINGS, START_AIM, START_RTOL,
                              SaddlepointOracle, _LazyProbs, _bisect_user_power, _find_feasible_start,
                              _model_start, _run_descent, _try_jump)

from robustpl.quadform import ToleranceNotMet, _moments, rotate, saddlepoint_cdf

from conftest import (gil_pelaez, make_instance, make_zf_setup, solver_forms, strict_step_checks,
                      uncounted_read)


def exact_prob(instance, beamformer, qos, powers, k):
    form = build_outage_form(instance, beamformer,
                             PowerAllocation(powers=powers), qos, k)
    return outage_probability(form).value


def exact_descent(instance, beamformer, qos):
    """The exact engine alone from the model start: ``solve_general``
    without its saddlepoint warm start."""
    oracle = OutageOracle(instance, beamformer, qos)
    return _run_descent(oracle, _model_start(oracle))


def model_moments(oracle):
    """(lin, cov_sq): every user's moments of the normal model, E|y_j|^2 and
    Cov(|y_i|^2, |y_j|^2) of y = G_k^H (x - a_k), built on the rotated
    centre b = G_k^H a_k."""
    b = np.einsum("ki,kij->kj", oracle.centres.conj(), oracle.g_mats).conj()
    r = np.einsum("kli,klj->kij", oracle.g_mats.conj(), oracle.g_mats)
    lin = np.einsum("kjj->kj", r).real + np.abs(b) ** 2
    return lin, np.abs(r) ** 2 + 2.0 * np.real(b.conj()[:, :, None] * r * b[:, None, :])


def model_root(oracle, p, k, z):
    """``_model_root`` of user k at p on ``model_moments``."""
    lin, cov_sq = model_moments(oracle)
    return robustpl.descent._model_root(p, k, z, lin[k], cov_sq[k], float(oracle.noise_var[k]),
                                        float(oracle.gamma[k]))


def feasible_start(instance, beamformer, qos):
    """Doubling from the nominal powers: (allocation, feasible)."""
    oracle = OutageOracle(instance, beamformer, qos)
    p_init = init_powers_pcsi(instance.est_channels, beamformer, qos,
                              instance.noise_var)
    probs, _, _, feasible = _find_feasible_start(oracle, p_init.powers)
    return PowerAllocation(powers=probs.p), feasible


def bisect_power(instance, beamformer, qos, alloc, k):
    """User k's power after one search into the exact oracle's band."""
    oracle = OutageOracle(instance, beamformer, qos)
    return _bisect_user_power(oracle, alloc.powers.copy(), k)[0]


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
        again = _run_descent(OutageOracle(inst, b, qos), first.powers.powers)
        assert again.doublings == 0

    def test_hopeless_instance_reports_infeasible(self):
        inst, b, qos = make_zf_setup(105, sigma_e2=0.5, gamma_db=10.0)
        report = solve_general(inst, b, qos)
        assert report.status is SolveStatus.INFEASIBLE_START_NOT_FOUND
        # Monte Carlo confirms the outage constraint is still violated at the
        # power level where the search gave up
        worst = min(mc_probability(inst, b, report.powers, qos, k, 100_000,
                                   [7, k])[0] for k in range(3))
        assert worst < 1.0 - float(qos.epsilon[0])
        assert not feasible_start(inst, b, qos)[1]

    def test_found_point_is_feasible(self):
        inst, b, qos = make_zf_setup(107)
        alloc, feasible = feasible_start(inst, b, qos)
        assert feasible
        for k in range(3):
            assert exact_prob(inst, b, qos, alloc.powers, k) >= 0.95


class RayStub:
    """3 users with floors 0.95 whose probability 0.99 p_k / (p_k + 0.1)
    rises along every ray to 0.99, and whose ``ray_limit`` is ``limit``;
    ``checked`` lists the users it was asked for.  It raises no user alone."""

    floor, norms2, cap = np.full(3, 0.95), np.ones(3), 1e6

    def __init__(self, limit):
        self.limit, self.evals, self.checked = limit, 0, []

    def __call__(self, powers, k):
        self.evals += 1
        return 0.99 * powers[k] / (powers[k] + 0.1)

    def ray_limit(self, powers, k):
        self.evals += 1
        self.checked.append(k)
        return self.limit


class TestRayLimit:
    @pytest.mark.parametrize("surrogate", [False, True])
    @pytest.mark.parametrize("seed, gamma_db, sigma_e2", [
        (111, 5.0, 0.002), (112, 10.0, 0.01), (113, 15.0, 0.05), (114, 10.0, 0.05)])
    def test_bounds_the_probability_along_the_ray(self, surrogate, seed, gamma_db, sigma_e2):
        inst, b, qos = make_zf_setup(seed, gamma_db, sigma_e2=sigma_e2)
        oracle = (SurrogateOracle if surrogate else OutageOracle)(inst, b, qos)
        p = init_powers_pcsi(inst.est_channels, b, qos, inst.noise_var).powers
        for k in range(3):
            limit = oracle.ray_limit(p, k)
            assert oracle.evals == k + 1  # one counted evaluation
            for j in range(13):
                assert limit >= uncounted_read(oracle, 2.0 ** j * p, k)[0] - 1e-12

    def test_uncertified_limit_is_none(self, monkeypatch):
        import robustpl.descent
        import robustpl.zf

        def fails(*args, **kwargs):
            raise ToleranceNotMet("uncertified", None)

        def degenerate(*args):
            raise robustpl.zf.DegenerateSpectrum("collide")

        inst, b, qos = make_zf_setup(115)
        p = np.ones(3)
        monkeypatch.setattr(robustpl.descent, "outage_probability", fails)
        monkeypatch.setattr(robustpl.zf, "residue_probability", degenerate)
        monkeypatch.setattr(robustpl.zf, "cdf_quadrature", fails)
        for oracle in (OutageOracle(inst, b, qos), SurrogateOracle(inst, b, qos),
                       SaddlepointOracle(inst, b, qos)):
            assert oracle.ray_limit(p, 0) is None and oracle.evals == 1

    def test_interference_limited_desk_point_gives_up_after_one_doubling(self, monkeypatch):
        # RCI-General at 10 dB, trial 7 of the desk sweep: the model start's
        # ray saturates below user 0's floor at every scale
        config = ExperimentConfig(n_tx=3, n_users=3, n_trials=8, seed=20240817,
                                  methods=("RCI-General",), training={"L_ut": 1, "P_ut": 4.99},
                                  gamma_db=(10.0,), epsilon=0.05)
        reports = []

        def solving(*args):
            reports.append(solve_general(*args))
            return reports[-1]

        monkeypatch.setattr(robustpl.bench, "solve_general", solving)
        (record,) = robustpl.bench.run_trial(config, 7)
        # without a certificate the start doubles as it did before the limit
        for oracle in (OutageOracle, SaddlepointOracle):
            monkeypatch.setattr(oracle, "ray_limit", lambda self, p, k: None)
        (doubling,) = robustpl.bench.run_trial(config, 7)
        assert record.status == doubling.status == "infeasible_start_not_found"
        assert reports[0].doublings <= 1 < reports[1].doublings
        assert record.integral_evals < doubling.integral_evals

    @pytest.mark.parametrize("limit", [0.95, 0.99])
    def test_limit_at_or_above_the_floor_doubles_as_before(self, limit):
        p_init = np.array([0.05, 0.02, 0.01])  # users reach their floors in turn
        before, stub = RayStub(None), RayStub(limit)
        before.ray_limit = lambda powers, k: None  # no limit read at all
        want, got = _find_feasible_start(before, p_init), _find_feasible_start(stub, p_init)
        assert got[1] == want[1] >= 3 and got[2] == want[2] == 0 and got[3] and want[3]
        assert np.array_equal(got[0].p, want[0].p) and np.array_equal(got[0].values, want[0].values)
        assert not got[0].stale.any()  # every value is fresh on the feasible exit
        assert stub.checked == [0, 1, 2]  # each user once, when first failing
        assert stub.evals == before.evals + len(stub.checked)

    def test_raises_alone_until_the_budget_is_spent_then_doubles(self):
        stub = RayStub(0.99)
        stub.width = np.full(3, 1e-3)
        stub.slope = lambda powers, k: 0.099 / (powers[k] + 0.1) ** 2
        probs, doublings, raises, feasible = _find_feasible_start(
            stub, np.array([0.05, 0.02, 0.01]), raise_budget=2)
        # both raises hit user 0, each clamped to twice its power; user 2
        # then needs 8 doublings to reach 0.95 at p = 2.375
        assert feasible and raises == 2 and doublings == 8
        assert np.array_equal(probs.p, np.array([0.2, 0.02, 0.01]) * 2.0 ** 8)

    def test_limit_below_the_floor_gives_up_at_once(self):
        stub = RayStub(0.95 - 1e-9)
        probs, doublings, raises, feasible = _find_feasible_start(stub, np.array([0.01, 0.02, 0.05]))
        assert not feasible and doublings == 1 and raises == 0 and stub.checked == [0]
        assert np.array_equal(probs.p, [0.02, 0.04, 0.1]) and np.all(np.isfinite(probs.complete()))


class TestModelStart:
    def test_desk_point_the_pcsi_ray_gave_up_on(self):
        # desk trial 2, ZF-General at 8 dB: doubling along the PCSI ray
        # passes the cap 1e6 (1.13e6), yet a certified point needs total power 11
        from robustpl import ExperimentConfig
        from robustpl.bench import run_trial

        config = ExperimentConfig(
            n_tx=3, n_users=3, n_trials=3, seed=20240817, methods=("ZF-General",),
            training={"L_ut": 1, "P_ut": 4.99}, gamma_db=(8.0,), epsilon=0.05)
        [record] = run_trial(config, 2)
        assert record.status == "solved" and record.success
        assert record.total_power == pytest.approx(11.0, rel=0.01)

    @pytest.mark.parametrize("seed", [601, 602, 611])
    def test_uncounted_fixed_point_of_the_model(self, seed):
        inst, b, qos = make_zf_setup(seed, n_tx=6 if seed == 611 else 3,
                                     n_users=6 if seed == 611 else 3)
        oracle = OutageOracle(inst, b, qos)
        p = _model_start(oracle)
        assert oracle.evals == 0 and np.all(p > 0)
        for k in range(p.size):
            z = NormalDist().inv_cdf(1.0 - START_AIM * float(qos.epsilon[k]))
            assert model_root(oracle, p, k, z) == pytest.approx(p[k], rel=10 * START_RTOL)

    def test_missing_root_falls_back_to_the_pcsi_ray(self, monkeypatch):
        inst, b, qos = make_zf_setup(613)
        monkeypatch.setattr(robustpl.descent, "_model_root", lambda *args: None)
        assert _model_start(OutageOracle(inst, b, qos)) is None
        ray = init_powers_pcsi(inst.est_channels, b, qos, inst.noise_var).powers
        report, on_ray = exact_descent(inst, b, qos), _run_descent(OutageOracle(inst, b, qos), ray)
        assert np.array_equal(report.powers.powers, on_ray.powers.powers)
        assert (report.integral_evals, report.doublings) == (on_ray.integral_evals,
                                                            on_ray.doublings)

    @pytest.mark.parametrize("epsilon", [0.01, 0.05, 0.2])
    def test_aim_inside_the_band_of_feasible_probabilities(self, epsilon):
        aim = 1.0 - START_AIM * epsilon
        assert 1.0 - epsilon < aim < 1.0
        inst = make_instance(615)
        b, qos = build_zf(inst.est_channels), QoSSpec.from_db(5.0, epsilon, 3)
        assert np.all(_model_start(OutageOracle(inst, b, qos)) > 0)

    @pytest.mark.parametrize("seed", [700, 701])
    def test_the_model_only_places_the_start(self, seed, monkeypatch):
        # searches probe along slopes and chords, never at a model root
        from robustpl import build_rci

        start, root = robustpl.descent._model_start, robustpl.descent._model_root
        inside, calls = [False], []  # per _model_root call: inside _model_start?

        def starting(oracle):
            inside[0] = True
            try:
                return start(oracle)
            finally:
                inside[0] = False

        def rooting(*args):
            calls.append(inside[0])
            return root(*args)

        monkeypatch.setattr(robustpl.descent, "_model_start", starting)
        monkeypatch.setattr(robustpl.descent, "_model_root", rooting)
        inst, b, qos = make_zf_setup(seed)
        for beamformer in (b, build_rci(inst.est_channels, 0.03)):
            solve_general(inst, beamformer, qos)
        assert calls and all(calls)

    def test_no_oracle_builds_moment_arrays(self):
        # the moment model lives in _model_start alone, and the start and the
        # raise budget are the caller's: no oracle keeps either
        inst, b, qos = make_zf_setup(9)
        for oracle in (OutageOracle(inst, b, qos), SaddlepointOracle(inst, b, qos),
                       SurrogateOracle(inst, b, qos)):
            for name in ("lin", "cov_sq", "model_root", "raise_budget", "raises"):
                assert not hasattr(oracle, name), (type(oracle).__name__, name)


class TestBisection:
    def test_in_band_returns_unchanged(self):
        inst, b, qos = make_zf_setup(109)
        report = solve_general(inst, b, qos)
        pk = bisect_power(inst, b, qos, report.powers, 0)
        assert pk == report.powers.powers[0]

    def test_single_user_band(self):
        inst = make_instance(111, n_tx=1, n_users=1)
        b = build_zf(inst.est_channels)
        qos = QoSSpec.from_db(5.0, 0.05, 1)
        start, feasible = feasible_start(inst, b, qos)
        assert feasible
        pk = bisect_power(inst, b, qos, start, 0)
        prob = exact_prob(inst, b, qos, np.array([pk]), 0)
        assert 0.95 <= prob <= 0.951

    def test_step_guard_bounds_work(self):
        inst, b, qos = make_zf_setup(113)
        start, feasible = feasible_start(inst, b, qos)
        assert feasible
        report = _run_descent(OutageOracle(inst, b, qos), start.powers)
        # one cycle of 3 users, each within the 60-step guard
        assert report.bisection_steps <= report.cycles * 3 * 60

    def test_band_is_a_fiftieth_of_epsilon(self):
        # at eps = 0.05 (band 1e-3) this setup ends with user 0 about 5e-4
        # above its floor; at eps = 0.01 the band is 2e-4
        inst, b, qos = make_zf_setup(113, epsilon=0.01)
        assert np.array_equal(OutageOracle(inst, b, qos).width, np.full(3, 2e-4))
        report = solve_general(inst, b, qos)
        assert report.solved
        assert np.all((report.per_user_prob >= 0.99) & (report.per_user_prob <= 0.99 + 2e-4))


class JumpStub:
    """An oracle of 3 users with floors 0.95 whose probability is 0.96
    where ``ok(powers, k)`` and 0.9 elsewhere; ``calls`` lists (k, powers)."""

    floor = np.full(3, 0.95)

    def __init__(self, ok):
        self.ok, self.calls = ok, []

    def __call__(self, powers, k):
        self.calls.append((k, powers.copy()))
        return 0.96 if self.ok(powers, k) else 0.9


def fresh_probs(oracle, p, values):
    """``_LazyProbs`` at p holding values, every one fresh."""
    probs = _LazyProbs(oracle, p)
    probs.values[:], probs.stale[:] = values, False
    return probs


class TestJump:
    P, P_PREV, LAST = np.array([1.0, 2.0, 3.0]), np.array([1.1, 2.2, 3.1]), [0.97, 0.951, 0.96]

    def attempt(self, ok, totals=(10.0, 8.0, 6.4)):
        """(stub, probs at P, _try_jump's result) at rho = 0.8 by default."""
        stub = JumpStub(ok)
        probs = fresh_probs(stub, self.P.copy(), self.LAST)
        return stub, probs, _try_jump(stub, probs, self.P_PREV, list(totals))

    def test_accepts_where_every_user_meets_its_floor(self):
        stub, probs, jumped = self.attempt(lambda q, k: True)
        omega = JUMP_DAMPING * 0.8 / 0.2
        assert np.allclose(jumped.p, self.P + omega * (self.P - self.P_PREV), rtol=1e-12)
        # lazily, lowest last value first, and every user once
        assert [k for k, _ in stub.calls] == [1, 2, 0]
        assert not jumped.stale.any() and np.all(jumped.values >= stub.floor)
        assert np.array_equal(probs.p, self.P)

    def test_rejects_when_one_user_misses_its_floor(self):
        stub, probs, jumped = self.attempt(lambda q, k: k != 0 or q[0] >= 1.0)
        assert jumped is None

    def test_one_attempt_then_p_and_probs_unchanged(self):
        # user 2 would meet its floor at half the step, which is not tried
        stub, probs, jumped = self.attempt(lambda q, k: k != 2 or q[2] > 2.7)
        assert jumped is None
        # the first failing user stops the one attempt, at the full step
        full = self.P + JUMP_DAMPING * 0.8 / 0.2 * (self.P - self.P_PREV)
        assert [k for k, _ in stub.calls] == [1, 2]
        assert all(np.allclose(q, full, rtol=1e-12) for _, q in stub.calls)
        assert np.array_equal(probs.p, self.P)
        assert np.array_equal(probs.values, self.LAST) and not probs.stale.any()

    @pytest.mark.parametrize("totals", [(10.0, 8.0, 7.02), (10.0, 8.0, 6.0), (10.0, 8.0, 8.0),
                                        (10.0, 10.0, 9.0), (10.0, 10.0, 10.0)],
                             ids=["rho-0.49", "rho-1", "rho-0", "no-first-drop", "stalled"])
    def test_no_jump_with_rho_outside_the_range(self, totals):
        stub, probs, jumped = self.attempt(lambda q, k: True, totals)
        assert jumped is None and stub.calls == []

    def test_rho_at_the_lower_end_jumps(self):
        stub, _, jumped = self.attempt(lambda q, k: True, (10.0, 8.0, 7.0))
        assert jumped is not None and len(stub.calls) == 3

    def test_no_jump_to_a_nonpositive_power(self):
        p_prev = np.array([1.1, 2.2, 4.0])  # the full step takes p_2 below 0
        stub = JumpStub(lambda q, k: True)
        probs = fresh_probs(stub, self.P.copy(), self.LAST)
        assert _try_jump(stub, probs, p_prev, [10.0, 8.0, 6.4]) is None
        assert stub.calls == []

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.01, 10.0), min_size=3, max_size=3),
           st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
           st.floats(JUMP_RATIO, 0.999))
    def test_never_raises_a_power(self, p, shrink, rho):
        p = np.array(p)
        p_prev = p * (1.0 + np.array(shrink))  # searches only lower powers
        stub = JumpStub(lambda q, k: True)
        probs = fresh_probs(stub, p.copy(), 0.96)
        jumped = _try_jump(stub, probs, p_prev, [3.0, 2.0, 2.0 - rho])
        if jumped is not None:
            assert np.all(jumped.p <= p) and np.all(jumped.p > 0.0)

    def test_solves_jump_only_after_two_cycles_to_certified_lower_points(self, monkeypatch):
        import robustpl.descent

        search, jump = robustpl.descent._bisect_user_power, robustpl.descent._try_jump
        since, tried, accepted, reports = [0], [], [], []  # since: searches since start or jump

        def counting(*args):
            since[0] += 1
            return search(*args)

        def recording(oracle, probs, p_prev, totals):
            tried.append(since[0] / probs.p.size)  # whole cycles since the start or a jump
            before = probs.p.copy()
            jumped = jump(oracle, probs, p_prev, totals)
            if jumped is not None:
                accepted.append((oracle, before, jumped.p.copy()))
                since[0] = 0
            return jumped

        monkeypatch.setattr(robustpl.descent, "_bisect_user_power", counting)
        monkeypatch.setattr(robustpl.descent, "_try_jump", recording)
        for name in REFERENCE_CASES:
            since[0] = 0
            inst, b, qos, solver = reference_case(name)
            reports.append(solver(inst, b, qos))
        assert sum(r.jumps for r in reports) == len(accepted) > 0
        assert min(tried) >= 2
        for oracle, before, q in accepted:
            assert np.all(q <= before)
            assert np.all(oracle.exact_all(q) >= oracle.floor)
        for r in reports:
            assert r.jumps == 0 or r.cycles >= 3

    def test_solve_within_two_cycles_tries_no_jump(self, monkeypatch):
        import robustpl.descent

        def failing(*args):
            raise AssertionError("jump tried")

        inst, b, qos, solver = reference_case("3x3-601-5-zf")
        want = solver(inst, b, qos)
        assert want.cycles <= 2
        monkeypatch.setattr(robustpl.descent, "_try_jump", failing)
        assert np.array_equal(solver(inst, b, qos).powers.powers, want.powers.powers)


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


class CurveOracle:
    """An oracle whose user k has probability ``curve(p_k)`` against the
    floor ``floor`` and the band ``width``; ``probes`` lists the p_k read,
    and every read asserts that the other users' powers are ``p``'s."""

    def __init__(self, curve, p, k, floor=FLOOR, width=DELTA):
        self.curve, self.p, self.k, self.probes = curve, p.copy(), k, []
        self.floor, self.width = np.full(p.size, floor), np.full(p.size, width)

    def __call__(self, powers, j):
        assert j == self.k
        np.testing.assert_array_equal(np.delete(powers, j), np.delete(self.p, j))
        self.probes.append(float(powers[j]))
        return self.curve(powers[j])


class TestSearchProperties:
    def test_first_probe_is_the_chord_point(self):
        # P = 1 - exp(-p) from p_k = 4: the chord from (0, 0) to (4, P(4))
        # crosses floor + width/8 at the first probe, and the search lands in
        # the lower quarter of the band [0.9, 0.91]
        p, floor, width = np.array([1.0, 4.0, 2.0]), 0.9, 0.01
        oracle = CurveOracle(lambda x: 1.0 - math.exp(-x), p, 1, floor, width)
        new_pk, prob_k, steps = _bisect_user_power(oracle, p.copy(), 1)
        start = 1.0 - math.exp(-4.0)
        assert oracle.probes[:2] == [4.0, 4.0 * (floor + width / 8) / start]
        assert steps == len(oracle.probes) and new_pk == oracle.probes[-1]
        assert floor <= prob_k == oracle.curve(new_pk) <= floor + width / 4

    @settings(max_examples=300, deadline=None)
    @given(increasing_curves(), st.integers(0, 2), st.booleans())
    def test_lands_feasible_and_in_band(self, drawn, k, cached):
        curve, p_k = drawn
        assume(curve(p_k) >= FLOOR)
        p = np.array([0.3, 2.0, 5.0])
        p[k] = p_k
        oracle = CurveOracle(curve, p, k)
        probes = oracle.probes
        new_pk, prob_k, steps = _bisect_user_power(
            oracle, p.copy(), k, curve(p_k) if cached else None)
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

        def overshooting(oracle, p, k, prob_k_current=None):
            new_pk, prob_k, steps = search(oracle, p, k, prob_k_current)
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
        report = _run_descent(OutageOracle(inst, b, qos), start.powers)
        start_total = float(np.dot(start.powers, np.sum(np.abs(b.columns) ** 2, axis=0)))
        assert report.total_power <= start_total + 1e-12

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

    @pytest.mark.parametrize("epsilon", [1e-3, 1e-4, 1e-6])
    @pytest.mark.parametrize("gamma_db", [0.0, 5.0])
    def test_small_epsilon_lands_in_its_own_band(self, gamma_db, epsilon):
        # the README quickstart's channels: each user's certified value
        # +- its bound lies in [1 - eps, 1 - eps + eps/50], and the bound
        # resolves the band (an absolute band 1e-3 or tolerance 1e-8 does not)
        from robustpl import draw_estimate, generate_rayleigh_channels, uplink_error_variance

        h = generate_rayleigh_channels(n_tx=3, n_users=3, rng_seed=7)
        est, cov = draw_estimate(h, uplink_error_variance(0.01, 1, 4.99), np.random.default_rng(8))
        inst = ScenarioInstance(true_channels=h, est_channels=est, error_cov=cov,
                                noise_var=np.full(3, 0.01))
        b, qos = build_zf(est), QoSSpec.from_db(gamma_db, epsilon, 3)
        report = solve_general(inst, b, qos)
        assert report.status is SolveStatus.SOLVED
        oracle, width = OutageOracle(inst, b, qos), epsilon / 50
        for k in range(3):
            value, bound = oracle.read(report.powers.powers, k)
            assert value == report.per_user_prob_exact[k]
            assert 1.0 - epsilon <= value - bound <= value + bound <= 1.0 - epsilon + width
            assert bound < width / 8
            # an independent reference: the Gil-Pelaez integral on the real line
            spectrum, tau, _ = rotate(oracle.minus_form(report.powers.powers, k))
            ref, error = gil_pelaez(spectrum, tau)
            assert error <= 1e-10
            assert abs(value - ref) <= bound + error


COUNTS = ("cycles", "bisection_steps", "doublings", "jumps", "raises", "integral_evals")


def engine_runs(monkeypatch):
    """Within the test, every ``_run_descent`` call appends (oracle type,
    start, raise budget, a copy of its report) to the returned list."""
    import robustpl.descent

    engine, runs = robustpl.descent._run_descent, []

    def recording(oracle, start, raise_budget=0):
        report = engine(oracle, start, raise_budget)
        runs.append((type(oracle), start, raise_budget, copy.copy(report)))
        return report

    monkeypatch.setattr(robustpl.descent, "_run_descent", recording)
    return runs


def same_point(report, want):
    """report and want (another solve's report) agree in all but counts
    and time."""
    assert report.status is want.status
    assert np.array_equal(report.powers.powers, want.powers.powers)
    assert np.array_equal(report.per_user_prob, want.per_user_prob)
    assert np.array_equal(report.per_user_prob_exact, want.per_user_prob_exact)
    assert report.total_power == want.total_power


class TestWarmStart:
    @pytest.mark.parametrize("seed, n", [(123, 3), (611, 6)])
    def test_exact_descent_certifies_the_saddlepoint_solution(self, seed, n, monkeypatch):
        inst, b, qos = make_zf_setup(seed, n_tx=n, n_users=n)
        runs = engine_runs(monkeypatch)
        report = solve_general(inst, b, qos)
        assert [(kind, start is None) for kind, start, _, _ in runs] == [
            (SaddlepointOracle, False), (OutageOracle, False)]
        saddle, exact = runs[0][3], runs[1][3]
        assert saddle.solved and np.array_equal(runs[1][1], saddle.powers.powers)
        # the saddlepoint band is centred in the true one
        floor, delta = 1.0 - qos.epsilon, qos.epsilon / 50
        assert np.all(saddle.per_user_prob >= floor + delta / 4)
        assert np.all(saddle.per_user_prob <= floor + 3 * delta / 4)
        same_point(report, exact)
        assert report.solved
        assert np.array_equal(report.per_user_prob_exact,
                              OutageOracle(inst, b, qos).exact_all(report.powers.powers))
        for name in COUNTS:
            assert getattr(report, name) == getattr(saddle, name) + getattr(exact, name), name

    @pytest.mark.parametrize("seed, n", [(123, 3), (611, 6), (613, 3)])
    def test_solve_general_chooses_each_stage_start_and_raise_budget(self, seed, n, monkeypatch):
        # the saddlepoint stage starts from _model_start's powers without
        # raises, the exact stage from the first stage's powers with 2K
        inst, b, qos = make_zf_setup(seed, n_tx=n, n_users=n)
        runs = engine_runs(monkeypatch)
        solve_general(inst, b, qos)
        (kind0, start0, budget0, saddle), (kind1, start1, budget1, _) = runs
        assert (kind0, budget0, kind1, budget1) == (SaddlepointOracle, 0, OutageOracle, 2 * n)
        assert np.array_equal(start0, _model_start(SaddlepointOracle(inst, b, qos)))
        assert np.array_equal(start1, saddle.powers.powers)

    @pytest.mark.parametrize("seed, gamma_db", [(110, 10.0), (109, 5.0)])
    def test_user_below_its_floor_is_raised_alone(self, seed, gamma_db, monkeypatch):
        # the saddlepoint solution leaves a user below its exact floor, and
        # raising that user alone certifies the band without a cycle
        inst, b, qos = make_zf_setup(seed, gamma_db)
        runs = engine_runs(monkeypatch)
        report = solve_general(inst, b, qos)
        (_, _, _, saddle), (kind, p0, _, warm) = runs
        assert kind is OutageOracle and warm.solved and warm.cycles == 0
        p = warm.powers.powers
        failing = OutageOracle(inst, b, qos).exact_all(p0) < 1.0 - qos.epsilon
        assert failing.any() and warm.raises >= failing.sum() and warm.doublings == 0
        assert np.array_equal(p > p0, failing) and np.array_equal(p[~failing], p0[~failing])
        assert warm.integral_evals <= 3 * qos.n_users
        assert (report.raises, report.doublings) == (warm.raises, saddle.doublings)

    @pytest.mark.parametrize("seed, gamma_db", [(110, 10.0), (109, 5.0)])
    def test_a_raise_reads_its_user_once(self, seed, gamma_db, monkeypatch):
        # the raise steps from the value first_failing just read, with an
        # uncounted slope: every counted read is one of first_failing's
        class Reads(OutageOracle):
            reads = 0

            def __call__(self, powers, k):
                self.reads += 1
                return super().__call__(powers, k)

        inst, b, qos = make_zf_setup(seed, gamma_db)
        runs = engine_runs(monkeypatch)
        solve_general(inst, b, qos)
        warm = Reads(inst, b, qos)
        _, doublings, raises, feasible = _find_feasible_start(warm, runs[1][1], 2 * qos.n_users)
        assert feasible and doublings == 0 and raises >= 1
        assert warm.evals == warm.reads

    @pytest.mark.parametrize("case", ["no-estimate-feasible", "hopeless-uncertified"])
    def test_failed_saddlepoint_descent_falls_back_to_the_engine(self, case, monkeypatch):
        # the saddlepoint descent never gets feasible and doubles to the cap;
        # the exact stage starts from its last powers
        import robustpl.descent

        if case == "hopeless-uncertified":  # the exact descent gives up there too
            inst, b, qos = make_zf_setup(105, sigma_e2=0.5, gamma_db=10.0)
            monkeypatch.setattr(SaddlepointOracle, "ray_limit", lambda self, p, k: None)
        else:  # the saddlepoint reads 0 everywhere, the exact descent solves
            inst, b, qos = make_zf_setup(123)
            monkeypatch.setattr(robustpl.descent, "saddlepoint_cdf",
                                lambda *args: ProbabilityEstimate(0.0, math.inf))
        runs = engine_runs(monkeypatch)
        report = solve_general(inst, b, qos)
        assert [kind for kind, _, _, _ in runs] == [SaddlepointOracle, OutageOracle]
        (_, _, _, saddle), (_, start, _, exact) = runs
        assert saddle.status is SolveStatus.INFEASIBLE_START_NOT_FOUND
        assert saddle.total_power > OutageOracle(inst, b, qos).cap
        assert np.array_equal(start, saddle.powers.powers)
        same_point(report, exact)
        if case == "hopeless-uncertified":
            assert report.status is SolveStatus.INFEASIBLE_START_NOT_FOUND
            assert np.array_equal(report.powers.powers, saddle.powers.powers)
            assert exact.doublings == exact.raises == 0
        else:
            assert report.solved
            floor = 1.0 - qos.epsilon
            assert np.all((floor <= report.per_user_prob_exact)
                          & (report.per_user_prob_exact <= floor + qos.epsilon / 50))
        for name in COUNTS:
            assert getattr(report, name) == getattr(saddle, name) + getattr(exact, name), name

    def test_cycle_limited_saddlepoint_descent_continues_exactly(self, monkeypatch):
        # the exact stage starts from the saddlepoint descent's last powers
        # whatever its status, so an unsolved end changes nothing
        import robustpl.descent

        inst, b, qos = make_zf_setup(123)
        want = solve_general(inst, b, qos)
        engine = robustpl.descent._run_descent

        def cycle_limited(oracle, start, raise_budget=0):
            report = engine(oracle, start, raise_budget)
            if type(oracle) is SaddlepointOracle:
                report.status = SolveStatus.CYCLE_LIMIT
            return report

        monkeypatch.setattr(robustpl.descent, "_run_descent", cycle_limited)
        runs = engine_runs(monkeypatch)
        report = solve_general(inst, b, qos)
        assert [(kind, start is None, r.status) for kind, start, _, r in runs] == [
            (SaddlepointOracle, False, SolveStatus.CYCLE_LIMIT),
            (OutageOracle, False, SolveStatus.SOLVED)]
        assert np.array_equal(runs[1][1], runs[0][3].powers.powers)
        same_point(report, want)
        for name in COUNTS:
            assert getattr(report, name) == getattr(want, name), name
            assert getattr(report, name) == sum(getattr(r, name) for _, _, _, r in runs), name

    def test_certified_give_up_returns_the_saddlepoint_descent(self, monkeypatch):
        inst, b, qos = make_zf_setup(105, sigma_e2=0.5, gamma_db=10.0)
        want = exact_descent(inst, b, qos)
        runs = engine_runs(monkeypatch)
        report = solve_general(inst, b, qos)
        assert [kind for kind, _, _, _ in runs] == [SaddlepointOracle]
        assert report.status is want.status is SolveStatus.INFEASIBLE_START_NOT_FOUND
        assert report.doublings == want.doublings == 1
        assert np.array_equal(report.per_user_prob_exact,
                              OutageOracle(inst, b, qos).exact_all(report.powers.powers))
        for name in COUNTS:
            assert getattr(report, name) == getattr(runs[0][3], name), name

    def test_saddlepoint_band_follows_epsilon(self):
        # eps = 0.01: the exact band is [0.99, 0.9902], the saddlepoint's its middle half
        inst, b, qos = make_zf_setup(9, epsilon=0.01)
        saddle = SaddlepointOracle(inst, b, qos)
        assert np.array_equal(saddle.width, np.full(3, 1e-4))
        assert np.array_equal(saddle.margin, np.full(3, 5e-5))
        assert np.array_equal(saddle.floor, 1.0 - qos.epsilon + 5e-5)

    def test_saddlepoint_ray_limit_is_the_exact_one_against_its_floors(self):
        # the exact ray limits of this hopeless point are certified
        inst, b, qos = make_zf_setup(105, sigma_e2=0.5, gamma_db=10.0)
        exact, saddle = OutageOracle(inst, b, qos), SaddlepointOracle(inst, b, qos)
        margin = qos.epsilon / 200
        assert np.array_equal(saddle.floor, exact.floor + margin)
        assert not saddle.hopeless
        for p in (np.ones(3), qos.gamma * 0.01, np.array([1e3, 1.0, 1e-3])):
            for k in range(3):
                limit = exact.ray_limit(p, k)
                assert saddle.ray_limit(p, k) == limit + margin[k]
                assert saddle.hopeless == (limit < exact.floor[k])
        assert saddle.evals == exact.evals == 9  # one counted quadrature each

    def test_reads_the_estimate_uncounted_and_quadratures_counted(self, monkeypatch):
        import robustpl.descent

        inst, b, qos = make_zf_setup(9)
        exact, saddle = OutageOracle(inst, b, qos), SaddlepointOracle(inst, b, qos)
        p = qos.gamma * 0.014
        for k in range(3):
            form = saddle.minus_form(p, k)
            assert saddle(p, k) == saddlepoint_cdf(*rotate(form)[:2]).value
            assert saddle.slope(p, k) == exact.slope(p, k) > 0.0
        assert saddle.evals == 0
        # where the estimate is None (near the mean), the quadrature answers
        monkeypatch.setattr(robustpl.descent, "saddlepoint_cdf", lambda *args: None)
        for k in range(3):
            assert saddle(p, k) == uncounted_read(exact, p, k)[0]
        assert saddle.evals == 3


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
                    ref_minus_q, ref_a, ref_tau = build_outage_form(
                        inst, b, PowerAllocation(powers=p), qos, k)
                    if zf:
                        # the residue surrogate's spectrum of -Q
                        want = residue_spectrum(ref_minus_q)
                        got = surrogate.spectrum(p, k)
                        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
                    minus_q, a, tau = oracle.minus_form(p, k)
                    for got, want in ((minus_q, ref_minus_q), (a, ref_a)):
                        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
                    # tau = v - a^H Q a, where v = c . g_k - sigma_k^2
                    noise = float(inst.noise_var[k])
                    g_k = np.abs(inst.est_channels[k] @ b.columns) ** 2
                    c = np.where(np.arange(p.size) == k, p / qos.gamma, -p)  # the signed powers
                    v = float(c @ g_k) - noise
                    quad = abs(float(np.real(ref_a.conj() @ ref_minus_q @ ref_a)))
                    assert abs(tau - ref_tau) <= 1e-13 * (abs(v) + quad)
                    # the noise-free tau of the ray limit
                    tau_free = oracle.minus_form(p, k, 0.0)[2]
                    assert abs(tau_free - (ref_tau + noise)) <= 1e-13 * (abs(v) + quad + noise)

    def test_tau_is_minus_the_noise(self):
        # a_k^H G_k = -h_k^H B for a positive definite C_k, so the form's
        # tau = c . (|h_k^H B|^2 - |a_k^H G_k|^2) - sigma_k^2 is -sigma_k^2
        rng = np.random.default_rng(11)
        for inst, b, qos in self.setups():
            oracle = OutageOracle(inst, b, qos)
            p = rng.uniform(0.2, 3.0, inst.n_users) * 0.01 * qos.gamma
            for k in range(inst.n_users):
                assert oracle.minus_form(p, k)[2] == -float(inst.noise_var[k])
                assert oracle.minus_form(p, k, 0.0)[2] == 0.0

    def test_model_mean_is_the_rotated_centre(self, monkeypatch):
        # the moment model's b = G_k^H a_k, taken as -conj(h_k^H B), and the
        # moments lin and cov_sq built on it, as _model_start hands them to
        # _model_root
        from robustpl import build_rci
        from test_model import correlated_instance

        root, seen = robustpl.descent._model_root, []

        def rooting(p, k, z, lin, cov, *rest):
            seen.append((k, lin, cov))
            return root(p, k, z, lin, cov, *rest)

        monkeypatch.setattr(robustpl.descent, "_model_root", rooting)
        for seed in (403, 407, 409, 411):
            inst = correlated_instance(seed)
            qos = QoSSpec.from_db(5.0, 0.05, inst.n_users)
            for b in (build_zf(inst.est_channels), build_rci(inst.est_channels, 0.03)):
                oracle = OutageOracle(inst, b, qos)
                want = np.einsum("ki,kij->kj", oracle.centres.conj(), oracle.g_mats).conj()
                got = -(inst.est_channels @ b.columns).conj()
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
                lin, cov_sq = model_moments(oracle)
                seen.clear()
                _model_start(oracle)
                assert seen
                for k, got_lin, got_cov in seen:
                    assert np.max(np.abs(got_lin - lin[k])) <= 1e-12 * np.max(lin)
                    assert np.max(np.abs(got_cov - cov_sq[k])) <= 1e-12 * np.max(np.abs(cov_sq))

    def test_one_eigh_per_exact_evaluation(self, monkeypatch):
        inst, b, qos = make_zf_setup(409)
        oracle = OutageOracle(inst, b, qos)
        calls = []
        original = robustpl.model.eigh

        def counting(a):
            calls.append(np.ndim(a))
            return original(a)

        # rotate decomposes the single forms, exact_all the stack
        monkeypatch.setattr(robustpl.quadform, "eigh", counting)
        monkeypatch.setattr(robustpl.descent, "eigh", counting)
        p = 1.3 * 0.01 * qos.gamma
        values = [oracle(p, k) for k in range(3)] + list(oracle.exact_all(p))
        assert calls == [2, 2, 2, 3]  # exact_all: one stacked call
        assert oracle.evals == 3
        assert values[:3] == values[3:]

    def test_constraint_is_bounded_at_the_noise(self):
        # one counted read: the call is ``read``'s value at sigma_k^2 on
        # both oracles
        inst, b, qos = make_zf_setup(409)
        for oracle in (OutageOracle(inst, b, qos), SurrogateOracle(inst, b, qos)):
            for scale in (0.5, 1.3, 4.0):
                p = scale * 0.01 * qos.gamma
                for k in range(3):
                    value = oracle(p, k)
                    assert value == uncounted_read(oracle, p, k, float(inst.noise_var[k]))[0]
            assert oracle.evals == 9

    @pytest.mark.parametrize("n", [3, 6])
    def test_slope_matches_central_difference(self, n):
        # the saddlepoint slope against a central difference of certified
        # values, on the forms of n users with P in [0.9, 0.99] (22 of 3x3,
        # 24 of 6x6): the ratio was within [0.959, 1.066] (on 1,528 forms of
        # seeds 700-729, within [0.916, 1.172])
        checked = 0
        for oracle, p, k in solver_forms():
            if len(p) != n:
                continue
            value, slope = uncounted_read(oracle, p, k)[0], oracle.slope(p, k)
            if not 0.9 <= value <= 0.99:
                continue
            step = 1e-3 * p[k]
            up, down = p.copy(), p.copy()
            up[k] += step
            down[k] -= step
            central = (uncounted_read(oracle, up, k)[0] - uncounted_read(oracle, down, k)[0]) / (2.0 * step)
            assert abs(slope / central - 1.0) <= 0.3
            checked += 1
        assert checked >= 20

    @staticmethod
    def feasible_starts():
        """(oracle, feasible start) on 3x3 and 6x6 setups, ZF and RCI."""
        from robustpl import build_rci

        for n in (3, 6):
            for seed in (801, 802, 803):
                inst, b, qos = make_zf_setup(seed, n_tx=n, n_users=n)
                for directions in (b, build_rci(inst.est_channels, 0.01 * n)):
                    oracle = OutageOracle(inst, directions, qos)
                    p_init = init_powers_pcsi(inst.est_channels, directions, qos,
                                              inst.noise_var)
                    yield oracle, _find_feasible_start(oracle, p_init.powers)[0].p

    def test_model_root_meets_the_aim(self):
        aim = 0.95 + 0.125e-3
        z = NormalDist().inv_cdf(aim)
        no_root = 0
        for oracle, p in self.feasible_starts():
            for k in range(p.size):
                at = p.copy()
                at[k] = model_root(oracle, p, k, z)
                assert at[k] > 0
                # the model's mean and variance are the moments of the form's spectrum
                minus_q, a, tau = oracle.minus_form(at, k)
                lam, vecs = np.linalg.eigh(minus_q)
                mu, s2 = _moments(lam.tolist(), (np.abs(vecs.conj().T @ a) ** 2).tolist())
                assert (tau - mu) / math.sqrt(s2) == pytest.approx(z, rel=1e-9)
                assert abs(uncounted_read(oracle, at, k)[0] - aim) <= 0.05
                # the model's z-score rises towards n1 / sqrt(K_kk) as p_k grows,
                # so an aim past that limit has no root
                lin, cov_sq = model_moments(oracle)
                limit = lin[k, k] / math.sqrt(cov_sq[k, k, k])
                if limit < 7.0:
                    assert model_root(oracle, p, k, 1.001 * limit) is None
                    no_root += 1
        assert no_root >= 3

    def test_surrogate_never_reads_a_slope(self, monkeypatch):
        # the surrogate has no slope: neither ZF solver calls ``slope``,
        # which only the warm exact descent's single-user raises read
        calls, original = [], OutageOracle.slope

        def recording(self, *args):
            calls.append(type(self))
            return original(self, *args)

        monkeypatch.setattr(OutageOracle, "slope", recording)
        inst, b, qos = make_zf_setup(9)
        solve_zf_coord_descent(inst, b, qos)
        solve_zf_coord_update(inst, b, qos)
        assert calls == []
        inst, b, qos = make_zf_setup(110, 10.0)  # a warm start raises a user
        assert solve_general(inst, b, qos).raises == len(calls) > 0
        assert set(calls) == {OutageOracle}

    @pytest.mark.parametrize("method", robustpl.bench.METHODS)
    def test_solver_counts_match_oracle_calls(self, method, monkeypatch):
        # integral_evals is the evaluator calls made through ``read``: every
        # quadrature but ``exact_all``'s certifications, every residue sum
        # that answered and every quadrature that answered in its place; on
        # a solved point and on one every method gives up on (the exact
        # give-up after a counted ray limit, certified by ``exact_all``)
        import robustpl.descent
        import robustpl.zf

        calls = []

        def counting(module, name, unanswered=()):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(1)
                try:
                    return original(*args, **kwargs)
                except unanswered:
                    calls.pop()
                    raise
            monkeypatch.setattr(module, name, wrapper)

        counting(robustpl.descent, "outage_probability")
        counting(robustpl.zf, "residue_probability", robustpl.zf.DegenerateSpectrum)
        counting(robustpl.zf, "cdf_quadrature")
        exact_all = OutageOracle.exact_all
        monkeypatch.setattr(OutageOracle, "exact_all",
                            lambda self, powers: calls.append(-len(powers)) or exact_all(self, powers))
        config = ExperimentConfig(n_tx=3, n_users=3, n_trials=1, seed=0, methods=(method,),
                                  sigma_e2=(0.002,))
        for (inst, b, qos), solved in ((make_zf_setup(9), True),
                                       (make_zf_setup(9, 10.0, sigma_e2=0.05), False)):
            calls.clear()
            _, report = robustpl.bench._run_method(method, inst, inst.est_channels, qos, config)
            assert report.solved is solved
            assert report.integral_evals == sum(calls) > 0

    @pytest.mark.parametrize("solver", [exact_descent, solve_zf_coord_descent,
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


def eager_jump(oracle, p, p_prev, totals, floor):
    """The descent's jump, evaluating every user at the point it tries:
    (q, the probabilities at q), or None."""
    d0, d1 = totals[-3] - totals[-2], totals[-2] - totals[-1]
    rho = d1 / d0 if d0 > 0.0 else 0.0
    if not JUMP_RATIO <= rho < 1.0:
        return None
    q = p + JUMP_DAMPING * rho / (1.0 - rho) * (p - p_prev)
    if not np.all(q > 0.0):
        return None
    at_q = np.array([oracle(q, k) for k in range(p.size)])
    return (q, at_q) if np.all(at_q >= floor) else None


def eager_descent(oracle, beamformer, qos, p_start):
    """Reference: the doubling start and the cycle loop that evaluate every
    user in every doubling round (and the ray limit the start reads) and
    again after every cycle.  A search after an earlier user of its cycle
    moved reads its own start.  Between cycles, two cycles after the start or
    the last accepted jump, it tries the descent's jump, evaluating every
    user at the point tried."""
    norms2 = np.sum(np.abs(beamformer.columns) ** 2, axis=0)
    floor = 1.0 - qos.epsilon
    delta = oracle.width
    p, doublings, order, checked = p_start.copy(), 0, list(range(p_start.size)), set()
    while True:
        probs = np.array([oracle(p, k) for k in range(p.size)])
        feasible = bool(np.all(probs >= floor))
        hopeless = doublings >= MAX_DOUBLINGS or np.dot(p, norms2) > oracle.cap
        # the first user below its floor, in the order of the last round's
        # failing user first, gets its ray limit once from the first doubling on
        k = next((j for j in order if probs[j] < floor[j]), None)
        if not feasible and not hopeless and doublings and k not in checked:
            checked.add(k)
            limit = oracle.ray_limit(p, k)
            hopeless = limit is not None and limit < floor[k]
        if feasible or hopeless:
            break
        order = [k] + [j for j in order if j != k]
        p = 2.0 * p
        doublings += 1
    steps = cycles = jumps = 0
    totals = [float(np.dot(p, norms2))]  # cycle ends since the start or a jump
    status = (SolveStatus.CYCLE_LIMIT if feasible
              else SolveStatus.INFEASIBLE_START_NOT_FOUND)
    while feasible:
        if np.all((probs >= floor) & (probs <= floor + delta)):
            status = SolveStatus.SOLVED
            break
        if cycles >= MAX_CYCLES:
            break
        if len(totals) >= 3 and (jumped := eager_jump(oracle, p, p_before, totals, floor)):
            p, probs = jumped
            jumps, totals = jumps + 1, [float(np.dot(p, norms2))]
            continue
        cycles += 1
        p_before, dirty = p.copy(), False
        for k in range(p.size):
            new_pk, prob_k, s = _bisect_user_power(oracle, p, k, None if dirty else probs[k])
            steps += s
            dirty = dirty or new_pk != p[k]
            p[k], probs[k] = new_pk, prob_k
        probs = np.array([oracle(p, k) for k in range(p.size)])
        totals.append(float(np.dot(p, norms2)))
        if np.max(np.abs(p - p_before)) <= 1e-12 * float(np.max(p)):
            in_band = np.all((probs >= floor) & (probs <= floor + delta))
            status = SolveStatus.SOLVED if in_band else SolveStatus.CYCLE_LIMIT
            break
    return dict(status=status, powers=p, cycles=cycles, bisection_steps=steps,
                doublings=doublings, jumps=jumps, per_user_prob=probs, evals=oracle.evals)


def narrowed(oracle):
    """The oracle with every user's band narrowed to 1e-17, below the
    achievable power resolution, so that its descent stalls."""
    oracle.width = np.full(oracle.floor.size, 1e-17)
    return oracle


def reference_case(name):
    """(instance, beamformer, qos, solver) of a named case, the solver the
    exact engine (``exact_descent``) or the surrogate descent; the "stall"
    case's engine runs on a ``narrowed`` oracle."""
    from robustpl import build_pcsi_directions, build_rci

    if name.startswith("3x3"):
        _, seed, gamma_db, directions = name.split("-")
        inst = make_instance(int(seed))
        qos = QoSSpec.from_db(float(gamma_db), 0.05, 3)
        b = {"zf": lambda: build_zf(inst.est_channels),
             "rci": lambda: build_rci(inst.est_channels, 0.03),
             "pcsi": lambda: build_pcsi_directions(inst.est_channels, qos)}[directions]()
        return inst, b, qos, exact_descent
    inst, b, qos = {
        "6x6": lambda: make_zf_setup(611, n_tx=6, n_users=6),
        "hopeless": lambda: make_zf_setup(105, sigma_e2=0.5, gamma_db=10.0),
        "stall": lambda: make_zf_setup(9),
    }.get(name, lambda: make_zf_setup(613))()
    if name == "stall":
        return inst, b, qos, lambda *problem: _run_descent(
            (oracle := narrowed(OutageOracle(*problem))), _model_start(oracle))
    solver = solve_zf_coord_descent if name == "surrogate" else exact_descent
    return inst, b, qos, solver


REFERENCE_CASES = ([f"3x3-{seed}-{g}-{d}" for seed in (601, 602) for g in (0, 5, 10)
                    for d in ("zf", "rci", "pcsi")]
                   + ["6x6", "hopeless", "stall", "strict", "surrogate"])


class TestLazyEvaluation:
    @pytest.mark.parametrize("name", REFERENCE_CASES)
    def test_matches_eager_reference(self, name):
        inst, b, qos, solver = reference_case(name)
        oracle = (SurrogateOracle(inst, b, qos) if solver is solve_zf_coord_descent
                  else OutageOracle(inst, b, qos))
        if name == "stall":
            narrowed(oracle)
        # the solver's own start: the exact engine's model start, else the PCSI ray
        p_start = None if solver is solve_zf_coord_descent else _model_start(oracle)
        if p_start is None:
            p_start = init_powers_pcsi(inst.est_channels, b, qos, inst.noise_var).powers
        want = eager_descent(oracle, b, qos, p_start)
        if name == "strict":
            with strict_step_checks() as steps:
                report = solver(inst, b, qos)
            assert len(steps) == qos.n_users * report.cycles > 0
        else:
            report = solver(inst, b, qos)
        assert report.status is want["status"]
        assert np.array_equal(report.powers.powers, want["powers"])
        for field in ("cycles", "bisection_steps", "doublings", "jumps"):
            assert getattr(report, field) == want[field], field
        assert np.array_equal(report.per_user_prob, want["per_user_prob"])
        assert report.integral_evals <= want["evals"]

    @pytest.mark.parametrize("name, status", [
        ("hopeless", SolveStatus.INFEASIBLE_START_NOT_FOUND),
        ("stall", SolveStatus.CYCLE_LIMIT),
        ("cycle-limit", SolveStatus.CYCLE_LIMIT)])
    def test_every_exit_reports_fresh_probabilities(self, name, status, monkeypatch):
        import robustpl.descent

        inst, b, qos, solver = reference_case(name)
        if name == "cycle-limit":
            monkeypatch.setattr(robustpl.descent, "MAX_CYCLES", 1)
        report = solver(inst, b, qos)
        assert report.status is status
        if name == "cycle-limit":
            assert report.cycles == 1
        elif name == "stall":
            assert 0 < report.cycles < robustpl.descent.MAX_CYCLES
        p = report.powers.powers
        assert np.all(np.isfinite(report.per_user_prob))
        want = OutageOracle(inst, b, qos).exact_all(p)
        assert np.array_equal(report.per_user_prob, want)


class TestUnitOfPower:
    def test_scaling_noise_and_powers_together_changes_nothing(self):
        # the SINR is invariant under p, sigma^2 -> c p, c sigma^2: with c a
        # power of two far below 1 every solver ends with the same status at
        # c times the powers (RCI's regularization K sigma^2 moves its
        # directions, so it is left out)
        from robustpl import build_pcsi_directions

        c = 2.0 ** -40
        for seed in (9, 601):
            for gamma_db in (0.0, 10.0):
                runs = []
                for sigma2 in (0.01, 0.01 * c):
                    inst, b, qos = make_zf_setup(seed, gamma_db=gamma_db, sigma2=sigma2)
                    pcsi = build_pcsi_directions(inst.est_channels, qos)
                    runs.append([solve_general(inst, b, qos), solve_general(inst, pcsi, qos),
                                 solve_zf_coord_descent(inst, b, qos),
                                 solve_zf_coord_update(inst, b, qos)])
                for plain, scaled in zip(*runs):
                    assert scaled.status is plain.status is SolveStatus.SOLVED
                    assert np.allclose(scaled.powers.powers / c, plain.powers.powers,
                                       rtol=1e-12, atol=0.0)

    def test_scaling_the_noise_moves_no_trial_record(self):
        # run_trial on six desk-style trials at noise 0.01 and 0.01 * 2^-40:
        # the cap 1e8 max sigma^2 scales with the noise, so rows that end at
        # the cap (ZF-CoordUpdate's diverged ones, a model start past it) end
        # alike, and only the powers scale
        from robustpl.bench import run_trial

        c = 2.0 ** -40
        rows = []
        for sigma2 in (0.01, 0.01 * c):
            config = ExperimentConfig(
                n_tx=3, n_users=3, n_trials=6, seed=20240817, sigma2=sigma2, sigma_e2=(0.002,),
                methods=("PCSI-General", "ZF-General", "ZF-CoordDescent", "ZF-CoordUpdate"),
                gamma_db=(0.0, 5.0, 10.0))
            rows.append([rec for trial in range(6) for rec in run_trial(config, trial)])
        assert len(rows[0]) == len(rows[1]) == 72
        for plain, scaled in zip(*rows):
            for name in ("method", "gamma_db", "trial", "status", "success", "cycles",
                         "bisection_steps", "integral_evals"):
                assert getattr(scaled, name) == getattr(plain, name), (plain, name)
            assert scaled.total_power / c == pytest.approx(plain.total_power, rel=1e-12, abs=0.0)
