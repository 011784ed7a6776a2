import ast
import pickle
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import robustpl.model
import robustpl.zf

from robustpl import (
    BeamformerMatrix,
    Diverged,
    PowerAllocation,
    QoSSpec,
    ScenarioInstance,
    SingularChannel,
    build_outage_form,
    build_pcsi_directions,
    build_rci,
    build_zf,
    complex_normal,
    db_to_linear,
    draw_estimate,
    generate_rayleigh_channels,
    init_powers_pcsi,
    sinr,
    uplink_error_variance,
)
from robustpl.model import psd_inv_sqrt, psd_sqrt

from conftest import make_instance


class TestChannelGeneration:
    def test_deterministic_under_seed(self):
        a = generate_rayleigh_channels(3, 3, 77)
        b = generate_rayleigh_channels(3, 3, 77)
        np.testing.assert_array_equal(a, b)

    def test_unit_average_power(self):
        h = generate_rayleigh_channels(3, 3, np.random.default_rng(0))
        draws = [generate_rayleigh_channels(3, 3, np.random.default_rng(i))
                 for i in range(1200)]
        mean_p = np.mean([np.mean(np.abs(d) ** 2) for d in draws])
        assert 0.97 <= mean_p <= 1.03

    def test_scalar_component_variance(self):
        rng = np.random.default_rng(3)
        vals = np.array([generate_rayleigh_channels(1, 1, rng)[0, 0]
                         for _ in range(10_000)])
        assert abs(np.var(vals.real) - 0.5) < 0.03
        assert abs(np.var(vals.imag) - 0.5) < 0.03


class TestUplinkEstimate:
    def test_error_variance_formula(self):
        assert uplink_error_variance(0.01, 1, 4.99) == pytest.approx(0.002, abs=1e-15)
        assert uplink_error_variance(0.01, 4, 4.99) == pytest.approx(
            0.01 / (0.01 + 19.96), rel=1e-12)

    def test_vanishing_error_at_high_power(self):
        h = generate_rayleigh_channels(2, 2, 1)
        est, cov = draw_estimate(h, uplink_error_variance(0.01, 1, 1e9),
                                 np.random.default_rng(5))
        assert uplink_error_variance(0.01, 1, 1e9) < 1e-10
        assert np.max(np.abs(est - h)) < 1e-3
        assert np.allclose(cov[0], uplink_error_variance(0.01, 1, 1e9) * np.eye(2))

    def test_empirical_error_variance(self):
        h = np.zeros((1, 4), dtype=complex)
        rng = np.random.default_rng(9)
        errs = []
        for _ in range(4000):
            est, _ = draw_estimate(h, uplink_error_variance(0.01, 1, 4.99), rng)
            errs.append(est)
        emp = np.mean(np.abs(np.array(errs)) ** 2)
        assert emp == pytest.approx(0.002, rel=0.1)


class TestBeamformers:
    def test_zf_identity_channel(self):
        b = build_zf(np.eye(2, dtype=complex))
        np.testing.assert_allclose(b.columns, np.eye(2), atol=1e-12)

    def test_zf_diagonal_channel(self):
        b = build_zf(np.diag([2.0, 4.0]).astype(complex))
        np.testing.assert_allclose(b.columns, np.diag([0.5, 0.25]), atol=1e-12)

    def test_zf_inverts_random_channel(self):
        est = generate_rayleigh_channels(3, 3, 11)
        b = build_zf(est)
        np.testing.assert_allclose(est @ b.columns, np.eye(3), atol=1e-9)

    def test_zf_rejects_singular(self):
        est = np.ones((2, 3), dtype=complex)
        with pytest.raises(SingularChannel):
            build_zf(est)

    def test_rci_scalar_case(self):
        b = build_rci(np.eye(2, dtype=complex), 0.02)
        np.testing.assert_allclose(b.columns, np.eye(2) / 1.02, atol=1e-12)

    def test_rci_zero_alpha_matches_zf(self):
        est = generate_rayleigh_channels(3, 3, 13)
        np.testing.assert_allclose(build_rci(est, 0.0).columns,
                                   build_zf(est).columns, atol=1e-12)

    def test_rci_solves_regularized_system(self):
        est = generate_rayleigh_channels(3, 3, 17)
        b = build_rci(est, 0.03)
        gram = est @ est.conj().T + 0.03 * np.eye(3)
        np.testing.assert_allclose(est.conj().T, b.columns @ gram, atol=1e-9)


class TestPcsiDirections:
    def test_single_user_matched_filter(self):
        est = generate_rayleigh_channels(4, 1, 21)
        qos = QoSSpec.from_db(7.0, 0.05, 1)
        b = build_pcsi_directions(est, qos)
        hhat = est[0].conj()
        expected = hhat / np.linalg.norm(hhat)
        # direction defined up to a phase
        overlap = abs(b.columns[:, 0].conj() @ expected)
        assert overlap == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_users_decouple(self):
        est = np.diag([1.5, 0.7, 2.2]).astype(complex)
        qos = QoSSpec.from_db(3.0, 0.05, 3)
        b = build_pcsi_directions(est, qos)
        for k in range(3):
            direction = est[k].conj() / np.linalg.norm(est[k])
            assert abs(b.columns[:, k].conj() @ direction) == pytest.approx(1.0, abs=1e-9)

    def test_targets_met_exactly_with_balance_powers(self):
        est = generate_rayleigh_channels(3, 3, 23)
        qos = QoSSpec(gamma=np.full(3, 2.0), epsilon=np.full(3, 0.05))
        b = build_pcsi_directions(est, qos)
        alloc = init_powers_pcsi(est, b, qos, 0.01)
        for k in range(3):
            val = sinr(est[k], b, alloc, 0.01, k)
            assert val == pytest.approx(2.0, abs=1e-6)

    def test_diverges_on_zero_sweep_budget(self, monkeypatch):
        import robustpl.model

        monkeypatch.setattr(robustpl.model, "MAX_NEWTON_STEPS", 1)
        est = generate_rayleigh_channels(3, 3, 29)
        qos = QoSSpec.from_db(5.0, 0.05, 3)
        with pytest.raises(Diverged):
            build_pcsi_directions(est, qos)


def uplink_draw(data, n_tx, n_users, gamma_min, spread_db):
    """Channels, per-user targets gamma_min * 10^(x/10) with x in [0, spread_db],
    and equal or per-user noise."""
    est = generate_rayleigh_channels(n_tx, n_users, data.draw(st.integers(0, 2**32 - 1)))
    users = dict(min_size=n_users, max_size=n_users)
    gamma = gamma_min * db_to_linear(data.draw(st.lists(st.floats(0.0, spread_db), **users)))
    noise = data.draw(st.one_of(st.just([0.01] * n_users),
                                st.lists(st.floats(1e-3, 1.0), **users)))
    return est, QoSSpec(gamma=gamma, epsilon=np.full(n_users, 0.05)), np.array(noise)


def fixed_point_directions(est, qos, noise_var):
    """Reference: the linear virtual-uplink fixed point
    q_k <- gamma_k / ((1 + gamma_k) h_k^H R_k(q)^-1 h_k), one solve per user,
    to a relative change below 1e-13."""
    k, nt = est.shape
    ratio = qos.gamma / (1.0 + qos.gamma)

    def mmse(q):
        accum = (est.conj().T * q) @ est
        return np.array([np.linalg.solve(noise_var[i] * np.eye(nt) + accum, est[i].conj())
                         for i in range(k)]).T

    q = np.ones(k)
    for _ in range(100_000):
        vecs = mmse(q)
        q_new = ratio / np.real(np.einsum("in,ni->i", est, vecs))
        done = np.max(np.abs(q_new - q) / q_new) < 1e-13
        q = q_new
        if done:
            break
    else:
        raise AssertionError("reference fixed point did not converge")
    vecs = mmse(q)
    return vecs / np.linalg.norm(vecs, axis=0)


class TestPcsiNewton:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
           st.data())
    def test_balance_powers_meet_every_target(self, dims, data):
        n_tx, n_users = dims
        est, qos, noise = uplink_draw(data, n_tx, n_users, 1.0, 40.0)
        b = build_pcsi_directions(est, qos)
        alloc = init_powers_pcsi(est, b, qos, noise)
        for k in range(n_users):
            val = sinr(est[k], b, alloc, noise[k], k)
            assert val == pytest.approx(qos.gamma[k], rel=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), st.integers(n + 1, 7))),
           st.data())
    def test_infeasible_uplink_diverges_quickly(self, dims, data):
        # at gamma_min = N / (K - N) every user's gamma / (1 + gamma) is at
        # least N / K, so the sum reaches N, which no q attains
        n_tx, n_users = dims
        est, qos, noise = uplink_draw(data, n_tx, n_users, n_tx / (n_users - n_tx), 30.0)
        start = time.process_time()
        with pytest.raises(Diverged):
            build_pcsi_directions(est, qos)
        assert time.process_time() - start < 0.05

    @pytest.mark.parametrize("seed", range(6))
    def test_per_user_noise_matches_fixed_point(self, seed):
        rng = np.random.default_rng(seed)
        n_tx = 3 + seed % 3
        est = generate_rayleigh_channels(n_tx, 3, rng)
        qos = QoSSpec.from_db(rng.uniform(0.0, 10.0), 0.05, 3)
        noise = 10.0 ** rng.uniform(-3.0, 0.0, 3)
        b = build_pcsi_directions(est, qos)
        # the dual's R = I + sum_j q_j h_j h_j^H does not depend on the noise
        ref = fixed_point_directions(est, qos, np.ones(3))
        # directions are unique up to a phase; both solvers take the MMSE phase
        np.testing.assert_allclose(b.columns, ref, rtol=0, atol=1e-9)
        # so they load with no more downlink power than directions from the
        # per-user R_i = sigma_i^2 I + sum_j q_j h_j h_j^H
        per_user = BeamformerMatrix(columns=fixed_point_directions(est, qos, noise))
        power = [np.dot(init_powers_pcsi(est, d, qos, noise).powers,
                        np.sum(np.abs(d.columns) ** 2, axis=0))
                 for d in (b, per_user)]
        assert power[0] <= power[1] * (1.0 + 1e-9)


class TestSinr:
    def test_single_user(self):
        b = BeamformerMatrix(columns=np.array([[1.0 + 0j]]))
        val = sinr(np.array([1.0 + 0j]), b, PowerAllocation(powers=[4.0]), 0.01, 0)
        assert val == pytest.approx(400.0)

    def test_orthogonal_interferer_ignored(self):
        b = BeamformerMatrix(columns=np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex))
        h = np.array([1.0, 0.0], dtype=complex)
        val = sinr(h, b, PowerAllocation(powers=[2.0, 123.0]), 0.5, 0)
        assert val == pytest.approx(4.0)

    def test_hand_computed_case(self):
        cols = np.array([[1.0, 1 / np.sqrt(2)], [0.0, 1 / np.sqrt(2)]], dtype=complex)
        b = BeamformerMatrix(columns=cols)
        h = np.array([1.0, 0.0], dtype=complex)
        val = sinr(h, b, PowerAllocation(powers=[1.0, 1.0]), 0.5, 0)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_monotonicity_in_powers(self):
        inst = make_instance(31)
        b = build_zf(inst.est_channels)
        rng = np.random.default_rng(6)
        for _ in range(20):
            p = rng.uniform(0.01, 1.0, 3)
            k = int(rng.integers(0, 3))
            base = sinr(inst.true_channels[k], b, PowerAllocation(powers=p), 0.01, k)
            up = p.copy()
            up[k] *= 1.01
            assert sinr(inst.true_channels[k], b, PowerAllocation(powers=up), 0.01, k) > base
            j = (k + 1) % 3
            cross = abs(inst.true_channels[k] @ b.columns[:, j])
            if cross > 1e-6:
                up = p.copy()
                up[j] *= 1.01
                assert sinr(inst.true_channels[k], b,
                            PowerAllocation(powers=up), 0.01, k) < base


class TestOutageForm:
    def test_zf_structure(self):
        inst = make_instance(41)
        b = build_zf(inst.est_channels)
        qos = QoSSpec.from_db(4.0, 0.05, 3)
        p = PowerAllocation(powers=np.array([0.05, 0.07, 0.06]))
        for k in range(3):
            minus_q, a, tau = build_outage_form(inst, b, p, qos, k)
            # the margin's linear term r = -Q a and constant v = tau + a^H Q a
            r, v = minus_q @ a, tau - np.real(a.conj() @ minus_q @ a)
            chalf = psd_sqrt(inst.error_cov[k])
            r_expected = (p.powers[k] / qos.gamma[k]) * (chalf @ b.columns[:, k])
            np.testing.assert_allclose(r, r_expected, atol=1e-9)
            assert v == pytest.approx(
                p.powers[k] / qos.gamma[k] - 0.01, abs=1e-9)
            assert tau == pytest.approx(-0.01, abs=1e-9)

    def test_margin_matches_direct_substitution(self, rng):
        inst = make_instance(43)
        b = build_rci(inst.est_channels, 0.03)
        qos = QoSSpec.from_db(6.0, 0.05, 3)
        p = PowerAllocation(powers=rng.uniform(0.02, 0.3, 3))
        for k in range(3):
            minus_q, a, tau = build_outage_form(inst, b, p, qos, k)
            chalf = psd_sqrt(inst.error_cov[k])
            for _ in range(10):
                delta = complex_normal(rng, 3)
                margin = tau - ((delta - a).conj() @ minus_q @ (delta - a)).real
                h_row = inst.est_channels[k] + (chalf @ delta).conj()
                g = h_row @ b.columns
                direct = (p.powers[k] / qos.gamma[k]) * abs(g[k]) ** 2 \
                    - np.dot(np.abs(np.delete(g, k)) ** 2, np.delete(p.powers, k)) \
                    - 0.01
                assert margin == pytest.approx(direct, abs=1e-10)

    def test_recentred_form_consistency(self):
        inst = make_instance(47)
        b = build_zf(inst.est_channels)
        qos = QoSSpec.from_db(5.0, 0.05, 3)
        p = PowerAllocation(powers=np.array([0.1, 0.2, 0.15]))
        minus_q, a, tau = build_outage_form(inst, b, p, qos, 1)
        # v = h_1^H A h_1 - sigma_1^2 from its definition,
        # A = (p_1 / gamma_1) b_1 b_1^H - sum_{j != 1} p_j b_j b_j^H
        g = inst.est_channels[1] @ b.columns
        v = p.powers[1] / qos.gamma[1] * abs(g[1]) ** 2 \
            - np.dot(np.abs(np.delete(g, 1)) ** 2, np.delete(p.powers, 1)) - 0.01
        tau_re = v + np.real(a.conj() @ minus_q @ a)
        assert tau == pytest.approx(tau_re, abs=1e-10)
        assert np.max(np.abs(minus_q - minus_q.conj().T)) < 1e-12

    def test_joint_scaling_homogeneity(self):
        inst = make_instance(53)
        b = build_rci(inst.est_channels, 0.03)
        qos = QoSSpec.from_db(5.0, 0.05, 3)
        p = np.array([0.05, 0.08, 0.03])
        c = 3.7
        scaled = ScenarioInstance(true_channels=inst.true_channels,
                                  est_channels=inst.est_channels,
                                  error_cov=inst.error_cov,
                                  noise_var=inst.noise_var * c)
        for k in range(3):
            (q1, a1, tau1), (q2, a2, tau2) = (
                build_outage_form(inst, b, PowerAllocation(powers=p), qos, k),
                build_outage_form(scaled, b, PowerAllocation(powers=c * p), qos, k))
            r1, r2 = q1 @ a1, q2 @ a2  # r = -Q a
            v1 = tau1 - np.real(a1.conj() @ q1 @ a1)  # v = tau + a^H Q a
            v2 = tau2 - np.real(a2.conj() @ q2 @ a2)
            np.testing.assert_allclose(q2, c * q1, atol=1e-12)
            np.testing.assert_allclose(r2, c * r1, atol=1e-12)
            assert v2 == pytest.approx(c * v1, rel=1e-10)


class TestInitPowers:
    def test_single_user_closed_form(self):
        est = np.array([[2.0 + 0j]])
        b = build_zf(est)
        qos = QoSSpec(gamma=np.array([2.0]), epsilon=np.array([0.05]))
        alloc = init_powers_pcsi(est, b, qos, 0.01)
        assert sinr(est[0], b, alloc, 0.01, 0) == pytest.approx(2.0, abs=1e-12)
        assert alloc.powers[0] == pytest.approx(0.02, abs=1e-12)

    def test_zf_directions_decouple(self):
        est = generate_rayleigh_channels(3, 3, 59)
        b = build_zf(est)
        qos = QoSSpec(gamma=np.array([1.0, 2.0, 4.0]), epsilon=np.full(3, 0.05))
        alloc = init_powers_pcsi(est, b, qos, 0.01)
        for k in range(3):
            assert sinr(est[k], b, alloc, 0.01, k) == pytest.approx(qos.gamma[k], rel=1e-9)
        np.testing.assert_allclose(alloc.powers, qos.gamma * 0.01, rtol=1e-9)

    def test_rci_powers_hit_targets_on_estimates(self):
        est = generate_rayleigh_channels(3, 3, 61)
        b = build_rci(est, 0.03)
        qos = QoSSpec.from_db(5.0, 0.05, 3)
        alloc = init_powers_pcsi(est, b, qos, 0.01)
        for k in range(3):
            assert sinr(est[k], b, alloc, 0.01, k) == pytest.approx(
                float(qos.gamma[k]), abs=1e-8)

    def test_fallback_on_ill_conditioned_balance(self):
        # two users with the same channel on one shared direction at unit
        # targets: the balance matrix [[1, -1], [-1, 1]] is singular
        est = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)
        b = BeamformerMatrix(columns=np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex))
        qos = QoSSpec(gamma=np.ones(2), epsilon=np.full(2, 0.05))
        alloc = init_powers_pcsi(est, b, qos, np.array([0.01, 0.02]))
        np.testing.assert_array_equal(alloc.powers, qos.gamma * np.array([0.01, 0.02]))

    def test_fallback_on_infeasible_balance(self):
        # two users sharing one direction: the balance system has no
        # positive solution for demanding targets
        est = np.array([[1.0, 0.0], [1.0, 1e-6]], dtype=complex)
        cols = np.array([[1.0, 1.0], [0.0, 1e-6]], dtype=complex)
        b = BeamformerMatrix(columns=cols)
        qos = QoSSpec(gamma=np.array([5.0, 5.0]), epsilon=np.full(2, 0.05))
        alloc = init_powers_pcsi(est, b, qos, 0.01)
        np.testing.assert_array_equal(alloc.powers, qos.gamma * 0.01)


class TestPsdRoots:
    def test_sqrt_reconstructs(self, rng):
        x = complex_normal(rng, 3, 3)
        c = x @ x.conj().T
        root = psd_sqrt(c)
        np.testing.assert_allclose(root @ root, c, atol=1e-10)
        np.testing.assert_allclose(root, root.conj().T, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_inv_sqrt_whitens(self, rng, n):
        for _ in range(20):
            x = complex_normal(rng, n, n)
            c = x @ x.conj().T + 1e-3 * np.eye(n)
            inv_root = psd_inv_sqrt(c)
            np.testing.assert_allclose(inv_root @ c @ inv_root, np.eye(n), atol=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 6), n=st.integers(1, 6))
    def test_stack_equals_single_calls_bitwise(self, seed, k, n):
        # ScenarioInstance.cov_roots decomposes its whole (K, n, n) stack in
        # one call each; every matrix must come out as its own call gives it
        rng = np.random.default_rng(seed)
        x = complex_normal(rng, k, n, n)
        c = x @ x.conj().swapaxes(-1, -2) + 1e-3 * np.eye(n)
        for root in (psd_sqrt, psd_inv_sqrt):
            assert root(c).tobytes() == np.array([root(ck) for ck in c]).tobytes()


class TestEigh:
    """``model.eigh``/``eigvalsh`` call numpy's LAPACK gufuncs without the
    ``np.linalg`` wrapper, and must return its bits."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 6),
           stack=st.sampled_from([(), (1,), (4,)]), complex_=st.booleans(),
           scale=st.sampled_from([1e-8, 1.0, 1e6]))
    def test_bitwise_equal_to_numpy(self, seed, n, stack, complex_, scale):
        rng = np.random.default_rng(seed)
        x = complex_normal(rng, *stack, n, n) if complex_ else rng.standard_normal((*stack, n, n))
        a = scale * (x + np.swapaxes(x, -1, -2).conj())
        w, v = robustpl.model.eigh(a)
        want_w, want_v = np.linalg.eigh(a)
        assert w.dtype == want_w.dtype and v.dtype == want_v.dtype
        assert np.array_equal(w, want_w) and np.array_equal(v, want_v)
        assert np.array_equal(robustpl.model.eigvalsh(a), np.linalg.eigvalsh(a))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # LAPACK's floating-point flags
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("bad, entry", [(np.nan, (2, 0)), (np.inf, (2, 0)), (np.inf, (1, 1))])
    def test_non_finite_lower_triangle_raises(self, dtype, bad, entry):
        # numpy raises on the first two, but returns NaN eigenvalues for an
        # inf on the diagonal
        a = np.tile(np.eye(3, dtype=dtype), (2, 1, 1))
        a[(1, *entry)] = bad
        for helper in (robustpl.model.eigh, robustpl.model.eigvalsh):
            with pytest.raises(np.linalg.LinAlgError):
                helper(a)
            with pytest.raises(np.linalg.LinAlgError):
                helper(a[1])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # LAPACK's floating-point flags
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_nan_on_the_diagonal_can_give_finite_eigenvalues(self, dtype):
        # the helpers reject NaN eigenvalues, not NaN input: eigvalsh, like
        # numpy's, returns finite values here, while eigh returns a NaN
        a = np.eye(3, dtype=dtype)
        a[0, 0] = np.nan
        w = robustpl.model.eigvalsh(a)
        assert np.all(np.isfinite(w)) and np.array_equal(w, np.linalg.eigvalsh(a))
        with pytest.raises(np.linalg.LinAlgError):
            robustpl.model.eigh(a)

    def test_no_numpy_wrapper_call_in_the_package(self):
        # the wrapper costs ~3 us a call: every decomposition goes through
        # the model helpers, which alone touch the private gufunc module
        package = Path(robustpl.model.__file__).parent
        found = []
        for path in sorted(package.glob("*.py")):
            text = path.read_text()
            if path.name != "model.py" and "_umath_linalg" in text:
                found.append(path.name)
            for node in ast.walk(ast.parse(text)):
                wrapper = (isinstance(node, ast.Attribute) and node.attr in ("eigh", "eigvalsh")
                           and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg")
                imported = (isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg"
                            and any(alias.name in ("eigh", "eigvalsh") for alias in node.names))
                if wrapper or imported:
                    found.append(f"{path.name}:{node.lineno}")
        assert found == []


def correlated_instance(seed, n=3):
    """Instance with a different, non-isotropic error covariance per user."""
    rng = np.random.default_rng(seed)
    h = generate_rayleigh_channels(n, n, rng)
    a = complex_normal(rng, n, n, n)
    cov = 0.002 * a @ a.conj().transpose(0, 2, 1)
    return ScenarioInstance(true_channels=h, est_channels=h + 0.05 * complex_normal(rng, n, n),
                            error_cov=cov, noise_var=np.full(n, 0.01))


def rank_two_instance(seed, n=3, sigma_e2=0.002):
    """Estimates h + e with each user's error e ~ CN(0, C_k) of rank 2, so
    the estimate leaves the range of C_k."""
    rng = np.random.default_rng(seed)
    h = generate_rayleigh_channels(n, n, rng)
    a = np.sqrt(sigma_e2) * complex_normal(rng, n, n, 2)
    err = np.einsum("kij,kj->ki", a, complex_normal(rng, n, 2))
    return dict(true_channels=h, est_channels=h + err.conj(),
                error_cov=a @ a.conj().transpose(0, 2, 1), noise_var=np.full(n, 0.01))


class TestPositiveDefiniteCovariance:
    def test_rejects_zero_covariance(self):
        inst = make_instance(37)
        with pytest.raises(ValueError, match="positive definite"):
            ScenarioInstance(true_channels=inst.true_channels, est_channels=inst.est_channels,
                             error_cov=np.zeros_like(inst.error_cov), noise_var=inst.noise_var)

    def test_rejects_rank_deficient_covariance(self):
        # with a pseudo-inverse root in place of C_k^{-1/2}, solve_general
        # certified ZF powers at 5 dB for this draw at (0.9502, 0.9501,
        # 0.9505), while 200,000 Monte Carlo samples at those powers read
        # (0.999, 0.7804, 0.9886)
        with pytest.raises(ValueError, match="positive definite"):
            ScenarioInstance(**rank_two_instance(6))

    def test_accepts_a_small_but_definite_covariance(self):
        fields = rank_two_instance(6)
        fields["error_cov"] = fields["error_cov"] + 1e-9 * np.eye(3)
        ScenarioInstance(**fields)


class TestCachedCovarianceRoots:
    def test_outage_form_bitwise_equals_fresh_roots(self):
        inst = correlated_instance(51)
        b = build_rci(inst.est_channels, 0.03)
        qos = QoSSpec.from_db(5.0, 0.05, 3)
        p = PowerAllocation(powers=np.array([0.05, 0.12, 0.08]))
        for k in range(3):
            minus_q, form_a, tau = build_outage_form(inst, b, p, qos, k)
            chalf = psd_sqrt(inst.error_cov[k])
            cinvhalf = psd_inv_sqrt(inst.error_cov[k])
            hk = inst.est_channels[k].conj()
            a_mat = robustpl.model._signal_interference_matrix(b, p, qos.gamma[k], k)
            q = chalf @ a_mat @ chalf
            q = 0.5 * (q + q.conj().T)
            v = float(np.real(hk.conj() @ a_mat @ hk)) - float(inst.noise_var[k])
            a = -cinvhalf @ hk
            np.testing.assert_array_equal(minus_q, -q)
            np.testing.assert_array_equal(form_a, a)
            assert tau == v - float(np.real(a.conj() @ q @ a))

    def test_roots_computed_once_per_user(self, monkeypatch):
        calls = {"sqrt": 0, "inv_sqrt": 0}

        def counting(name, fn):
            def wrapper(c):
                calls[name] += 1
                return fn(c)
            return wrapper

        monkeypatch.setattr(robustpl.model, "psd_sqrt",
                            counting("sqrt", robustpl.model.psd_sqrt))
        monkeypatch.setattr(robustpl.model, "psd_inv_sqrt",
                            counting("inv_sqrt", robustpl.model.psd_inv_sqrt))
        inst = correlated_instance(53)
        b = build_zf(inst.est_channels)
        qos = QoSSpec.from_db(3.0, 0.05, 3)
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = PowerAllocation(powers=rng.uniform(0.02, 0.2, 3))
            for k in range(3):
                build_outage_form(inst, b, p, qos, k)
                robustpl.zf.SurrogateOracle(inst, b, qos).step(p.powers, k)
                robustpl.model.mc_probability(inst, b, p, qos, k, 10, 0)
        robustpl.zf.SurrogateOracle(inst, b, qos, eta_multiple=-0.1)
        assert calls == {"sqrt": 1, "inv_sqrt": 1}  # one call on the whole stack each

    def test_roots_are_read_only(self):
        inst = correlated_instance(55)
        for roots in inst.cov_roots:
            with pytest.raises(ValueError):
                roots[0, 0, 0] = 1.0

    def test_instance_pickles_with_cached_roots(self):
        inst = correlated_instance(57)
        roots = inst.cov_roots
        clone = pickle.loads(pickle.dumps(inst))
        np.testing.assert_array_equal(clone.error_cov, inst.error_cov)
        for mine, theirs in zip(roots, clone.cov_roots):
            np.testing.assert_array_equal(mine, theirs)


def with_first_entry(array, value):
    """A complex copy of array whose first entry is value."""
    out = np.array(array, dtype=complex)
    out.flat[0] = value
    return out


class TestValidation:
    def test_rejects_non_hermitian_cov(self):
        h = generate_rayleigh_channels(2, 2, 1)
        cov = np.zeros((2, 2, 2), dtype=complex)
        cov[0] = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            ScenarioInstance(true_channels=h, est_channels=h, error_cov=cov,
                             noise_var=np.ones(2))

    @pytest.mark.parametrize("field, value, match", [
        ("est_channels", np.ones((3, 2)), "share a shape"),
        ("error_cov", np.broadcast_to(np.eye(3), (2, 3, 3)), "error_cov must have shape"),
        ("noise_var", np.ones(3), "one entry per user"),
        ("noise_var", np.array([0.01, 0.0]), "must be positive"),
        # non-finite entries once reached the solvers as a "math domain
        # error", or a NaN covariance as "not positive definite"
        ("true_channels", with_first_entry(np.ones((2, 2)), np.nan), "true_channels must be finite"),
        ("est_channels", with_first_entry(np.ones((2, 2)), np.nan), "est_channels must be finite"),
        ("est_channels", with_first_entry(np.ones((2, 2)), np.inf), "est_channels must be finite"),
        ("error_cov", with_first_entry(np.broadcast_to(np.eye(2), (2, 2, 2)), np.nan),
         "error_cov must be finite"),
        ("noise_var", np.array([0.01, np.inf]), "noise_var must be finite"),
        ("noise_var", np.array([np.nan, 0.01]), "noise_var must be finite")])
    def test_rejects_inconsistent_instance(self, field, value, match):
        h = generate_rayleigh_channels(2, 2, 1)
        fields = dict(true_channels=h, est_channels=h,
                      error_cov=np.broadcast_to(np.eye(2), (2, 2, 2)), noise_var=np.ones(2))
        with pytest.raises(ValueError, match=match):
            ScenarioInstance(**{**fields, field: value})

    def test_rejects_bad_qos(self):
        with pytest.raises(ValueError):
            QoSSpec(gamma=np.array([-1.0]), epsilon=np.array([0.05]))
        with pytest.raises(ValueError):
            QoSSpec(gamma=np.array([1.0]), epsilon=np.array([1.5]))
        with pytest.raises(ValueError, match="matching shapes"):
            QoSSpec(gamma=np.ones(3), epsilon=np.full(2, 0.05))

    def test_rejects_zero_beamformer_column(self):
        with pytest.raises(ValueError):
            BeamformerMatrix(columns=np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))

    def test_rejects_a_beamformer_that_is_not_a_matrix(self):
        with pytest.raises(ValueError, match="two-dimensional"):
            BeamformerMatrix(columns=np.ones(3, dtype=complex))

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            PowerAllocation(powers=[-0.1])

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite_power(self, bad):
        with pytest.raises(ValueError, match="finite"):
            PowerAllocation(powers=[0.1, bad])

    @pytest.mark.parametrize("n_tx, n_users", [(0, 2), (2, 0)])
    def test_rejects_an_empty_channel_draw(self, n_tx, n_users):
        with pytest.raises(ValueError, match="at least 1"):
            generate_rayleigh_channels(n_tx, n_users, 1)

    def test_rejects_negative_regularization(self):
        with pytest.raises(ValueError, match="nonnegative"):
            build_rci(generate_rayleigh_channels(2, 2, 1), -0.01)
