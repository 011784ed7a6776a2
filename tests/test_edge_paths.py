import math

import numpy as np
import pytest

import robustpl.zf
from robustpl import (BeamformerMatrix, DegenerateSpectrum, Diverged, QoSSpec,
                      ToleranceNotMet, build_pcsi_directions, cdf_quadrature,
                      generate_rayleigh_channels, init_powers_pcsi, residue_probability)
from robustpl.quadform import _log_mag, _moments, _pick_beta

from conftest import fixed_contour_offset


class TestToleranceReporting:
    def test_unreachable_tolerance_raises_with_estimate(self):
        spec = (np.array([0.7, -0.3]), np.array([0.25, 0.25]))
        with pytest.raises(ToleranceNotMet) as err:
            cdf_quadrature(spec, 0.2, tol=1e-16)
        estimate = err.value.estimate
        reference = cdf_quadrature(spec, 0.2, tol=1e-8)
        assert estimate.value == pytest.approx(reference.value, abs=1e-8)
        assert estimate.abs_error_bound > 1e-16


class TestGuards:
    """Each guard below raises or falls back where its input leaves the
    range the computation assumes."""

    def test_newton_step_without_positive_damping_diverges(self, monkeypatch):
        # no real draw reaches this: with every noise share at least 1.5e-8,
        # the Jacobian is an M-matrix and a step falls below -q_k by at most
        # 1 / 1.5e-8 relative; a step of -inf stands in for a broken solve
        solve = np.linalg.solve

        def minus_inf_step(a, b):
            x = solve(a, b)
            return np.full_like(x, -np.inf) if np.ndim(b) == 1 else x

        monkeypatch.setattr(np.linalg, "solve", minus_inf_step)
        est = generate_rayleigh_channels(3, 3, 29)
        with pytest.raises(Diverged, match="no positive damping"):
            build_pcsi_directions(est, QoSSpec.from_db(5.0, 0.05, 3))

    def test_pcsi_powers_fall_back_on_nan_estimates(self):
        # np.linalg.cond raises LinAlgError on a NaN balance matrix
        est = np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex)
        qos = QoSSpec(gamma=np.array([1.0, 2.0]), epsilon=np.full(2, 0.05))
        noise = np.array([0.01, 0.02])
        alloc = init_powers_pcsi(est, BeamformerMatrix(columns=np.eye(2, dtype=complex)), qos, noise)
        np.testing.assert_array_equal(alloc.powers, qos.gamma * noise)

    @pytest.mark.parametrize("log_weight", [0.0, 1.0])
    def test_offset_clamps_below_the_pole(self, log_weight):
        # so deep a left tail that the magnitude still falls at the clamp
        # (1 - 1e-9) / |lam_min|, short of the pole of 1 / det(I + s M)
        lam, zt2, tau = [1.0, -1.0], [0.0, 0.0], -1e12
        beta = _pick_beta(lam, zt2, tau, log_weight)
        assert beta == (1.0 - 1e-9) * 1.0
        assert _log_mag(beta, lam, zt2, tau, log_weight) < _log_mag(0.999, lam, zt2, tau, log_weight)

    def test_offset_search_moves_left_when_the_newton_slope_rounds_to_zero(self):
        # |z~|^2 ~ 3e38 at tau = mean: the terms of d _log_mag / d log(beta)
        # cancel to rounding, the Newton slope vanishes above the minimizer,
        # and the search moves left by 2 in log beta instead
        lam, zt2 = [3734484.768568679], [2.8426926032839188e38]
        tau = _moments(lam, zt2)[0]
        beta = _pick_beta(lam, zt2, tau)
        assert 0.0 < beta < math.inf
        assert math.isfinite(_log_mag(beta, lam, zt2, tau))

    def test_overflowing_contour_magnitude_raises(self):
        # Pr(E <= 1), E ~ Exp(1), on the line Re s = 1000: e^g0 ~ e^986
        spec = (np.array([1.0]), np.array([0.0]))
        with fixed_contour_offset(1000.0), pytest.raises(ValueError, match="e\\^g0 overflows"):
            cdf_quadrature(spec, 1.0)

    def test_form_of_overflowing_variance_raises(self):
        # one eigenvalue 1e200: the variance overflows to inf, so no offset
        # or step can be placed
        with pytest.raises(ValueError, match="mean or variance is not finite"):
            cdf_quadrature((np.array([1e200]), np.array([0.0])), 1e200)

    def test_overflowing_tail_bound_reports_an_unmet_tolerance(self):
        # |z~|^2 ~ 3e38 at tau = mean: at the node cap the tail bound
        # exceeds the largest float, and reads inf
        lam, zt2 = [3734484.768568679], [2.8426926032839188e38]
        with pytest.raises(ToleranceNotMet) as err:
            cdf_quadrature((np.array(lam), np.array(zt2)), _moments(lam, zt2)[0])
        assert err.value.estimate.abs_error_bound == math.inf
        assert 0.0 <= err.value.estimate.value <= 1.0

    def test_residue_sum_out_of_range_raises(self, monkeypatch):
        # the residue sum of separated eigenvalues is a CDF, and the rounding
        # check comes first, so only wrong weights leave [0, 1]: halving them
        # doubles 1 - P = e^{-0.01} / 1.5 to 1.32
        weight = robustpl.zf._residue_weight
        monkeypatch.setattr(robustpl.zf, "_residue_weight",
                            lambda lam, lam_l: (0.5 * weight(lam, lam_l)[0], weight(lam, lam_l)[1]))
        with pytest.raises(DegenerateSpectrum, match="out of range"):
            residue_probability(np.array([1.0, -0.5]), 0.01, 1.0, 0.0)
