import numpy as np
import pytest

from robustpl import ToleranceNotMet, cdf_quadrature, decompose


class TestToleranceReporting:
    def test_unreachable_tolerance_raises_with_estimate(self):
        spec = decompose(np.diag([0.7, -0.3]), np.array([0.5, 0.5]))
        with pytest.raises(ToleranceNotMet) as err:
            cdf_quadrature(spec, 0.2, tol=1e-16)
        estimate = err.value.estimate
        reference = cdf_quadrature(spec, 0.2, tol=1e-8)
        assert estimate.value == pytest.approx(reference.value, abs=1e-8)
        assert estimate.abs_error_bound > 1e-16
