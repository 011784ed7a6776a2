import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings

# property tests draw the same examples on every run
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

import robustpl.descent
import robustpl.quadform
from robustpl import (
    QoSSpec,
    ScenarioInstance,
    build_zf,
    generate_rayleigh_channels,
)
from robustpl.model import draw_estimate


def make_instance(seed, n_tx=3, n_users=3, sigma_e2=0.002, sigma2=0.01):
    """Paired channel/estimate draw with isotropic estimation error."""
    rng = np.random.default_rng(seed)
    h = generate_rayleigh_channels(n_tx, n_users, rng)
    est, cov = draw_estimate(h, sigma_e2, rng)
    return ScenarioInstance(true_channels=h, est_channels=est, error_cov=cov,
                            noise_var=np.full(n_users, sigma2))


def make_zf_setup(seed, gamma_db=5.0, epsilon=0.05, **kwargs):
    inst = make_instance(seed, **kwargs)
    return inst, build_zf(inst.est_channels), QoSSpec.from_db(
        gamma_db, epsilon, inst.n_users)


@contextlib.contextmanager
def fixed_contour_offset(beta):
    """Within the block, ``cdf_quadrature`` integrates on the line Re s =
    ``beta``: the contour call of ``robustpl.quadform._pick_beta`` (log
    weight 1) returns beta, and its Chernoff call (log weight 0) still
    minimizes."""
    pick = robustpl.quadform._pick_beta

    def fixed(lam, zt2, tau, log_weight=1.0, moments=None):
        return beta if log_weight == 1.0 else pick(lam, zt2, tau, log_weight, moments)

    with mock.patch.object(robustpl.quadform, "_pick_beta", fixed):
        yield


@contextlib.contextmanager
def strict_step_checks():
    """Within the block, every coordinate step of the descent
    (``robustpl.descent._bisect_user_power``) is followed by two asserted
    invariants: every user's uncounted ``oracle.constraint`` is at least its
    floor - 1e-9, and the total power p . ``oracle.norms2`` did not rise by
    more than 1e-9 max(1, total).  Yields the list of checked steps, each
    (powers array passed in, powers after the step)."""
    search, checked = robustpl.descent._bisect_user_power, []

    def checked_search(oracle, p, k, *args):
        if checked and checked[-1][0] is p:
            # the descent passes its own powers array to every step, so the
            # checked powers are the ones it went on with
            assert np.array_equal(p, checked[-1][1]), "powers changed between coordinate steps"
        new_pk, prob_k, steps = search(oracle, p, k, *args)
        after = p.copy()
        after[k] = new_pk
        probs = np.array([oracle.constraint(after, j) for j in range(after.size)])
        assert np.all(probs >= oracle.floor - 1e-9), "feasibility lost during coordinate step"
        total_before = float(np.dot(p, oracle.norms2))
        total_now = float(np.dot(after, oracle.norms2))
        assert total_now <= total_before + 1e-9 * max(1.0, total_before), \
            "objective increased during coordinate step"
        checked.append((p, after))
        return new_pk, prob_k, steps

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(robustpl.descent, "_bisect_user_power", checked_search)
        yield checked


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
