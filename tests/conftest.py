import contextlib
import math
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


def solver_forms():
    """(oracle, powers, k): user k's form at an exact descent's solved powers
    and with p_k scaled up by 5%, 20% and 50%, for ZF and RCI directions on
    3x3 (seeds 700, 701) and 6x6 (seed 700) instances."""
    from robustpl import OutageOracle, build_rci

    for seed, n in ((700, 3), (701, 3), (700, 6)):
        inst, b, qos = make_zf_setup(seed, n_tx=n, n_users=n)
        for beamformer in (b, build_rci(inst.est_channels, n * 0.01)):
            oracle = OutageOracle(inst, beamformer, qos)
            p = robustpl.descent._run_descent(oracle, robustpl.descent._model_start(oracle)).powers.powers
            for k in range(n):
                for scale in (1.0, 1.05, 1.2, 1.5):
                    yield oracle, p * np.where(np.arange(n) == k, scale, 1.0), k


def gil_pelaez(spectrum, tau):
    """(F(tau), its error estimate) by the Gil-Pelaez inversion on the real line,
    F(tau) = 1/2 - (1/pi) int_0^inf Im[e^{-i t tau} phi(t)] / t dt, with phi(t) =
    prod_j exp(i t lam_j |z~_j|^2 / (1 - i t lam_j)) / (1 - i t lam_j), integrated
    by ``scipy.integrate.quad``: no contour, step, cut or rounding model of
    ``cdf_quadrature`` enters it."""
    from scipy.integrate import quad

    lam, zt2 = (np.asarray(x, dtype=float) for x in spectrum)

    def integrand(t):
        d = 1.0 - 1j * t * lam
        return (np.exp(np.sum(1j * t * lam * zt2 / d) - 1j * t * tau) / np.prod(d)).imag / t

    value, error = quad(integrand, 0.0, np.inf, limit=500, epsabs=1e-12, epsrel=1e-12)
    return 0.5 - value / math.pi, error / math.pi


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


def uncounted_read(oracle, powers, k, sigma2=None):
    """``oracle.read(powers, k, sigma2)`` with ``oracle.evals`` restored
    after it: a look at a probability that leaves the solve's count alone."""
    evals = oracle.evals
    try:
        return oracle.read(powers, k, sigma2)
    finally:
        oracle.evals = evals


@contextlib.contextmanager
def strict_step_checks():
    """Within the block, every coordinate step of the descent
    (``robustpl.descent._bisect_user_power``) is followed by two asserted
    invariants: every user's ``uncounted_read`` value is at least its
    floor - 1e-9, and the total power p . ``oracle.norms2`` did not rise by
    more than 1e-9 max(1, total).  Yields the list of checked steps, each
    (powers array passed in, powers after the step)."""
    search, checked = robustpl.descent._bisect_user_power, []

    def checked_search(oracle, p, k, prob_k_current=None):
        if checked and checked[-1][0] is p:
            # the descent passes its own powers array to every step, so the
            # checked powers are the ones it went on with
            assert np.array_equal(p, checked[-1][1]), "powers changed between coordinate steps"
        new_pk, prob_k, steps = search(oracle, p, k, prob_k_current)
        after = p.copy()
        after[k] = new_pk
        probs = np.array([uncounted_read(oracle, after, j)[0] for j in range(after.size)])
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
