import numpy as np
import pytest
from hypothesis import settings

# property tests draw the same examples on every run
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

from robustpl import (
    QoSSpec,
    ScenarioInstance,
    build_zf,
    complex_normal,
    generate_rayleigh_channels,
)


def make_instance(seed, n_tx=3, n_users=3, sigma_e2=0.002, sigma2=0.01):
    """Paired channel/estimate draw with isotropic estimation error."""
    rng = np.random.default_rng(seed)
    h = generate_rayleigh_channels(n_tx, n_users, rng)
    est = h + np.sqrt(sigma_e2) * complex_normal(rng, n_users, n_tx)
    cov = np.broadcast_to(sigma_e2 * np.eye(n_tx), (n_users, n_tx, n_tx)).copy()
    return ScenarioInstance(true_channels=h, est_channels=est, error_cov=cov,
                            noise_var=np.full(n_users, sigma2))


def make_zf_setup(seed, gamma_db=5.0, epsilon=0.05, **kwargs):
    inst = make_instance(seed, **kwargs)
    return inst, build_zf(inst.est_channels), QoSSpec.from_db(
        gamma_db, epsilon, inst.n_users)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
