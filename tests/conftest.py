import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from immunoepi import coefficients
from immunoepi.between_host import BetweenHostParams
from immunoepi.within_host import WithinHostParams, manifold_tip

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    # parameter fixtures are frozen dataclasses, safe to share across examples
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
settings.load_profile("suite")

# Reference parameter set used throughout: the bifurcation structure
# (fold at delta ~ 1.2013, oscillation onset at delta ~ 0.5157 for W = 0.9)
# is known in closed form for these rates.
REFERENCE_WITHIN = dict(
    Lambda=1.0, mu=0.1, alpha=1.0, gamma=0.5, delta=0.3,
    epsilon=0.01, kappa=1.0, c=0.5,
)


@pytest.fixture
def paper_within() -> WithinHostParams:
    return WithinHostParams(**REFERENCE_WITHIN)


def make_between(beta_h: float, beta_e: float, **overrides) -> BetweenHostParams:
    """Constant-coefficient epidemic parameter set with closed-form integrals."""
    kwargs = dict(
        r=1.0, mu1=0.1, mu3=0.2,
        beta_h=beta_h, beta_e=beta_e, rho=0.0, sigma=0.5, omega0=5.0,
        mu2=coefficients.constant(0.1),
        xi=coefficients.constant(0.4),
        P=coefficients.constant(1.0),
        g=coefficients.constant(1.0),
        a_bar=30.0,
    )
    kwargs.update(overrides)
    return BetweenHostParams(**kwargs)


def linked_params(rho=0.0):
    """P and g from the within-host branch up to the fold, as in a linked run."""
    within = WithinHostParams(**dict(REFERENCE_WITHIN, kappa=10.0))
    return make_between(
        0.4, 0.05, rho=rho, mu3=0.23, omega0=manifold_tip(within)[1],
        P=coefficients.from_within_host("pathogen_load", within),
        g=coefficients.from_within_host("immune_growth", within),
    )


@pytest.fixture
def direct_params() -> BetweenHostParams:
    # direct transmission only: R0 = 2 * 10(1 - e^{-1/2}) ~ 7.8694
    return make_between(0.2, 0.0)


@pytest.fixture
def env_params() -> BetweenHostParams:
    # adds the reservoir route: R0 ~ 9.4433
    return make_between(0.2, 0.05)


@pytest.fixture
def matched_params() -> BetweenHostParams:
    # direct-only set rescaled so R0 = 2 exactly (up to quadrature)
    return make_between(0.050829881649683994, 0.0)


def random_within(rng: np.random.Generator) -> WithinHostParams:
    """A random but well-scaled within-host parameter draw."""
    return WithinHostParams(
        Lambda=float(rng.uniform(0.5, 3.0)),
        mu=float(rng.uniform(0.05, 1.0)),
        alpha=float(rng.uniform(0.3, 3.0)),
        gamma=float(rng.uniform(0.1, 1.0)),
        delta=float(rng.uniform(0.1, 1.0)),
        epsilon=float(rng.uniform(0.005, 0.05)),
        kappa=float(rng.uniform(0.3, 2.0)),
        c=float(rng.uniform(0.2, 1.0)),
    )
