import math

import pytest

from tfiv.errors import DomainError
from tfiv.mc_oracle import McConfig, SyntheticDGP, mc_rejection, simulate_iv_dataset
from tfiv.size_engine import (
    NuisancePoint,
    PureAR,
    TFProcedure,
    ThresholdTF,
    rejection_prob,
    rejection_prob_rho1,
)
from tfiv.statistics import core_stats_from_summary, t_squared_identity

Q95 = 3.8414588206941254
SQRT_Q95 = 1.959963984540054


def test_config_validation():
    point = NuisancePoint(rho=0.0, f0=1.0)
    with pytest.raises(DomainError):
        McConfig(n_draws=100, seed=1, point=point)  # too few draws
    with pytest.raises(DomainError):
        McConfig(n_draws=10**4, seed=1.5, point=point)
    with pytest.raises(DomainError):
        McConfig(n_draws=10**4, seed=1, point=(0.0, 1.0))
    for seed in (-1, -(2**63), 2**64):  # Philox refuses negative seeds
        with pytest.raises(DomainError):
            McConfig(n_draws=10**4, seed=seed, point=point)
    for seed in (0, 2**64 - 1):
        McConfig(n_draws=10**4, seed=seed, point=point)
    with pytest.raises(DomainError):
        mc_rejection(PureAR(crit=Q95), "not a config")


def test_dgp_validation():
    SyntheticDGP(n_obs=50, beta=0.0, pi=1.0, rho_uv=0.3)
    with pytest.raises(DomainError):
        SyntheticDGP(n_obs=49, beta=0.0, pi=1.0, rho_uv=0.3)
    with pytest.raises(DomainError):
        SyntheticDGP(n_obs=100, beta=0.0, pi=1.0, rho_uv=1.2)
    with pytest.raises(DomainError):
        SyntheticDGP(n_obs=100, beta=0.0, pi=1.0, rho_uv=0.3, error_scale=0.0)
    dgp = SyntheticDGP(n_obs=100, beta=0.0, pi=0.5, rho_uv=0.3)
    for seed in (-1, 2**64, 1.5):
        with pytest.raises(DomainError):
            simulate_iv_dataset(dgp, seed)


def test_mc_is_deterministic():
    cfg = McConfig(n_draws=10**4, seed=123, point=NuisancePoint(rho=0.4, f0=2.0))
    proc = ThresholdTF(crit=Q95, f_threshold=10.0)
    a = mc_rejection(proc, cfg)
    b = mc_rejection(proc, cfg)
    assert a == b
    c = mc_rejection(proc, McConfig(n_draws=10**4, seed=124, point=cfg.point))
    assert c != a


def test_pure_ar_hits_its_level():
    cfg = McConfig(n_draws=10**5, seed=7, point=NuisancePoint(rho=0.6, f0=1.5))
    est, se = mc_rejection(PureAR(crit=Q95), cfg)
    assert se == pytest.approx(math.sqrt(0.05 * 0.95 / 10**5), rel=0.1)
    assert abs(est - 0.05) <= 4.0 * se


def test_threshold_ridge_point_matches_quadrature():
    f0_star = 10.0 / (math.sqrt(10.0) + SQRT_Q95)
    cfg = McConfig(n_draws=10**5, seed=11, point=NuisancePoint(rho=1.0, f0=f0_star))
    proc = ThresholdTF(crit=Q95, f_threshold=10.0)
    est, se = mc_rejection(proc, cfg)
    exact = rejection_prob_rho1(proc, f0_star)
    assert math.isclose(exact, 0.11313818286955638, rel_tol=1e-9)
    assert abs(est - exact) <= 3.0 * se


@pytest.mark.parametrize("rho", [1.0, -1.0])
def test_degenerate_correlation_lines(rho):
    # At |rho| = 1 the sampler must fall back to the exact one-dimensional
    # law rather than a singular bivariate draw.
    proc = ThresholdTF(crit=Q95, f_threshold=10.0)
    cfg = McConfig(n_draws=10**5, seed=7, point=NuisancePoint(rho=rho, f0=1.2))
    est, se = mc_rejection(proc, cfg)
    exact = rejection_prob_rho1(proc, 1.2)  # mirror-symmetric in rho
    assert abs(est - exact) <= 3.0 * se


def test_tf_procedure_sampled(cvf):
    proc = TFProcedure(cvf=cvf)
    point = NuisancePoint(rho=0.9, f0=4.0)
    cfg = McConfig(n_draws=10**5, seed=3, point=point)
    est, se = mc_rejection(proc, cfg)
    exact = rejection_prob(proc, point).prob
    assert abs(est - exact) <= 3.0 * max(se, 1e-7)


def test_tf_at_zero_strength_is_tame(cvf):
    proc = TFProcedure(cvf=cvf)
    cfg = McConfig(n_draws=10**4, seed=9, point=NuisancePoint(rho=1.0, f0=0.0))
    est, _ = mc_rejection(proc, cfg)
    assert 0.0 <= est <= 0.06


def test_simulated_datasets_close_the_identity():
    dgp = SyntheticDGP(n_obs=200, beta=0.7, pi=0.4, rho_uv=0.5)
    for seed in range(20):
        summary, cs = simulate_iv_dataset(dgp, seed)
        again = core_stats_from_summary(summary)
        assert cs == again
        rhs = t_squared_identity(cs.t_ar, cs.f, cs.rho_hat)
        assert math.isclose(cs.t * cs.t, rhs, rel_tol=1e-12, abs_tol=1e-12)


def test_simulated_datasets_deterministic():
    dgp = SyntheticDGP(n_obs=120, beta=0.0, pi=0.3, rho_uv=-0.4)
    s1, c1 = simulate_iv_dataset(dgp, 42)
    s2, c2 = simulate_iv_dataset(dgp, 42)
    assert s1 == s2 and c1 == c2
    s3, _ = simulate_iv_dataset(dgp, 43)
    assert s3 != s1
