"""Closed-form law tests for the stationary-population analytics."""

import math

import numpy as np
import pytest
from scipy import integrate

from cbsfs.model import (
    ModelParams,
    canonical_density,
    extinction_tail,
    kesten_expectation,
    laplace_u,
    tmrca_cdf,
    z0_density,
    z0_moment,
)
from cbsfs.specfun import adaptive_quad

UNIT = ModelParams(beta=1.0, theta=1.0, mu=1.0)


def mean_ancestor_count(params, t):
    """Expected number of non-spine ancestors at time t back: c(t)/theta."""
    return extinction_tail(params, t) / params.theta


class TestModelParams:
    def test_alpha(self):
        assert ModelParams(2.0, 0.5, 3.0).alpha == pytest.approx(1.5)
        assert ModelParams(1.0, 1.0, 0.0).alpha == 0.0

    def test_alpha_where_two_beta_theta_underflows(self):
        # 2 beta theta = 0 in floats: alpha is 0 at mu = 0, undefined above
        assert ModelParams(1e-320, 1e-10, 0.0).alpha == 0.0
        with pytest.raises(FloatingPointError, match="2 beta theta underflows to 0"):
            ModelParams(1e-320, 1e-10, 1e-300).alpha

    @pytest.mark.parametrize("kwargs", [
        {"beta": 0.0, "theta": 1.0},
        {"beta": 1.0, "theta": -1.0},
        {"beta": 1.0, "theta": 1.0, "mu": -0.1},
        {"beta": math.inf, "theta": 1.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)


class TestExtinctionTail:
    def test_vanishes_at_infinity(self):
        assert extinction_tail(UNIT, 100.0) < 1e-10

    def test_value_at_one(self):
        # oracle: 2/(e^2 - 1) evaluated directly in high precision
        assert extinction_tail(UNIT, 1.0) == pytest.approx(0.3130352854993313, rel=1e-14)

    def test_small_time_blowup(self):
        t = 1e-8
        assert t * extinction_tail(UNIT, t) == pytest.approx(1.0 / UNIT.beta, rel=1e-6)

    def test_strictly_decreasing(self):
        ts = np.logspace(-3, 1, 30)
        vals = [extinction_tail(UNIT, t) for t in ts]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            extinction_tail(UNIT, 0.0)


class TestLaplaceU:
    def test_zero_at_zero(self):
        assert laplace_u(UNIT, 1.0, 0.0) == 0.0

    def test_saturates_at_extinction_tail(self):
        assert laplace_u(UNIT, 1.0, 1e9) == pytest.approx(
            extinction_tail(UNIT, 1.0), rel=1e-6
        )

    def test_slope_at_zero_is_survival_mean(self):
        lam = 1e-6
        slope = laplace_u(UNIT, 1.0, lam) / lam
        assert slope == pytest.approx(math.exp(-2.0), abs=1e-5)

    def test_increasing_in_lambda(self):
        lams = np.logspace(-2, 4, 20)
        vals = [laplace_u(UNIT, 0.7, lam) for lam in lams]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_no_overflow_large_t(self):
        assert laplace_u(UNIT, 1e6, 1.0) == pytest.approx(0.0, abs=1e-300)

    def test_domain(self):
        with pytest.raises(ValueError):
            laplace_u(UNIT, 0.0, 1.0)
        with pytest.raises(ValueError):
            laplace_u(UNIT, 1.0, -1.0)


class TestCanonicalDensity:
    @pytest.mark.parametrize("t", [0.5, 1.0, 3.0])
    def test_total_mass_is_extinction_tail(self, t):
        mass = adaptive_quad(lambda r: canonical_density(UNIT, t, r), 0.0, math.inf)
        assert mass == pytest.approx(extinction_tail(UNIT, t), abs=1e-9)

    @pytest.mark.parametrize("t", [0.5, 1.0, 3.0])
    def test_first_moment_is_survival_mean(self, t):
        mean = adaptive_quad(lambda r: r * canonical_density(UNIT, t, r), 0.0, math.inf)
        assert mean == pytest.approx(math.exp(-2.0 * t), abs=1e-9)

    def test_positive_decreasing_in_r(self):
        rs = np.linspace(0.01, 5, 40)
        vals = [canonical_density(UNIT, 1.0, r) for r in rs]
        assert all(v > 0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            canonical_density(UNIT, 0.0, 1.0)
        with pytest.raises(ValueError):
            canonical_density(UNIT, 1.0, 0.0)


class TestMeanAncestorCount:
    def test_definition(self):
        params = ModelParams(0.7, 2.3, 0.0)
        assert mean_ancestor_count(params, 1.3) == extinction_tail(params, 1.3) / 2.3

    def test_value(self):
        assert mean_ancestor_count(UNIT, 1.0) == pytest.approx(0.3130352854993313, rel=1e-14)

    def test_poisson_mixture_oracle(self):
        # ancestor count given size z is Poisson(c(t) z); mixing over the
        # stationary Gamma(2, 2 theta) size reproduces c(t)/theta
        rng = np.random.default_rng(91)
        t = 1.0
        c = extinction_tail(UNIT, t)
        z = rng.gamma(2.0, 1.0 / (2.0 * UNIT.theta), size=100_000)
        counts = rng.poisson(c * z)
        se = counts.std(ddof=1) / math.sqrt(len(counts))
        assert abs(counts.mean() - mean_ancestor_count(UNIT, t)) < 3.0 * se


class TestTmrcaCdf:
    def test_limits(self):
        assert tmrca_cdf(UNIT, 1e3, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert tmrca_cdf(UNIT, 1e-12, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_value(self):
        # oracle: exp(-2/(e^2 - 1))
        assert tmrca_cdf(UNIT, 1.0, 1.0) == pytest.approx(0.731224110505803, rel=1e-12)

    def test_exponential_in_z(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            t, z = rng.uniform(0.1, 4.0), rng.uniform(0.1, 6.0)
            assert tmrca_cdf(UNIT, t, z) == pytest.approx(
                tmrca_cdf(UNIT, t, z / 2.0) ** 2, abs=1e-12
            )

    def test_monotonicity(self):
        assert tmrca_cdf(UNIT, 2.0, 1.0) > tmrca_cdf(UNIT, 1.0, 1.0)
        assert tmrca_cdf(UNIT, 1.0, 2.0) < tmrca_cdf(UNIT, 1.0, 1.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            tmrca_cdf(UNIT, 1.0, 0.0)


class TestStationaryMarginal:
    def test_moments(self):
        params = ModelParams(1.0, 0.5, 0.0)
        assert z0_moment(params, 0) == 1.0
        assert z0_moment(params, 1) == pytest.approx(1.0 / params.theta, rel=1e-14)
        assert z0_moment(UNIT, 3) == pytest.approx(24.0 / 8.0, rel=1e-14)

    def test_density_normalized(self):
        params = ModelParams(1.0, 0.8, 0.0)
        mass = adaptive_quad(lambda z: z0_density(params, z), 0.0, math.inf)
        assert mass == pytest.approx(1.0, abs=1e-10)

    def test_moment_matches_quadrature(self):
        val = adaptive_quad(lambda z: z**3 * z0_density(UNIT, z), 0.0, math.inf)
        assert z0_moment(UNIT, 3) == pytest.approx(val, rel=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            z0_density(UNIT, 0.0)
        with pytest.raises(ValueError):
            z0_moment(UNIT, -1)


class TestKestenExpectation:
    def test_unit_mass(self):
        assert kesten_expectation(UNIT, 1.0, lambda r: 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_zero_function(self):
        assert kesten_expectation(UNIT, 0.5, lambda r: 0.0) == 0.0

    def test_identity_function_vs_oracles(self):
        # closed oracle: e^{2bt} int r^2 q_t dr = (1 - e^{-2 beta theta t})/theta;
        # plus an independent quadrature with a different scheme
        t = 0.8
        result = kesten_expectation(UNIT, t, lambda r: r)
        closed = -math.expm1(-2.0 * t) / UNIT.theta
        assert result == pytest.approx(closed, abs=1e-9)
        grow = math.exp(2.0 * t)
        oracle, _ = integrate.quad(
            lambda r: grow * r * r * canonical_density(UNIT, t, r), 0.0, 60.0
        )
        assert result == pytest.approx(oracle, abs=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            kesten_expectation(UNIT, 0.0, lambda r: 1.0)


class TestCrossOperationConsistency:
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
    def test_laws_agree(self, beta, theta, t):
        params = ModelParams(beta, theta, 0.0)
        c = extinction_tail(params, t)
        assert laplace_u(params, t, 1e10) == pytest.approx(c, rel=1e-6)
        mass = adaptive_quad(lambda r: canonical_density(params, t, r), 0.0, math.inf)
        assert mass == pytest.approx(c, rel=1e-6)
        mean = adaptive_quad(lambda r: r * canonical_density(params, t, r), 0.0, math.inf)
        decay = math.exp(-2.0 * beta * theta * t)
        assert mean == pytest.approx(decay, rel=1e-6)
        lam = 1e-7
        assert laplace_u(params, t, lam) / lam == pytest.approx(decay, rel=1e-5)
