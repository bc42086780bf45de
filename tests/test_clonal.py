"""Closed-form clonal moments against exact rationals and two MC routes."""

import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from cbsfs._mc import Pool, replicate_rng
from cbsfs.clonal import (
    _clonal_replicate,
    clonal_summary,
    e_zcl_pow,
    e_zcl_pow_r,
    mc_clonal,
    u_moment,
    v_representation_check,
    zcl_moment_ratio_scaled,
)
from cbsfs.genealogy import population_tree_length, sample_population, sample_zetas
from cbsfs.model import ModelParams, shrunk_z0_moment, z0_moment
from cbsfs.specfun import beta_fn
from oracles import drawn_records

# alpha = mu/(2 beta theta) = 1
ALPHA_ONE = ModelParams(beta=1.0, theta=1.0, mu=2.0)
ALPHA_HALF = ModelParams(beta=1.0, theta=1.0, mu=1.0)
NO_MUTATION = ModelParams(beta=1.0, theta=1.0, mu=0.0)


@pytest.mark.parametrize("statistic", ["zpow_r", "zpow"])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_replicate_by_replicate_call_is_a_one_block_draw(n, statistic):
    # perfbench/make_reference.py calls the block function with its default
    # count of one: the row is Z0^p e^{-mu L_n} of the one-row block drawn
    # in model units from the same generator, in the units of the parameters
    params = ModelParams(beta=0.7, theta=1.3, mu=1.1)
    for i in range(20):
        row = _clonal_replicate((params, n, statistic), replicate_rng(0, i))
        ((config, zetas),) = drawn_records(n, replicate_rng(0, i), 1)
        z0 = params.size_unit * config.z0
        length = params.time_unit * population_tree_length(config, zetas)
        power = n - 1 if statistic == "zpow_r" else n
        assert row.shape == (1,)
        assert row[0] == pytest.approx(z0**power * math.exp(-params.mu * length), rel=1e-13)


class TestUMoment:
    def test_recursion_drop_one(self):
        # U(k-1, a) = a/(k-1) * Beta(k, a/(1+alpha)) / (1+alpha)^2 at (4, 2, 1)
        k, a, alpha = 4, 2.0, 1.0
        b = a / (1.0 + alpha)
        lhs = u_moment(alpha, k - 1, a)
        rhs = a / (k - 1) * beta_fn(k, b) / (1.0 + alpha) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_recursion_drop_two(self):
        # U(k-2, a) = a(a-1-alpha)/((k-1)(k-2)) * Beta(k, b-1)/(1+alpha)^3
        k, a, alpha = 5, 3.0, 0.5
        b = a / (1.0 + alpha)
        lhs = u_moment(alpha, k - 2, a)
        rhs = a * (a - 1.0 - alpha) / ((k - 1) * (k - 2)) * beta_fn(k, b - 1.0) / (
            1.0 + alpha
        ) ** 3
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_monte_carlo_oracle(self):
        k, a, alpha = 3, 1.0, 1.0
        rng = np.random.default_rng(60)
        u = rng.uniform(size=1_000_000)
        draws = u ** (alpha + a) * (1.0 - u ** (1.0 + alpha)) ** (k - 1)
        se = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(u_moment(alpha, k, a) - draws.mean()) < 3.0 * se

    def test_domain(self):
        with pytest.raises(ValueError):
            u_moment(1.0, 0, 1.0)
        with pytest.raises(ValueError):
            u_moment(-0.1, 2, 1.0)


class TestJointMoment:
    def test_mean_fraction_exact_rational(self):
        # E[R] = 2/((alpha+1)(alpha+2)) = 1/3 at alpha = 1
        expected = Fraction(2, 1) / (Fraction(2) * Fraction(3))
        assert e_zcl_pow_r(ALPHA_ONE, 1) == pytest.approx(float(expected), rel=1e-12)

    def test_mean_fraction_within_ulps_of_the_rational(self):
        # E[R] = 2/((alpha+1)(alpha+2)) from the bracket at n = 1, over a
        # dense grid: its Beta factors nearly cancel at large alpha, and the
        # exponential of their logarithms loses digits at small alpha
        for alpha in np.logspace(-9, 100, 500).tolist():
            params = ModelParams(beta=1.0, theta=0.5, mu=alpha)  # alpha = mu
            e_r = clonal_summary(params)["e_r"]
            assert abs(e_zcl_pow_r(params, 1) - e_r) <= 8 * math.ulp(e_r), alpha

    def test_zero_rate_degenerates_to_size_moment(self):
        for n in (1, 2, 4):
            assert e_zcl_pow_r(NO_MUTATION, n) == pytest.approx(
                z0_moment(NO_MUTATION, n - 1), rel=1e-14
            )

    def test_small_alpha_continuity(self):
        tiny = ModelParams(beta=1.0, theta=1.0, mu=2e-9)  # alpha = 1e-9
        for n in (1, 3, 5):
            assert e_zcl_pow_r(tiny, n) == pytest.approx(
                z0_moment(tiny, n - 1), rel=1e-7
            )

    @pytest.mark.parametrize(
        "params", [ALPHA_ONE, ALPHA_HALF, ModelParams(beta=0.7, theta=1.3, mu=0.05)]
    )
    def test_mpmath_oracle(self, params):
        # the same formula with 40-digit Beta factors and factorials
        with mpmath.workdps(40):
            a = mpmath.mpf(params.alpha)
            for n in range(1, 11):
                bracket = mpmath.beta(n, (2 + a) / (1 + a)) + mpmath.beta(n, a / (1 + a))
                bracket -= 2 / mpmath.mpf(n)
                size = mpmath.factorial(n) / (2 * mpmath.mpf(params.theta)) ** (n - 1)
                ref = a / (1 + a) ** n * bracket * size
                assert float(abs(e_zcl_pow_r(params, n) - ref) / ref) < 1e-13


class TestSizeMoment:
    @pytest.mark.parametrize("theta", [0.3, 1.3, 56.0])
    def test_one_rounding_from_mpmath(self, theta):
        # E[Z0^k] = (k+1)!/(2 theta)^k is one correctly rounded ratio of
        # integers; beyond the float range it is an error that names it
        params = ModelParams(beta=1.0, theta=theta)
        with mpmath.workdps(50):
            for k in range(701):
                ref = mpmath.factorial(k + 1) / (2 * mpmath.mpf(theta)) ** k
                if ref < sys.float_info.max:
                    value = z0_moment(params, k)
                    assert abs(value - ref) <= math.ulp(value) / 2, k
                else:
                    with pytest.raises(FloatingPointError, match=rf"^E\[Z0\^{k}\] is inf"):
                        z0_moment(params, k)

    @pytest.mark.parametrize("alpha", [1e-20, 1e-300])
    def test_shrunk_one_rounding_from_mpmath(self, alpha):
        # (k+1)!/(2 theta (1+alpha))^k is one correctly rounded ratio where
        # 1 + alpha is a long binary fraction: at 1e-300 it holds 1050 bits,
        # which 400 digits hold exactly
        params = ModelParams(beta=1.0, theta=56.0)
        with mpmath.workdps(400):
            scale = 2 * mpmath.mpf(params.theta) * (1 + mpmath.mpf(alpha))
            for k in range(763):
                ref = mpmath.factorial(k + 1) / scale**k
                value = shrunk_z0_moment(params, k, alpha)
                if ref < sys.float_info.max:
                    assert abs(value - ref) <= math.ulp(value) / 2, k
                else:
                    assert value == math.inf, k

    @pytest.mark.parametrize(
        "theta, alpha, k",
        [(8.366671022402741, 4.6333151632981975e-20, 1), (2.6955418017560517, 4.681949476379654e-21, 9)],
    )
    def test_ends_that_round_apart_take_the_exact_ratio(self, theta, alpha, k):
        # E[Z0^k] (1 - k alpha) and E[Z0^k] bound the value and round to two
        # floats here, so neither end is the answer
        size = Fraction(math.factorial(k + 1)) / (2 * Fraction(theta)) ** k
        assert float(size * (1 - k * Fraction(alpha))) != float(size)
        exact = size / (1 + Fraction(alpha)) ** k
        assert shrunk_z0_moment(ModelParams(beta=1.0, theta=theta), k, alpha) == float(exact)


class TestSizeMomentLogGamma:
    @pytest.mark.parametrize("k", [151, 300])
    def test_mpmath_oracle(self, k):
        # large k, where a route through lgamma(k + 2) would lose ~1.5e-13
        # per rounding of a logarithm near 1400; theta = 50 keeps
        # (k+1)!/(2 theta)^k finite at k = 300
        params = ModelParams(beta=1.0, theta=50.0, mu=1.0)
        with mpmath.workdps(40):
            ref = mpmath.factorial(k + 1) / (2 * mpmath.mpf(params.theta)) ** k
            assert float(abs(z0_moment(params, k) - ref) / ref) < 1e-12


def _ratio_six_brackets(alpha: float, n: int, dps: int) -> mpmath.mpf:
    """(1+alpha)^n E[Z_cl^n] / E[Z0^n] as six Beta brackets, each summed
    apart, in mpmath at ``dps`` digits."""
    with mpmath.workdps(dps):
        a = mpmath.mpf(alpha)
        q0 = a / (1 + a)
        b0, b1, b2, b3 = (mpmath.beta(n, q) for q in (q0, 1 / (1 + a), (2 + a) / (1 + a), (3 + a) / (1 + a)))
        nm1_beta = mpmath.gamma(n) * mpmath.gamma(q0) / mpmath.gamma(n - 1 + q0)
        inv_n = 1 / mpmath.mpf(n)
        A = inv_n - b2
        A0 = inv_n - 2 * b2 + b3
        B = a * b0 - 2 * (1 + a) * inv_n + (2 + a) * b2
        A2 = ((1 + a) - (2 + a) * b2 - b1 + (3 + a) * b3) / (2 + a)
        B0 = a * b0 - 3 * (1 + a) * inv_n + 3 * (2 + a) * b2 - (3 + a) * b3
        B2 = (
            a * (1 + a) * nm1_beta - (2 + 2 * a) * (1 + a) * inv_n - 2 * (1 + a) ** 2
            + 2 * (3 + 2 * a) * (2 + a) * b2 + (2 + a) * b1 - (4 + 2 * a) * (3 + a) * b3
        ) / (2 + a)
        return 2 / mpmath.mpf(n + 1) * (3 * A0 + 2 * ((n - 1) * A - A2 + B0) + (n - 2) * B - B2)


class TestMomentRatio:
    @pytest.mark.parametrize("alpha", [1e-9, 0.5, 1.0, 20.0])
    def test_six_bracket_oracle(self, alpha):
        # the bound admits the six brackets summed apart in floats, which
        # lose up to 1.3e-11 at alpha = 20 (n = 50)
        params = ModelParams(beta=1.0, theta=0.5, mu=alpha)  # alpha = mu
        for n in [*range(1, 11), 50, 200]:
            ref = _ratio_six_brackets(alpha, n, 60)
            assert float(abs(zcl_moment_ratio_scaled(params, n) - ref) / ref) < 5e-11, n

    @pytest.mark.parametrize("alpha", [1e-9, 0.5, 1.0, 20.0, 500.0, 1000.0, 1e6, 1e12])
    def test_both_moments_match_mpmath(self, alpha):
        # theta = 1/(1+alpha) keeps E[Z0^n] (1+alpha)^{-n} near (n+1)!/2^n;
        # the Beta brackets cancel to about (1+alpha)^-3, which the digits cover
        params = ModelParams(beta=1.0, theta=1.0 / (1.0 + alpha), mu=2.0 * alpha / (1.0 + alpha))
        dps = 40 + int(4 * math.log10(1.0 + alpha))
        with mpmath.workdps(dps):
            a, theta = mpmath.mpf(params.alpha), mpmath.mpf(params.theta)
            for n in (1, 2, 3, 5, 50, 120):
                size = mpmath.factorial(n) / (2 * theta) ** (n - 1)
                bracket = mpmath.beta(n, (2 + a) / (1 + a)) + mpmath.beta(n, a / (1 + a)) - 2 / mpmath.mpf(n)
                ref_r = a / (1 + a) ** n * bracket * size
                ref = _ratio_six_brackets(params.alpha, n, dps) * (n + 1) * size / (2 * theta * (1 + a) ** n)
                assert float(abs(e_zcl_pow_r(params, n) - ref_r) / ref_r) < 1e-13, n
                assert float(abs(e_zcl_pow(params, n) - ref) / ref) < 1e-13, n


class TestClonalMassMoment:
    def test_first_moment_formula(self):
        # E[Z_cl] = 6/((a+1)(a+2)(a+3)) E[Z0]; exact rational at alpha = 1
        expected = Fraction(6, 2 * 3 * 4)
        assert e_zcl_pow(ALPHA_ONE, 1) == pytest.approx(float(expected), rel=1e-12)
        a = ALPHA_HALF.alpha
        closed = 6.0 / ((a + 1.0) * (a + 2.0) * (a + 3.0)) / ALPHA_HALF.theta
        assert e_zcl_pow(ALPHA_HALF, 1) == pytest.approx(closed, rel=1e-12)

    def test_zero_rate(self):
        for n in (1, 2, 3, 6):
            assert e_zcl_pow(NO_MUTATION, n) == pytest.approx(
                z0_moment(NO_MUTATION, n), rel=1e-14
            )

    def test_small_alpha_continuity(self):
        tiny = ModelParams(beta=1.0, theta=1.0, mu=2e-9)
        for n in (1, 2, 3, 5):
            assert zcl_moment_ratio_scaled(tiny, n) == pytest.approx(1.0, rel=1e-7)

    def test_monte_carlo_tree_route(self):
        # n = 1 is acceptance criterion 6
        for n in (2, 3):
            mean, se = mc_clonal(ALPHA_ONE, n, reps=150_000, seed=62 + n, statistic="zpow")
            assert abs(mean - e_zcl_pow(ALPHA_ONE, n)) < 3.0 * se

    def test_clone_below_whole_population(self):
        for params in (ALPHA_HALF, ALPHA_ONE, ModelParams(1.0, 1.0, 4.0)):
            for n in (1, 2, 5):
                assert 0.0 < e_zcl_pow(params, n) <= z0_moment(params, n)


class TestClonalSummary:
    def test_exact_rationals_at_alpha_one(self):
        summary = clonal_summary(ALPHA_ONE)
        assert summary["e_r"] == pytest.approx(float(Fraction(1, 3)), rel=1e-14)
        assert summary["e_zcl"] == pytest.approx(float(Fraction(1, 4)), rel=1e-14)
        assert summary["cov_r_z0"] == pytest.approx(float(-Fraction(1, 12)), rel=1e-14)
        assert summary["normalized_cov"] == pytest.approx(-0.25, rel=1e-14)

    def test_normalized_covariance_identity(self):
        # Cov(R,Z0)/(E[R] E[Z0]) = -1 + 3/(alpha+3) exactly, for any alpha
        for mu in (0.3, 1.0, 2.0, 7.0):
            params = ModelParams(1.0, 1.0, mu)
            s = clonal_summary(params)
            e_z0 = 1.0 / params.theta
            assert s["cov_r_z0"] / (s["e_r"] * e_z0) == pytest.approx(
                s["normalized_cov"], rel=1e-12
            )

    def test_zero_rate_uncorrelated(self):
        summary = clonal_summary(NO_MUTATION)
        assert summary["cov_r_z0"] == 0.0
        assert summary["e_r"] == pytest.approx(1.0)

    def test_negative_covariance(self):
        for mu in (0.5, 1.0, 3.0, 10.0):
            assert clonal_summary(ModelParams(1.0, 1.0, mu))["cov_r_z0"] < 0.0

    def test_monotone_in_mutation_rate(self):
        mus = [0.25, 0.5, 1.0, 2.0, 4.0]
        e_rs = [clonal_summary(ModelParams(1.0, 1.0, m))["e_r"] for m in mus]
        e_zcls = [clonal_summary(ModelParams(1.0, 1.0, m))["e_zcl"] for m in mus]
        assert all(a > b for a, b in zip(e_rs, e_rs[1:]))
        assert all(a > b for a, b in zip(e_zcls, e_zcls[1:]))

    def test_pearson_correlation_against_monte_carlo(self):
        # Var(R) has no closed form; estimate E[R^2] = E[e^{-mu L_2}] from
        # the genealogy route and reassemble the Pearson coefficient.  It is
        # a different number from normalized_cov: the MC oracle pins it at
        # -0.3425 (alpha = 1), frozen here with a 3-sigma-wide window.
        params = ALPHA_ONE
        rng = np.random.default_rng(63)
        reps = 40_000
        r2 = np.empty(reps)
        for i in range(reps):
            config = sample_population(params, 2, rng)
            zetas = sample_zetas(params, config, rng)
            r2[i] = math.exp(-params.mu * population_tree_length(config, zetas))
        summary = clonal_summary(params)
        var_r = r2.mean() - summary["e_r"] ** 2
        var_z0 = 1.0 / (2.0 * params.theta**2)
        corr_mc = summary["cov_r_z0"] / math.sqrt(var_r * var_z0)
        assert -1.0 < corr_mc < summary["normalized_cov"] < 0.0
        assert corr_mc == pytest.approx(-0.3425, abs=0.01)


class TestVRepresentation:
    def test_zero_rate_exact(self):
        for theta in (1.0, 0.7):
            params = ModelParams(beta=1.0, theta=theta, mu=0.0)
            mean, se = v_representation_check(params, 3, reps=1000, seed=65)
            assert (mean, se) == (z0_moment(params, 2), 0.0)


class TestMcClonal:
    def test_zero_rate_mean(self):
        mean, se = mc_clonal(NO_MUTATION, 3, reps=20_000, seed=69, statistic="zpow_r")
        assert abs(mean - z0_moment(NO_MUTATION, 2)) < 3.0 * se

    def test_workers_do_not_change_values(self):
        a = mc_clonal(ALPHA_ONE, 2, reps=2000, seed=70)
        with Pool(3) as pool:
            b = mc_clonal(ALPHA_ONE, 2, reps=2000, seed=70, pool=pool)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            mc_clonal(ALPHA_ONE, 1, reps=50, seed=0)
        with pytest.raises(ValueError):
            mc_clonal(ALPHA_ONE, 1, reps=1000, seed=0, statistic="nope")
