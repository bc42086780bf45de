"""Expected-spectrum, distortion and density tests."""

import functools
import math
import warnings

import mpmath
import numpy as np
import pytest

from cbsfs.genealogy import Lk_all, sample_population, sample_zetas
from cbsfs.model import ModelParams
from cbsfs.sfs import (
    _expected_lengths,
    _laguerre_rule,
    density_branch_check,
    density_spine_check,
    expected_sfs,
    g1,
    g2_residual,
    mean_density,
    s_ell,
    s_table,
    simulate_sfs,
)

UNIT = ModelParams(beta=1.0, theta=1.0, mu=1.0)


class TestSEll:
    def test_zeroth_is_zero(self):
        assert s_ell(UNIT, 10, 0, 2.0) == 0.0

    def test_monte_carlo_oracle_single_sample(self):
        # defining expectation: mean of log(1 + 2 theta z0 U / E)/(2 beta theta)
        # with one uniform order statistic (n = l = 1)
        z0 = 2.0
        rng = np.random.default_rng(50)
        u = rng.uniform(size=1_000_000)
        e = rng.exponential(size=1_000_000)
        draws = np.log1p(2.0 * UNIT.theta * z0 * u / e) / (2.0 * UNIT.beta * UNIT.theta)
        se = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(s_ell(UNIT, 1, 1, z0) - draws.mean()) < 3.0 * se

    def test_increasing_in_rank(self):
        vals = [s_ell(UNIT, 8, ell, 1.5) for ell in range(9)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_scales_with_beta(self):
        slow = ModelParams(beta=2.0, theta=1.0, mu=1.0)
        assert s_ell(slow, 5, 3, 1.0) == pytest.approx(s_ell(UNIT, 5, 3, 1.0) / 2.0, rel=1e-9)

    def test_domain(self):
        with pytest.raises(IndexError):
            s_ell(UNIT, 5, 6, 1.0)
        with pytest.raises(ValueError):
            s_ell(UNIT, 5, 2, 0.0)


def s_ell_mpmath(params, n, ell, z0, dps=40):
    """S_l at dps digits: Beta(l, n-l+1) mean of (z0 v/beta) H(2 theta z0 v)."""
    with mpmath.workdps(dps):
        z0 = mpmath.mpf(z0)
        log_norm = mpmath.loggamma(n + 1) - mpmath.loggamma(ell) - mpmath.loggamma(n - ell + 1)

        def integrand(v):
            x = 2 * params.theta * z0 * v
            h = (mpmath.euler + mpmath.log(x) + mpmath.exp(x) * mpmath.e1(x)) / x
            log_pdf = log_norm + (ell - 1) * mpmath.log(v) + (n - ell) * mpmath.log1p(-v)
            return mpmath.exp(log_pdf) * z0 * v / params.beta * h

        mean = mpmath.mpf(ell) / (n + 1)
        sd = mpmath.sqrt(mean * (1 - mean) / (n + 2))
        cuts = [c for c in (mean - 8 * sd, mean - sd, mean, mean + sd, mean + 8 * sd) if 0 < c < 1]
        return mpmath.quad(integrand, [0] + cuts + [1])


def lk_mpmath(params, n, k, z0):
    s_km, s_k, s_kp = (s_ell_mpmath(params, n, ell, z0) if ell else 0 for ell in (k - 1, k, k + 1))
    return (n - k) * (2 * s_k - s_km - s_kp) + s_kp - s_km


E3 = math.exp(3.0)
# (beta, theta) pairs and the z0 grid, 1e-3/theta to 50/theta; the last pair
# also takes z0 = 50, which puts 2 theta z0 v past x = 600, far out on the
# continued fraction of H
TABLE_CASES = [
    (ModelParams(1.0, 1.0, 1.0), (1e-3, 2.0, 50.0)),
    (ModelParams(E3, 1.0 / E3, 1.0), (1e-3 * E3, 2.0 * E3, 50.0 * E3)),
    (ModelParams(1.0 / E3, E3, 1.0), (1e-3 / E3, 2.0 / E3, 50.0 / E3, 50.0)),
]


# the distinct theta z0 of TABLE_CASES: S(beta, theta, z0) = S(1, 1, theta z0)/(beta theta)
THETA_Z0S = (1e-3, 2.0, 50.0, 50.0 * E3)


@functools.cache
def unit_s_reference(n, theta_z0):
    """Per-l quadrature S_1..S_n at beta = theta = 1, shared by every case."""
    return np.array([s_ell(UNIT, n, ell, theta_z0) for ell in range(1, n + 1)])


def scaled_s_reference(params, n, z0):
    """Per-l reference for (beta, theta, z0) from the unit one at theta z0."""
    theta_z0 = next(x for x in THETA_Z0S if math.isclose(params.theta * z0, x, rel_tol=1e-14))
    return unit_s_reference(n, theta_z0) / (params.beta * params.theta)


class TestSTable:
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 200, 1000])
    @pytest.mark.parametrize("params, z0s", TABLE_CASES, ids=["unit", "beta_e3", "theta_e3"])
    def test_matches_per_ell_quadrature(self, n, params, z0s):
        for z0 in z0s:
            row = s_table(params, n, z0)
            assert row.shape == (n + 1,) and row[0] == 0.0
            rel = np.abs(row[1:] / scaled_s_reference(params, n, z0) - 1.0)
            assert rel.max() <= 1e-12, (z0, int(rel.argmax()) + 1)

    @pytest.mark.parametrize("params, z0s", TABLE_CASES[1:], ids=["beta_e3", "theta_e3"])
    def test_per_ell_quadrature_scaling(self, params, z0s):
        # the identity behind the shared unit references, checked on the
        # per-l quadrature itself (the unit pair is the identity map)
        n = 10
        for z0 in z0s:
            direct = np.array([s_ell(params, n, ell, z0) for ell in range(1, n + 1)])
            np.testing.assert_allclose(direct, scaled_s_reference(params, n, z0), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize(
        "n, ell, z0",
        [(1, 1, 2.0), (5, 3, 1e-7), (12, 1, 0.4), (12, 12, 9.0), (20, 7, 1e-7), (20, 19, 2.0),
         (1000, 1, 1e-3)],
    )
    def test_against_mpmath(self, n, ell, z0):
        # z0 = 1e-7 keeps every 2 theta z0 v below 3e-7, in H's small-x
        # branch, where the direct closed form would cancel to ~1e-9; at
        # n = 1000 a log-gamma difference in the Beta normaliser costs 1e-12
        params = ModelParams(0.7, 1.3, 1.0)
        oracle = s_ell_mpmath(params, n, ell, z0)
        assert abs(mpmath.mpf(s_table(params, n, z0)[ell]) / oracle - 1) <= 1e-13
        assert abs(mpmath.mpf(s_ell(params, n, ell, z0)) / oracle - 1) <= 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            s_table(UNIT, 0, 1.0)
        with pytest.raises(ValueError):
            s_table(UNIT, 5, 0.0)
        with pytest.raises(ValueError):
            expected_sfs(UNIT, 3, math.inf)


class TestExpectedLk:
    def test_top_class_reduces_to_two_terms(self):
        n, z0 = 9, 1.7
        lhs = expected_sfs(UNIT, n, z0)[n - 2]
        rhs = 2.0 * (s_ell(UNIT, n, n - 1, z0) - s_ell(UNIT, n, n - 2, z0))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_nonnegative_across_parameters(self):
        for params in (UNIT, ModelParams(0.5, 2.0, 1.0), ModelParams(2.0, 0.5, 1.0)):
            for z0 in (0.5 / params.theta, 2.0 / params.theta):
                assert np.all(expected_sfs(params, 8, z0) >= 0.0)

    def test_monte_carlo_agreement_light(self):
        # light version of the acceptance check: n = 6, one z0
        n, z0, reps = 6, 1.5, 4000
        rng = np.random.default_rng(51)
        totals = np.zeros((reps, n - 1))
        for i in range(reps):
            config = sample_population(UNIT, n, rng, condition_z0=z0)
            zetas = sample_zetas(UNIT, config, rng)
            totals[i] = Lk_all(config, zetas)
        mean = totals.mean(axis=0)
        se = totals.std(axis=0, ddof=1) / math.sqrt(reps)
        assert np.all(np.abs(mean - expected_sfs(UNIT, n, z0)) < 4.0 * se)

    def test_table_matches_scalar_route(self):
        # the table against the second difference of per-l adaptive quadratures
        # and against the single-k route that g2_residual reads
        lk = expected_sfs(UNIT, 6, 1.5)
        s = [s_ell(UNIT, 6, ell, 1.5) for ell in range(7)]
        for k in range(1, 6):
            scalar = (6 - k) * (2.0 * s[k] - s[k - 1] - s[k + 1]) + s[k + 1] - s[k - 1]
            assert lk[k - 1] == pytest.approx(scalar, rel=1e-9)
            single = _expected_lengths(UNIT, 6, 1.5, 1.0, np.array([k]))[0]
            assert lk[k - 1] == pytest.approx(single, rel=1e-14)

    @pytest.mark.parametrize("n, k, z0", [(8, 1, 1e-7), (20, 9, 2.0), (200, 50, 2.0), (200, 150, 2.0)])
    def test_against_mpmath(self, n, k, z0):
        # differencing S_l rounded to double precision loses about
        # 4 (n-k) S_k / E[L_k] in relative accuracy (1e-9 at n = 200); the
        # lengths difference the Beta densities before integrating instead
        oracle = lk_mpmath(UNIT, n, k, z0)
        assert abs(mpmath.mpf(expected_sfs(UNIT, n, z0)[k - 1]) / oracle - 1) <= 1e-11

    def test_averaged_over_stationary_size(self):
        lk = expected_sfs(UNIT, 6, z0=None)
        assert np.all(lk > 0)
        # numerical stability of the size-average: doubling the node count
        # moves nothing beyond the slow log-type convergence of the rule
        t, w = _laguerre_rule(80)
        fine = _expected_lengths(UNIT, 6, t / (2.0 * UNIT.theta), w, np.arange(1, 6))
        assert lk == pytest.approx(fine, rel=1e-4)

    def test_average_is_the_weighted_sum_of_conditioned_tables(self):
        # the nodes are summed into the integrand before the Beta kernel;
        # the sum of the conditioned tables takes them in the other order
        params = ModelParams(0.5, 3.0, 1.0)
        t, w = _laguerre_rule(40)
        tables = [expected_sfs(params, 50, z0) for z0 in t / (2.0 * params.theta)]
        np.testing.assert_allclose(expected_sfs(params, 50), w @ np.array(tables), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("beta, theta", [(1.0, 1.0), (0.5, 3.0)])
    def test_averaged_against_exact_values(self, beta, theta):
        # at beta = theta = 1 the size-averaged E[L_k] is a + b pi^2 with a, b
        # rational; other beta, theta scale it by 1/(beta theta).  The
        # 40-node rule is 1.6e-6 to 7.4e-6 from these values.
        pi2 = math.pi**2
        exact = {
            2: [pi2 / 3 - 5 / 2],
            3: [23 / 4 - pi2 / 2, pi2 - 19 / 2],
            4: [5 / 6, 41 / 4 - pi2, 2 * pi2 - 39 / 2],
            5: [61 / 72, 7 / 18, 601 / 36 - 5 * pi2 / 3, 10 * pi2 / 3 - 589 / 18],
        }
        params = ModelParams(beta=beta, theta=theta, mu=1.0)
        for n, values in exact.items():
            expected = np.array(values) / (beta * theta)
            np.testing.assert_allclose(expected_sfs(params, n), expected, rtol=1e-5, atol=0.0)


class TestLaguerreRule:
    def test_against_scipy(self):
        from scipy import special

        t, w = _laguerre_rule(40)
        t_ref, w_ref = special.roots_genlaguerre(40, 1.0)
        np.testing.assert_allclose(t, t_ref, rtol=1e-14, atol=0.0)
        # the tail weights fall to about 6e-60; weights read off the
        # eigenvectors miss them by up to 7e10 relative
        np.testing.assert_allclose(w, w_ref, rtol=1e-12, atol=0.0)

    def test_exact_to_degree_79(self):
        # a 40-node Gauss rule integrates t^k against t e^{-t} exactly, to (k + 1)!
        t, w = _laguerre_rule(40)
        for k in range(80):
            total = math.fsum(w * t**k)
            assert total == pytest.approx(math.factorial(k + 1), rel=1e-13, abs=0.0), k


def g1_expansion_mpmath(z, u, dps=30):
    """The paper's four-term g1 at dps digits, with h1' and h1'' as mpmath
    quadratures of their defining integrands, split at f's jump at u = 1.
    Below 1, f's bracket is its series -(u^4/24) 1F1(1; 5; -u): the closed
    bracket cancels to nothing near 0."""
    with mpmath.workdps(dps):
        z, u = mpmath.mpf(z), mpmath.mpf(u)
        x = 2 * z * u

        def f(t):
            return -(t * t / 24) * mpmath.hyp1f1(1, 5, -t) if t <= 1 else -mpmath.expm1(-t) / t**2

        def weighted(weight):
            return mpmath.quad(lambda t: f(t) * weight(t), [0, 1]) + mpmath.quad(
                lambda t: f(t) * weight(t), [1, mpmath.inf])

        p, p1 = x + x**2 / 2 + x**3 / 6, 1 + x + x**2 / 2
        d1 = p1 * mpmath.log1p(x) + p / (1 + x) - weighted(lambda t: x * (x + 2 * t) / (t + x) ** 2)
        d2 = ((1 + x) * mpmath.log1p(x) + 2 * p1 / (1 + x) - p / (1 + x) ** 2
              - weighted(lambda t: 2 * t * t / (t + x) ** 3))
        log_x = mpmath.log(x)
        return (
            u * (-2 * log_x - 1 - 2 * mpmath.euler)
            + z * u * (2 * (1 - 3 * u) * log_x + mpmath.mpf(11) / 3 - 7 * u)
            + mpmath.mpf(2) / 3 * (z * u) ** 2 * (6 * (1 - 2 * u) * log_x + 5 - 7 * u)
            + 2 * u * d1 - 2 * z * u * (1 - u) * d2
        )


def g1_line_mpmath(z, u, dps=60):
    """u (2 (1 - z (1-u)) e^x E1(x) - 1) at x = 2 z u, at dps digits (its
    limit 0 at u = 0); beyond x = 1e4, e^x E1(x) is summed from its
    asymptotic series."""
    if u == 0:
        return mpmath.mpf(0)
    with mpmath.workdps(dps):
        z, u = mpmath.mpf(z), mpmath.mpf(u)
        x = 2 * z * u
        if x <= 10**4:
            exp_e1 = mpmath.exp(x) * mpmath.e1(x)
        else:  # sum_k (-1)^k k! / x^(k+1), stopped far below the working precision
            exp_e1, term, k = 0, 1 / x, 0
            while abs(term) > mpmath.mpf(10) ** (-dps - 5) / x:
                exp_e1, k = exp_e1 + term, k + 1
                term *= -k / x
        return u * (2 * (1 - z * (1 - u)) * exp_e1 - 1)


class TestG1:
    @pytest.mark.parametrize(
        "z, u", [(0.01, 0.5), (0.1, 1.0), (0.5, 0.25), (1.0, 0.5), (2.0, 0.1), (5.0, 0.75), (30.0, 0.3)]
    )
    def test_matches_the_papers_expansion(self, z, u):
        # the one line is the four-term expansion with h1' and h1'' cancelled
        assert abs(mpmath.mpf(g1(z, u)) / g1_expansion_mpmath(z, u) - 1) <= 1e-14

    @pytest.mark.parametrize(
        "z", [5e-324, 1e-3, 0.5, 1.0, 4.0, 300.0, 1e4, 1e5, 1e100, 1e300, 1e308, 1.7976931348623157e308]
    )
    def test_matches_the_line_at_60_digits(self, z):
        # over the default grid of the g1 command; where 2 z u overflows
        # there is no finite x and g1 raises rather than return a value
        for u in (i / 100 for i in range(101)):
            if 2 * mpmath.mpf(z) * u > mpmath.mpf(1.7976931348623157e308):
                with pytest.raises(FloatingPointError, match="overflows"):
                    g1(z, u)
                continue
            value = g1(z, u)
            assert abs(value - g1_line_mpmath(z, u)) <= 1e-13 * max(1.0, abs(value)), u

    def test_zero_at_zero(self):
        assert g1(0.5, 0.0) == 0.0
        assert g1(3.0, 0.0) == 0.0
        assert g1(1.0, 1e-305) == 0.0

    @pytest.mark.parametrize("z", [0.5, 1.0, 2.0])
    def test_log_weighted_bound(self, z):
        us = np.concatenate([np.logspace(-6, -0.05, 25), [1.0]])
        ratios = [abs(g1(z, u)) / (u * (abs(math.log(u)) + 1.0)) for u in us[:-1]]
        ratios.append(abs(g1(z, 1.0)))
        fitted_c = max(ratios)
        assert math.isfinite(fitted_c) and fitted_c < 20.0

    @pytest.mark.parametrize("z", [0.5, 2.0])
    def test_small_u_shape(self, z):
        # g1(z, u) = 2(z-1) u log u + O(u): the remainder over u stays
        # bounded and stabilizes as u -> 0
        ratios = [
            (g1(z, u) - 2.0 * (z - 1.0) * u * math.log(u)) / u
            for u in (1e-3, 1e-4, 1e-5)
        ]
        assert all(abs(r) < 50.0 for r in ratios)
        assert abs(ratios[-1] - ratios[-2]) < 0.05 * (1.0 + abs(ratios[-1]))

    def test_domain(self):
        with pytest.raises(ValueError):
            g1(0.0, 0.5)
        with pytest.raises(ValueError):
            g1(1.0, 1.5)


class TestG2Residual:
    def test_finite_on_grid(self):
        for n in (10, 30):
            for k in (1, 2, n // 2, n - 1):
                val = g2_residual(UNIT, n, k, 2.0)
                assert math.isfinite(val)

    def test_consistency_with_parts(self):
        n, k, z0 = 12, 5, 2.0
        residual = g2_residual(UNIT, n, k, z0)
        recon = (
            1.0 / k
            + g1(UNIT.theta * z0, k / n) / k
            + math.sqrt(k) / n**2 * residual
        )
        lk = expected_sfs(UNIT, n, z0)[k - 1]
        assert recon == pytest.approx(UNIT.beta * lk / z0, rel=1e-9)

    @pytest.mark.parametrize("k", [-1, 0, 12])
    def test_k_outside_classes(self, k):
        # a negative k must not wrap round to the top classes
        with pytest.raises(IndexError):
            g2_residual(UNIT, 12, k, 2.0)


def test_rule_tables_that_overflow_raise_without_a_warning():
    # at beta = 5e-324 the integrand z0 v / beta overflows: one check in the
    # shared rule serves the S-table, the spectrum and the residual
    tiny_beta = ModelParams(5e-324, 1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="S must be finite and >= 0, got inf at l=1"):
            s_table(tiny_beta, 5, 1.0)
        with pytest.raises(FloatingPointError, match="expected_L must be finite and >= 0, got nan at k=2"):
            g2_residual(tiny_beta, 5, 2, 1.0)
        with pytest.raises(FloatingPointError, match="expected_L must be finite and >= 0, got nan at k=1"):
            expected_sfs(tiny_beta, 5, 1.0)


class TestSimulateSfs:
    def test_modes_share_replicate_lengths(self):
        # identical substreams mean the poisson mode's conditional means are
        # exactly the expected-lengths values replicate by replicate, so the
        # two mode means must agree within combined error
        mean_a, se_a = simulate_sfs(UNIT, 6, 4000, seed=7, z0=1.5, mode="expected-lengths")
        mean_b, se_b = simulate_sfs(UNIT, 6, 4000, seed=7, z0=1.5, mode="poisson-counts")
        assert np.all(np.abs(mean_a - mean_b) < 3.0 * np.hypot(se_a, se_b))

    def test_matches_analytic(self):
        mean, se = simulate_sfs(UNIT, 6, 4000, seed=8, z0=1.5)
        xi = UNIT.mu * expected_sfs(UNIT, 6, 1.5)
        assert np.all(np.abs(mean - xi) < 4.0 * se)

    def test_zero_rate_all_zero(self):
        cold = ModelParams(1.0, 1.0, 0.0)
        mean, _ = simulate_sfs(cold, 5, 500, seed=9, z0=1.0, mode="poisson-counts")
        assert np.all(mean == 0.0)

    def test_seed_determinism(self):
        a = simulate_sfs(UNIT, 5, 300, seed=11, z0=1.0)
        b = simulate_sfs(UNIT, 5, 300, seed=11, z0=1.0)
        assert a[0].tolist() == b[0].tolist() and a[1].tolist() == b[1].tolist()

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            simulate_sfs(UNIT, 5, 100, seed=1, mode="bogus")


class TestMeanDensity:
    def test_large_r_asymptote(self):
        # the scaled tail is exactly 1 + 1/(2x) + O(1/x^2) in x = 2 theta r
        # (so at x = 40 the deviation is 1.31e-2, not below 1e-2); assert the
        # limit with that slack and the first-order rate itself
        def scaled(r):
            return (
                mean_density(UNIT, r)
                * UNIT.beta
                * math.exp(2.0 * UNIT.theta * r)
                / (2.0 * UNIT.mu)
            )

        assert scaled(20.0) == pytest.approx(1.0, abs=2e-2)
        assert scaled(50.0) == pytest.approx(1.0, abs=1e-2)
        for x in (40.0, 80.0, 160.0):
            r = x / (2.0 * UNIT.theta)
            assert (scaled(r) - 1.0) * 2.0 * x == pytest.approx(1.0, abs=0.15)

    @pytest.mark.parametrize("r", [0.1, 1.0, 5.0])
    def test_branch_term_identity(self, r):
        assert density_branch_check(UNIT, r) == pytest.approx(
            math.exp(-2.0 * UNIT.theta * r) / (UNIT.beta * UNIT.theta * r), abs=1e-8
        )

    @pytest.mark.parametrize("r", [0.1, 1.0, 5.0])
    def test_spine_term_identity(self, r):
        x = 2.0 * UNIT.theta * r
        from cbsfs.specfun import gamma_upper_zero

        closed = (math.exp(-x) + x * gamma_upper_zero(x)) / UNIT.beta
        assert density_spine_check(UNIT, r) == pytest.approx(closed, abs=1e-8)
        assert density_spine_check(UNIT, 50.0) < 1e-20
        assert density_spine_check(UNIT, r) > 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            mean_density(UNIT, 0.0)

