"""Identity and oracle tests for the special-function layer."""

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from cbsfs.specfun import (
    EULER_GAMMA,
    H_closed,
    H_scale,
    beta_fn,
    digamma,
    f_integrand,
    gamma_upper_zero,
    h0,
    h1,
    h1_deriv,
)


class TestDigamma:
    def test_at_one_and_two(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-14)
        assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-14)

    @pytest.mark.parametrize("x", [0.5, 3.7, 42.0])
    def test_recurrence_examples(self, x):
        assert digamma(x + 1.0) - digamma(x) == pytest.approx(1.0 / x, abs=1e-12)

    def test_recurrence_property(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(1e-6, 100.0, size=1000)
        dev = np.abs([digamma(v + 1.0) - digamma(v) - 1.0 / v for v in x])
        assert dev.max() < 1e-12

    def test_log_bounds(self):
        rng = np.random.default_rng(7)
        for x in rng.uniform(0.05, 500.0, size=200):
            assert math.log(x) - 1.0 / x <= digamma(x) <= math.log(x) - 1.0 / (2.0 * x)

    def test_absolute_accuracy_window(self):
        # spot values across the stated window, against the recurrence-shifted
        # asymptotic series evaluated in extended precision offline
        assert digamma(1e-3) == pytest.approx(-1000.5755719318103, abs=1e-9)
        assert digamma(1e6) == pytest.approx(math.log(1e6) - 5e-7, abs=1e-10)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
    def test_domain(self, x):
        with pytest.raises(ValueError):
            digamma(x)


class TestBetaFn:
    @pytest.mark.parametrize("b", [0.3, 2.0, 17.0])
    def test_left_unit(self, b):
        assert beta_fn(1.0, b) == pytest.approx(1.0 / b, rel=1e-12)

    def test_shift_identity(self):
        a, b = 5.0, 0.7
        assert beta_fn(a - 1.0, b + 1.0) == pytest.approx(
            b / (a - 1.0) * beta_fn(a, b), rel=1e-12
        )

    def test_two_two(self):
        assert beta_fn(2.0, 2.0) == pytest.approx(1.0 / 6.0, rel=1e-13)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for a, b in rng.uniform(0.1, 30.0, size=(100, 2)):
            assert beta_fn(a, b) == pytest.approx(beta_fn(b, a), rel=1e-13)

    def test_mpmath_oracle(self):
        # B(n, q) = exp(lgamma(n) + lgamma(q) - lgamma(n + q)): near n = 1000
        # each log-Gamma is ~5900, whose half-ulp is 4.5e-13, so the route's
        # floor is a few 1e-12 (worst seen 2.3e-12; scipy's gammaln 2.7e-12)
        qs = [1e-3, 0.01, 0.1, 1 / 3, 0.5, 2 / 3, 0.9, 1.0, 1.5, 5 / 3, 2.0, 7 / 3, 2.5, 2.9, 3.0]
        worst = 0.0
        with mpmath.workdps(40):
            for n in range(1, 1001):
                for q in qs:
                    ref = mpmath.beta(n, q)
                    worst = max(worst, float(abs(beta_fn(n, q) - ref) / ref))
        assert worst < 3e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            beta_fn(0.0, 1.0)
        with pytest.raises(ValueError):
            beta_fn(1.0, -2.0)


class TestGammaUpperZero:
    def test_far_tail(self):
        assert gamma_upper_zero(50.0) < 1e-20

    def test_value_at_one_vs_quadrature_oracle(self):
        oracle, err = integrate.quad(
            lambda v: math.exp(-v) / v, 1.0, np.inf, epsabs=1e-14, epsrel=1e-13
        )
        assert err < 1e-13
        assert oracle == pytest.approx(0.21938393439552029, abs=1e-13)
        assert gamma_upper_zero(1.0) == pytest.approx(oracle, abs=1e-12)

    def test_small_argument_series(self):
        # Gamma(0, r) + log r + gamma = r - r^2/4 + O(r^3)
        r = 1e-6
        assert abs(gamma_upper_zero(r) + math.log(r) + EULER_GAMMA) < 1e-5

    def test_mpmath_oracle(self):
        # both sides of the switch from the Ein series to the continued
        # fraction at r = 1, out to where e^{-r} nears the smallest normal
        grid = np.concatenate([np.logspace(-8, math.log10(700.0), 200), [1.0 - 1e-12, 1.0]])
        with mpmath.workdps(40):
            for r in grid:
                oracle = mpmath.e1(mpmath.mpf(float(r)))
                assert abs(mpmath.mpf(gamma_upper_zero(float(r))) / oracle - 1) <= 1e-13, r

    def test_strictly_decreasing(self):
        grid = np.logspace(-3, 1.5, 40)
        vals = [gamma_upper_zero(r) for r in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            gamma_upper_zero(0.0)


class TestFIntegrand:
    def test_right_branch_value(self):
        assert f_integrand(2.0) == pytest.approx((1.0 - math.exp(-2.0)) / 4.0, rel=1e-14)

    def test_small_u_limit(self):
        # Taylor oracle: 1 - e^{-u} - u + u^2/2 - u^3/6 = -u^4/24 + O(u^5),
        # so f(u)/u^2 -> -1/24
        u = 1e-4
        assert f_integrand(u) / u**2 == pytest.approx(-1.0 / 24.0, rel=1e-3)

    def test_series_and_direct_branches_agree(self):
        # the series kicks in below u = 0.5; both forms are accurate at 0.5
        for u in (0.499999, 0.5, 0.500001):
            direct = (1.0 - math.exp(-u) - u + u * u / 2.0 - u**3 / 6.0) / u**2
            assert f_integrand(u) == pytest.approx(direct, rel=1e-9)

    def test_jump_at_one(self):
        left = f_integrand(1.0)
        right = f_integrand(1.0 + 1e-12)
        assert right - left == pytest.approx(1.0 - 1.0 / 2.0 + 1.0 / 6.0, abs=1e-6)

    def test_integrable_against_u_minus_2(self):
        val, err = integrate.quad(lambda u: abs(f_integrand(u)) / u**2, 0.0, 1.0)
        tail, terr = integrate.quad(lambda u: abs(f_integrand(u)) / u**2, 1.0, np.inf)
        assert math.isfinite(val + tail) and err + terr < 1e-8

    def test_domain(self):
        with pytest.raises(ValueError):
            f_integrand(0.0)


def _h_brute_force(x: float) -> float:
    """Independent quadrature scheme: composite 60-point Gauss-Legendre
    panels on [0, 1] and on the inverted tail u = 1/t."""
    nodes, weights = np.polynomial.legendre.leggauss(60)

    def panel(func, a, b):
        mid, half = (a + b) / 2.0, (b - a) / 2.0
        return half * sum(w * func(mid + half * t) for t, w in zip(nodes, weights))

    def g(u):
        return -math.expm1(-u) / (u * (u + x))

    head = sum(panel(g, a, b) for a, b in zip(np.linspace(0, 1, 9), np.linspace(0, 1, 9)[1:]))
    # tail: int_1^inf g(u) du = int_0^1 g(1/t)/t^2 dt
    inv = lambda t: g(1.0 / t) / (t * t)
    tail = sum(panel(inv, a, b) for a, b in zip(np.linspace(1e-12, 1, 9), np.linspace(1e-12, 1, 9)[1:]))
    return head + tail


class TestHScale:
    def test_decomposition_identity(self):
        # H(x) = h0(x) - (1 + x/2 + x^2/6) log x - x/6 + 1 - gamma
        for x in (0.1, 1.0, 10.0):
            rhs = (
                h0(x)
                - (1.0 + x / 2.0 + x * x / 6.0) * math.log(x)
                - x / 6.0
                + 1.0
                - EULER_GAMMA
            )
            assert H_scale(x) == pytest.approx(rhs, rel=1e-9)

    def test_strictly_decreasing(self):
        grid = np.logspace(-2, 2, 25)
        vals = [H_scale(x) for x in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_against_independent_scheme(self):
        assert H_scale(1.0) == pytest.approx(_h_brute_force(1.0), abs=1e-9)
        assert H_scale(1.0) == pytest.approx(1.1735630272247275, rel=1e-10)

    def test_closed_form_route(self):
        for x in (0.01, 0.3, 1.0, 7.0, 50.0, 400.0, 2000.0):
            assert H_closed(x) == pytest.approx(H_scale(x), rel=1e-10)

    @pytest.mark.parametrize(
        "x", [1e-12, 1e-8, 1e-5, 1e-3, 0.1, 0.5, 0.999, 1.0, 3.0, 40.0, 599.0, 600.0, 601.0, 1e4]
    )
    def test_closed_form_vs_mpmath(self, x):
        # 40-digit oracle on both sides of the small-x (x = 1) and
        # asymptotic (x = 600) switches; the direct closed form cancels to
        # ~1e-16/x relative below x = 1
        with mpmath.workdps(40):
            xm = mpmath.mpf(x)
            oracle = (mpmath.euler + mpmath.log(xm) + mpmath.exp(xm) * mpmath.e1(xm)) / xm
            assert abs(mpmath.mpf(H_closed(x)) / oracle - 1) <= 1e-13

    def test_continued_fraction_range_vs_mpmath(self):
        # 1 <= x < 600 is the continued fraction's, whose error is largest at x = 1
        grid = np.concatenate([[1.0, 1.0 + 1e-12, 599.999], np.geomspace(1.0, 600.0, 400)[:-1]])
        with mpmath.workdps(40):
            for x in grid:
                xm = mpmath.mpf(float(x))
                oracle = (mpmath.euler + mpmath.log(xm) + mpmath.exp(xm) * mpmath.e1(xm)) / xm
                assert abs(mpmath.mpf(H_closed(float(x))) / oracle - 1) <= 1e-13, x
        scalars = [H_closed(float(x)) for x in grid]
        np.testing.assert_allclose(H_closed(grid), scalars, rtol=1e-15, atol=0.0)

    def test_closed_form_arrays(self):
        xs = np.array([[1e-9, 0.5, 1.0], [30.0, 600.0, 5e3]])
        out = H_closed(xs)
        assert out.shape == xs.shape
        scalars = [[H_closed(float(x)) for x in row] for row in xs]
        np.testing.assert_allclose(out, scalars, rtol=1e-15, atol=0.0)
        assert isinstance(H_closed(2.0), float)
        with pytest.raises(ValueError):
            H_closed(np.array([1.0, 0.0]))

    def test_domain(self):
        with pytest.raises(ValueError):
            H_scale(0.0)
        with pytest.raises(ValueError):
            H_scale(-1.0)
        with pytest.raises(ValueError):
            H_closed(0.0)


class TestH1Kernels:
    def test_zero_values(self):
        assert h0(0.0) == 0.0
        assert h1(0.0) == 0.0
        assert h1_deriv(0.0, 1) == 0.0

    def test_growth_bound_single_constant(self):
        # |h1^(i)(x)| <= C (1 + x^{3-i} log+(x)) with one fitted C over the
        # whole grid and all orders; the constant is unspecified upstream,
        # so the assertion is existence with a sane magnitude
        grid = np.logspace(-1, 3, 17)
        ratios = []
        for x in grid:
            log_plus = max(0.0, math.log(x))
            vals = {0: abs(h1(x)), 1: abs(h1_deriv(x, 1)), 2: abs(h1_deriv(x, 2))}
            for order, val in vals.items():
                ratios.append(val / (1.0 + x ** (3 - order) * log_plus))
        fitted_c = max(ratios)
        assert math.isfinite(fitted_c)
        assert fitted_c < 10.0

    def test_deterministic(self):
        assert h1(3.7) == h1(3.7)
        assert h1_deriv(3.7, 2) == h1_deriv(3.7, 2)
        assert H_scale(3.7) == H_scale(3.7)

    def test_domain(self):
        with pytest.raises(ValueError):
            h1(-0.1)
        with pytest.raises(ValueError):
            h1_deriv(1.0, 3)

