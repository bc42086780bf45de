"""Special functions and quadrature behind the closed-form expectations.

The standard pieces are short: the Euler Beta goes through
``math.lgamma``; the exponential integral E1, behind the incomplete gamma
tail ``Gamma(0, r)`` and :func:`H_closed`, is a power series below 1, a
continued fraction from 1 and (in ``H_closed``) an asymptotic series from
600, in plain arithmetic; digamma wraps scipy.special, which it imports
when called.  The spectrum and density commands therefore load no scipy
module, and importing the package loads none.  The nonstandard
pieces are the integral kernels ``H``, ``h0`` and ``h1`` that drive the
expected branch-length expansion.  Their defining integrands contain the
piecewise weight :func:`f_integrand`, which jumps at u = 1, so every
quadrature here splits the axis there and lets QUADPACK handle the
algebraic tail transform on [1, inf).  Every quadrature runs to one fixed
tolerance policy (``QUAD_ABS_TOL``, ``QUAD_REL_TOL``, ``QUAD_LIMIT``
subdivisions); only the per-l reference :func:`cbsfs.sfs.s_ell` tightens it.

Derivatives of ``h1`` are computed by differentiating under the integral
sign rather than by finite differences: the derivative weights
x(x+2u)/(u+x)^2 and 2u^2/(u+x)^3 are explicit, and the analytic route
stays accurate for small x where the expansion needs it most.  Finite
differences survive only as a test oracle.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

# Euler-Mascheroni constant, 20 digits.
EULER_GAMMA = 0.57721566490153286061


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


# The closed forms are checked against quadratures at this one accuracy.
QUAD_ABS_TOL = 1e-13
QUAD_REL_TOL = 1e-11
QUAD_LIMIT = 200


def adaptive_quad(
    func, a, b, points=None, *, abs_tol: float = QUAD_ABS_TOL, rel_tol: float = QUAD_REL_TOL
) -> float:
    """QUADPACK quadrature of ``func`` on [a, b] to the package tolerances
    (``abs_tol``/``rel_tol`` are for the reference that needs tighter ones).

    Raises :class:`QuadratureError` when the reported error estimate is an
    order of magnitude beyond the requested tolerance.
    """
    from scipy import integrate  # deferred: only quadrature routes pay its import

    with warnings.catch_warnings():
        # convergence is judged below from the returned error estimate
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        out = integrate.quad(
            func,
            a,
            b,
            epsabs=abs_tol,
            epsrel=rel_tol,
            limit=QUAD_LIMIT,
            points=points,
            full_output=1,
        )
    value, abserr = out[0], out[1]
    if len(out) > 3 and abserr > 10.0 * max(abs_tol, rel_tol * abs(value)):
        # QUADPACK's message runs over several lines; its first sentence names the failure
        reason = " ".join(out[3].split()).split(". ")[0].rstrip(".")
        raise QuadratureError(f"quadrature on [{a}, {b}] failed: {reason}")
    if not math.isfinite(value):
        raise QuadratureError(f"quadrature on [{a}, {b}] returned {value}")
    return value


def digamma(x: float) -> float:
    """Digamma Psi(x) = Gamma'(x)/Gamma(x) for x > 0."""
    if not x > 0:
        raise ValueError(f"digamma requires x > 0, got {x}")
    from scipy import special  # deferred: importing the package must not load scipy

    return float(special.psi(x))


def beta_fn(a: float, b: float) -> float:
    """Euler Beta B(a, b) = Gamma(a)Gamma(b)/Gamma(a+b), via log-Gamma."""
    if not (a > 0 and b > 0):
        raise ValueError(f"beta_fn requires positive arguments, got ({a}, {b})")
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


# Ein(x) = sum_{k>=1} (-1)^{k+1} x^k / (k k!), the entire part of E1:
# E1(x) = -gamma - log x + Ein(x).  18 terms reach 1e-17 relative on (0, 1).
_EIN_SERIES = tuple((-1) ** (k + 1) / (k * math.factorial(k)) for k in range(18, 0, -1))


def _ein(x):
    """Ein(x) for 0 < x < 1, scalar or array, by Horner's rule."""
    ein = 0.0
    for coeff in _EIN_SERIES:
        ein = (ein + coeff) * x
    return ein


# (2k - 1, k^2) at the levels k = 1..112 of the continued fraction below
_E1_CF_TERMS = tuple((2.0 * k - 1.0, float(k * k)) for k in range(1, 113))


def _exp_e1(x):
    """e^x E1(x) for x >= 1, scalar or array, by the continued fraction
    1/(x+1 - 1^2/(x+3 - 2^2/(x+5 - ...))) evaluated from the bottom.

    It needs only + - * /, so both routes run this one body.  The fraction
    converges faster as x grows: ceil(106/x) + 6 levels, set by the smallest
    x, leave a truncation error below 1e-17 relative (112 levels at x = 1).
    """
    lowest = x if isinstance(x, float) else float(x.min(initial=math.inf))
    depth = math.ceil(106.0 / lowest) + 6
    t = x + (2 * depth + 1)
    for odd, square in reversed(_E1_CF_TERMS[:depth]):
        t = x + odd - square / t
    return 1.0 / t


def gamma_upper_zero(r: float) -> float:
    """Incomplete gamma tail Gamma(0, r) = E1(r) = int_r^inf e^{-v}/v dv, r > 0:
    -gamma - log r + Ein(r) below r = 1, e^{-r} times the continued fraction
    of e^r E1(r) from there."""
    if not r > 0:
        raise ValueError(f"gamma_upper_zero requires r > 0, got {r}")
    r = float(r)
    if r < 1.0:
        return -EULER_GAMMA - math.log(r) + _ein(r)
    return math.exp(-r) * _exp_e1(r)


def f_integrand(u: float) -> float:
    """Piecewise weight f(u): order u^2 near 0, (1-e^{-u})/u^2 beyond 1.

    On (0, 1] the bracket 1 - e^{-u} - u + u^2/2 - u^3/6 equals
    -sum_{k>=4} (-u)^k / k!; the series form is used below u = 0.5 where
    the closed bracket loses all significant digits.  f jumps at u = 1.
    """
    if not u > 0:
        raise ValueError(f"f_integrand requires u > 0, got {u}")
    if u > 1.0:
        return -math.expm1(-u) / (u * u)
    if u >= 0.5:
        return (1.0 - math.exp(-u) - u + u * u / 2.0 - u ** 3 / 6.0) / (u * u)
    total = 0.0
    term = (-u) ** 4 / 24.0  # (-u)^k / k! at k = 4
    k = 4
    while abs(term) > 1e-24:
        total -= term
        k += 1
        term *= -u / k
    return total / (u * u)


def _f_weighted(weight) -> float:
    """Integral of f_integrand(u) * weight(u) over (0, inf), split at the jump."""
    g = lambda u: f_integrand(u) * weight(u)
    return adaptive_quad(g, 0.0, 1.0) + adaptive_quad(g, 1.0, math.inf)


def H_scale(x: float) -> float:
    """H(x) = int_0^inf (1-e^{-u})/u * du/(u+x) by adaptive quadrature.

    Strictly decreasing; diverges like -log(x) as x -> 0+, hence x > 0 is
    required.  Callers needing the x -> 0 regime use delta*H(2*theta*delta),
    which tends to 0.
    """
    if not x > 0:
        raise ValueError(f"H_scale requires x > 0 (H diverges at 0), got {x}")
    g = lambda u: -math.expm1(-u) / (u * (u + x))
    return adaptive_quad(g, 0.0, 1.0) + adaptive_quad(g, 1.0, math.inf)


def _H_small(x, xp):
    """x < 1: gamma + log x + e^x E1(x) = -expm1(x)(gamma + log x) + e^x Ein(x).

    The direct sum cancels to order x (relative error ~1e-16/x); this form
    has no cancellation.
    """
    return (xp.exp(x) * _ein(x) - xp.expm1(x) * (EULER_GAMMA + xp.log(x))) / x


def _H_mid(x, xp):
    """1 <= x < 600: every term is positive, so the direct form is accurate."""
    return (EULER_GAMMA + xp.log(x) + _exp_e1(x)) / x


def _H_large(x, xp):
    """x >= 600, where e^x overflows: e^x E1(x) by its asymptotic series."""
    total = term = 1.0
    for k in range(1, 9):  # truncation error < 9!/x^9 ~ 1e-20 at x = 600
        term = term * (-k / x)
        total = total + term
    return (EULER_GAMMA + xp.log(x) + total / x) / x


def H_closed(x):
    """Closed evaluation of :func:`H_scale` through the exponential integral.

    Algebraically H(x) = (gamma + log x + e^x E1(x)) / x, with e^x E1(x)
    from the Ein series below x = 1, the continued fraction up to 600 and
    the asymptotic series beyond.  Takes a scalar (returns a float) or an
    array (returns an array of the same shape), so the S-table evaluates
    every node in one call; cross-checked against the quadrature route and
    an mpmath oracle in the tests.  Each branch is written once for both:
    scalars go through ``math``, the cheaper module for the one call per
    QUADPACK node of :func:`cbsfs.sfs.s_ell`.
    """
    if isinstance(x, (int, float)) or np.ndim(x) == 0:
        x = float(x)
        if not x > 0:
            raise ValueError(f"H_closed requires x > 0, got {x}")
        branch = _H_small if x < 1.0 else _H_mid if x < 600.0 else _H_large
        return float(branch(x, math))
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0):
        raise ValueError("H_closed requires x > 0 everywhere")
    out = np.empty_like(x)
    small, large = x < 1.0, x >= 600.0
    mid = ~(small | large)
    for mask, branch in ((small, _H_small), (mid, _H_mid), (large, _H_large)):
        out[mask] = branch(x[mask], np)
    return out


def h0(x: float) -> float:
    """h0(x) = (1 + x/2 + x^2/6) log(1+x) - int f(u) x/(u+x) du, x >= 0."""
    if x < 0:
        raise ValueError(f"h0 requires x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    poly = 1.0 + x / 2.0 + x * x / 6.0
    return poly * math.log1p(x) - _f_weighted(lambda u: x / (u + x))


def h1(x: float) -> float:
    """h1(x) = x * h0(x)."""
    if x < 0:
        raise ValueError(f"h1 requires x >= 0, got {x}")
    return x * h0(x)


def h1_deriv(x: float, order: int) -> float:
    """First or second derivative of h1, by differentiation under the integral.

    With P(x) = x + x^2/2 + x^3/6, h1(x) = P(x) log(1+x) - int f(u) x^2/(u+x) du,
    and the integrand's x-derivatives are the rational weights below.
    """
    if order not in (1, 2):
        raise ValueError(f"h1_deriv supports order 1 or 2, got {order}")
    if x < 0:
        raise ValueError(f"h1_deriv requires x >= 0, got {x}")
    p = x + x * x / 2.0 + x ** 3 / 6.0
    p1 = 1.0 + x + x * x / 2.0
    if order == 1:
        integral = _f_weighted(lambda u: x * (x + 2.0 * u) / (u + x) ** 2)
        return p1 * math.log1p(x) + p / (1.0 + x) - integral
    p2 = 1.0 + x
    integral = _f_weighted(lambda u: 2.0 * u * u / (u + x) ** 3)
    return p2 * math.log1p(x) + 2.0 * p1 / (1.0 + x) - p / (1.0 + x) ** 2 - integral
