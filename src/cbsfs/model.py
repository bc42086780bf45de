"""Branching parameters and one-dimensional laws of the stationary population.

Everything here is a pure closed form (or a quadrature of one) in the
branching parameters: the extinction-time tail c(t), the surviving-excursion
density q_t, the TMRCA law of the whole extant population, the moments of
the stationary population size, and expectations under the size-biased
(spine) law.

As c(t) = 2 theta / (e^{2 beta theta t} - 1), beta and theta only set the
units, 1 / (2 beta theta) of time and 1 / (2 theta) of size: a quantity at
(beta, theta, mu, z0) is its unit times its value in model units, at
(1, 1/2, alpha, x0 = 2 theta z0).  The replicate draw and the spectrum
tables take model units only, and :class:`ModelParams` converts once,
where a value enters or leaves them; these laws, in physical units, check
that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .specfun import adaptive_quad


@dataclass(frozen=True)
class ModelParams:
    """Branching/mutation parameters: time scale beta, inverse size scale
    theta, per-lineage mutation rate mu."""

    beta: float
    theta: float
    mu: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        if not (math.isfinite(self.theta) and self.theta > 0):
            raise ValueError(f"theta must be positive and finite, got {self.theta}")
        if not (math.isfinite(self.mu) and self.mu >= 0):
            raise ValueError(f"mu must be nonnegative and finite, got {self.mu}")

    @property
    def time_unit(self) -> float:
        """1 / (2 beta theta): a depth or tree length is this times its model value."""
        return _unit(2.0 * self.beta * self.theta, "time unit 1 / (2 beta theta)")

    @property
    def size_unit(self) -> float:
        """1 / (2 theta): a size or position is this times its model value."""
        return _unit(2.0 * self.theta, "size unit 1 / (2 theta)")

    def model_size(self, z0: float) -> float:
        """x0 = 2 theta z0, the population size z0 in the size unit."""
        return positive_finite("the size x0 = 2 theta z0", 2.0 * self.theta * z0)

    @property
    def alpha(self) -> float:
        """Mutation rate in tree-length units: alpha = mu / (2 beta theta)."""
        if self.mu == 0.0:
            return 0.0  # also where 2 beta theta underflows
        if not 2.0 * self.beta * self.theta > 0:
            raise FloatingPointError("2 beta theta underflows to 0 in alpha = mu / (2 beta theta)")
        alpha = self.mu / (2.0 * self.beta * self.theta)
        if alpha == math.inf:
            raise FloatingPointError("alpha = mu / (2 beta theta) overflows")
        return alpha


def _unit(scale: float, name: str) -> float:
    """1 / scale, which must be a positive finite float."""
    return positive_finite(f"the {name}", 1.0 / scale if scale > 0.0 else math.inf)


def positive_finite(name: str, value: float) -> float:
    """``value`` if it is a positive finite float, else a FloatingPointError naming it."""
    if not 0.0 < value < math.inf:
        raise FloatingPointError(f"{name} is {value!r}, not a positive finite float")
    return value


def extinction_tail(params: ModelParams, t: float) -> float:
    """c(t) = 2 theta / (e^{2 beta theta t} - 1), the excursion survival tail."""
    if not t > 0:
        raise ValueError(f"extinction_tail requires t > 0, got {t}")
    exponent = 2.0 * params.beta * params.theta * t
    if exponent > 700.0:  # e^x - 1 overflows; 1 is negligible, underflow to 0 is exact enough
        return 2.0 * params.theta * math.exp(-exponent)
    # expm1 keeps t*c(t) -> 1/beta exact for tiny t
    return 2.0 * params.theta / math.expm1(exponent)


def canonical_density(params: ModelParams, t: float, r: float) -> float:
    """Density q_t(r) of the surviving mass at age t under the excursion law."""
    if not t > 0:
        raise ValueError(f"canonical_density requires t > 0, got {t}")
    if not r > 0:
        raise ValueError(f"canonical_density requires r > 0, got {r}")
    age = 2.0 * params.beta * params.theta * t
    denom = -math.expm1(-age)  # 1 - e^{-age}
    if denom == 0.0:
        return 0.0  # the t -> 0 limit, where 1 - e^{-age} underflows
    # single exponential so tiny t cannot produce inf * 0
    exponent = -age - 2.0 * params.theta * r / denom
    if exponent < -745.0:
        return 0.0
    return 4.0 * params.theta ** 2 / (denom * denom) * math.exp(exponent)


def tmrca_cdf(params: ModelParams, t: float, z: float) -> float:
    """P(whole-population TMRCA <= t | current size z) = exp(-c(t) z)."""
    if not z > 0:
        raise ValueError(f"tmrca_cdf requires z > 0, got {z}")
    return math.exp(-extinction_tail(params, t) * z)


def z0_moment(params: ModelParams, k: int) -> float:
    """E[Z0^k] = (k+1)! / (2 theta)^k for the stationary marginal."""
    return positive_finite(f"E[Z0^{k}]", shrunk_z0_moment(params, k, 0.0))


def shrunk_z0_moment(params: ModelParams, k: int, alpha: float) -> float:
    """E[Z0^k] (1+alpha)^{-k} = (k+1)! / (2 theta (1+alpha))^k (inf beyond the
    float range): theta and alpha are binary fractions, so it is a ratio of
    integers, which int / int rounds once.

    A tiny alpha is a long binary fraction, and (1+alpha)^k would hold k
    times its bits.  As 1 - k alpha <= (1+alpha)^{-k} <= 1, the ratio lies
    between E[Z0^k] (1 - k alpha) and E[Z0^k], which need no power of
    1 + alpha; where both ends round to one float, that is its rounding, and
    only where they differ is the exact ratio taken."""
    if k < 0 or k != int(k):
        raise ValueError(f"z0_moment requires integer k >= 0, got {k}")
    k = int(k)
    t, u = params.theta.as_integer_ratio()
    a, b = alpha.as_integer_ratio()
    num, den = math.factorial(k + 1) * u**k, (2 * t) ** k
    if (k * a) << 64 < b:  # k alpha < 2^-64: the ends are a tiny part of an ulp apart
        value = _quotient(num, den)
        if value == _quotient(num * (b - k * a), den * b):
            return value
    return _quotient(num * b**k, den * (a + b) ** k)


def _quotient(num: int, den: int) -> float:
    """num / den rounded once, inf beyond the float range."""
    try:
        return num / den
    except OverflowError:
        return math.inf


def kesten_expectation(params: ModelParams, t: float, h: Callable[[float], float]) -> float:
    """E[h(size at 0 of the spine subtree rooted at -t)], the size-biased law.

    Equals e^{2 beta theta t} * int r q_t(r) h(r) dr, which after
    r = scale * rho, scale = (1 - e^{-2 beta theta t}) / (2 theta), is
    int rho e^{-rho} h(scale * rho) d rho: no factor of it can overflow.
    """
    if not t > 0:
        raise ValueError(f"kesten_expectation requires t > 0, got {t}")
    scale = -math.expm1(-2.0 * params.beta * params.theta * t) / (2.0 * params.theta)
    return adaptive_quad(lambda rho: rho * math.exp(-rho) * h(scale * rho), 0.0, math.inf)
