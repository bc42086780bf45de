"""Branching parameters and one-dimensional laws of the stationary population.

Everything here is a pure closed form (or a quadrature of one) in the
branching parameters: the extinction-time tail c(t), the transform
u(t, lambda), the surviving-excursion density q_t, the TMRCA law of the
whole extant population, the stationary marginal of the population size,
and expectations under the size-biased (spine) law.
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
    def alpha(self) -> float:
        """Mutation rate in tree-length units: alpha = mu / (2 beta theta)."""
        return self.mu / (2.0 * self.beta * self.theta)


def extinction_tail(params: ModelParams, t: float) -> float:
    """c(t) = 2 theta / (e^{2 beta theta t} - 1), the excursion survival tail."""
    if not t > 0:
        raise ValueError(f"extinction_tail requires t > 0, got {t}")
    exponent = 2.0 * params.beta * params.theta * t
    if exponent > 700.0:  # e^x - 1 overflows; 1 is negligible, underflow to 0 is exact enough
        return 2.0 * params.theta * math.exp(-exponent)
    # expm1 keeps t*c(t) -> 1/beta exact for tiny t
    return 2.0 * params.theta / math.expm1(exponent)


def laplace_u(params: ModelParams, t: float, lam: float) -> float:
    """u(t, lambda) = 2 theta lambda / ((2 theta + lambda) e^{2 b th t} - lambda).

    Evaluated with the exponential folded into the numerator so large t
    cannot overflow; u(t, 0) = 0 and u(t, lambda) -> c(t) as lambda -> inf.
    """
    if not t > 0:
        raise ValueError(f"laplace_u requires t > 0, got {t}")
    if lam < 0:
        raise ValueError(f"laplace_u requires lam >= 0, got {lam}")
    decay = math.exp(-2.0 * params.beta * params.theta * t)
    return 2.0 * params.theta * lam * decay / (2.0 * params.theta + lam - lam * decay)


def canonical_density(params: ModelParams, t: float, r: float) -> float:
    """Density q_t(r) of the surviving mass at age t under the excursion law."""
    if not t > 0:
        raise ValueError(f"canonical_density requires t > 0, got {t}")
    if not r > 0:
        raise ValueError(f"canonical_density requires r > 0, got {r}")
    age = 2.0 * params.beta * params.theta * t
    denom = -math.expm1(-age)  # 1 - e^{-age}
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


def z0_density(params: ModelParams, z: float) -> float:
    """Stationary population-size density: Gamma(2, rate 2 theta)."""
    if not z > 0:
        raise ValueError(f"z0_density requires z > 0, got {z}")
    rate = 2.0 * params.theta
    return rate * rate * z * math.exp(-rate * z)

def z0_moment(params: ModelParams, k: int) -> float:
    """E[Z0^k] = (k+1)! / (2 theta)^k for the stationary marginal."""
    if k < 0 or k != int(k):
        raise ValueError(f"z0_moment requires integer k >= 0, got {k}")
    k = int(k)
    if k <= 150:
        return math.factorial(k + 1) / (2.0 * params.theta) ** k
    log_m = math.lgamma(k + 2) - k * math.log(2.0 * params.theta)
    try:
        return math.exp(log_m)
    except OverflowError:
        return math.inf


def kesten_expectation(params: ModelParams, t: float, h: Callable[[float], float]) -> float:
    """E[h(size at 0 of the spine subtree rooted at -t)], the size-biased law.

    Equals e^{2 beta theta t} * int r q_t(r) h(r) dr; the growth factor is
    folded into q_t before exponentiation so large t stays finite.
    """
    if not t > 0:
        raise ValueError(f"kesten_expectation requires t > 0, got {t}")
    denom = -math.expm1(-2.0 * params.beta * params.theta * t)
    amp = 4.0 * params.theta ** 2 / (denom * denom)
    scale = denom / (2.0 * params.theta)

    def integrand(r: float) -> float:
        return amp * r * h(r) * math.exp(-r / scale)

    return adaptive_quad(integrand, 0.0, math.inf)
