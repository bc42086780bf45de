"""Moments of the clonal subpopulation and their Monte-Carlo verification.

The clonal mass at time 0 — individuals carrying the genotype of the
population MRCA — has conditional moments E[Z_cl^n | Z0] =
E[Z0^n e^{-mu L_n} | Z0] with L_n the population-rooted tree length, which
reduce to signed combinations of Euler Beta factors in the rescaled
mutation rate alpha = mu/(2 beta theta).  The Beta combinations nearly
cancel for large n, so each factor is evaluated through log-Gamma and the
(n-1)- and (n-1)(n-2)-weighted terms are assembled as pre-multiplied
brackets that vanish identically at n = 1, 2 instead of dividing by zero.

Two independent Monte-Carlo routes back the closed forms: the genealogy
route (sample a replicate, compute L_n from the branch depths) and the
uniform product representation over n+1 independent uniforms.
"""

from __future__ import annotations

import math
from concurrent.futures import Executor

import numpy as np

from ._mc import map_replicates, mean_and_se, replicate_rng
from .genealogy import block_tree_length, sample_block
from .model import ModelParams, z0_moment
from .specfun import beta_fn


def u_moment(alpha: float, k: int, a: float) -> float:
    """E[U^{alpha+a} (1 - U^{1+alpha})^{k-1}] = Beta(k, 1 + a/(1+alpha))/(1+alpha)."""
    if k < 1:
        raise ValueError(f"u_moment requires k >= 1, got {k}")
    if a < 0 or alpha < 0:
        raise ValueError(f"u_moment requires a, alpha >= 0, got a={a}, alpha={alpha}")
    b = a / (1.0 + alpha)
    return beta_fn(k, 1.0 + b) / (1.0 + alpha)


def e_zcl_pow_r(params: ModelParams, n: int) -> float:
    """E[Z_cl^{n-1} R], the joint clonal-mass / clonal-fraction moment.

    alpha = 0 means no mutations, so the clone is the whole population and
    the value is E[Z0^{n-1}] exactly (the Beta factor at argument
    alpha/(1+alpha) diverges there; its alpha-weighted limit is 1).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    a = params.alpha
    if a == 0.0:
        return z0_moment(params, n - 1)
    bracket = (
        beta_fn(n, (2.0 + a) / (1.0 + a))
        + beta_fn(n, a / (1.0 + a))
        - 2.0 / n
    )
    return a / (1.0 + a) ** n * bracket * z0_moment(params, n - 1)


def zcl_moment_ratio_scaled(params: ModelParams, n: int) -> float:
    """(1+alpha)^n E[Z_cl^n] / E[Z0^n], the overflow-free moment ratio.

    This is the quantity whose n^{alpha/(1+alpha)}-scaled limit is
    (2 alpha/(2+alpha)) Gamma(alpha/(1+alpha)).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    a = params.alpha
    if a == 0.0:
        return 1.0
    q0 = a / (1.0 + a)
    b_q2 = beta_fn(n, (2.0 + a) / (1.0 + a))
    b_q3 = beta_fn(n, (3.0 + a) / (1.0 + a))
    b_q1 = beta_fn(n, 1.0 / (1.0 + a))
    b_q0 = beta_fn(n, q0)
    # (n-1) beta(n-1, q0) continued through Gamma(n)Gamma(q0)/Gamma(n-1+q0)
    nm1_beta = math.exp(math.lgamma(n) + math.lgamma(q0) - math.lgamma(n - 1 + q0))
    # the six Beta brackets with their (1+alpha)^{-n} prefactor stripped:
    # A carries no further prefactor; A2, B0, B carry 1/(n-1); B2 carries
    # 1/((n-1)(n-2)) -- all pre-multiplied out
    A = 1.0 / n - b_q2
    A0 = 1.0 / n - 2.0 * b_q2 + b_q3
    B = a * b_q0 - 2.0 * (1.0 + a) / n + (2.0 + a) * b_q2
    A2 = ((1.0 + a) - (2.0 + a) * b_q2 - b_q1 + (3.0 + a) * b_q3) / (2.0 + a)
    B0 = a * b_q0 - 3.0 * (1.0 + a) / n + 3.0 * (2.0 + a) * b_q2 - (3.0 + a) * b_q3
    B2 = (
        a * (1.0 + a) * nm1_beta
        - (2.0 + 2.0 * a) * (1.0 + a) / n
        - 2.0 * (1.0 + a) ** 2
        + 2.0 * (3.0 + 2.0 * a) * (2.0 + a) * b_q2
        + (2.0 + a) * b_q1
        - (4.0 + 2.0 * a) * (3.0 + a) * b_q3
    ) / (2.0 + a)
    inner = 3.0 * A0 + 2.0 * ((n - 1) * A - A2 + B0) + (n - 2) * B - B2
    return 2.0 / (n + 1) * inner


def e_zcl_pow(params: ModelParams, n: int) -> float:
    """E[Z_cl^n]; may overflow to inf for n large enough that E[Z0^n] does
    (use zcl_moment_ratio_scaled for asymptotics)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    # at alpha = 0 both factors before E[Z0^n] are exactly 1.0
    ratio = zcl_moment_ratio_scaled(params, n)
    return ratio * (1.0 + params.alpha) ** (-n) * z0_moment(params, n)


def clonal_summary(params: ModelParams) -> dict[str, float]:
    """First moments of the clonal fraction R and mass Z_cl: ``e_r``,
    ``e_zcl``, ``cov_r_z0`` and ``normalized_cov``.

    ``normalized_cov`` is Cov(R, Z0)/(E[R] E[Z0]) = -1 + 3/(alpha+3), an
    exact identity of the closed forms.  The Pearson coefficient is a
    different number: it needs Var(R), which has no closed form here and
    is only Monte-Carlo estimable (E[R^n] = E[e^{-mu L_n}]).
    """
    a = params.alpha
    e_z0 = 1.0 / params.theta
    return {
        "e_r": 2.0 / ((a + 1.0) * (a + 2.0)),
        "e_zcl": 6.0 / ((a + 1.0) * (a + 2.0) * (a + 3.0)) * e_z0,
        "cov_r_z0": -2.0 * a / ((a + 1.0) * (a + 2.0) * (a + 3.0)) * e_z0,
        "normalized_cov": -1.0 + 3.0 / (a + 3.0),
    }


MC_STATISTICS = ("zpow_r", "zpow")


# Z0^p overflows at theta near 0 and alpha L at alpha near the float limit;
# inf or nan then fails the finiteness check of the written table
@np.errstate(over="ignore", invalid="ignore")
def _clonal_replicate(args, rng, count: int = 1) -> np.ndarray:
    """Z0^p e^{-mu L_n} for ``count`` unconditioned genealogies (one by
    default: ``perfbench/make_reference.py`` draws replicate by replicate),
    from a draw in model units: (size unit * x0)^p e^{-alpha L_n}, the size
    x0 being the row's sum of gaps."""
    params, n, statistic = args
    gaps, depths = sample_block(n, rng, count)
    z0 = params.size_unit * gaps.sum(axis=1)
    power = n - 1 if statistic == "zpow_r" else n
    return z0**power * np.exp(-params.alpha * block_tree_length(depths))


def mc_clonal(
    params: ModelParams,
    n: int,
    reps: int,
    seed: int,
    statistic: str = "zpow_r",
    pool: Executor | None = None,
) -> tuple[float, float]:
    """Genealogy-route Monte Carlo for E[Z_cl^{n-1} R] or E[Z_cl^n]: the
    mean over replicates and its standard error.

    Each replicate samples an unconditioned population-rooted genealogy
    and evaluates Z0^p e^{-mu L_n}; the total length L_n comes from the
    branch depths (equal to the built tree's length, which is asserted
    separately in the tree tests).  ``pool`` is as for
    :func:`~cbsfs._mc.map_replicates`.
    """
    if statistic not in MC_STATISTICS:
        raise ValueError(f"statistic must be one of {MC_STATISTICS}, got {statistic!r}")
    if reps < 100:
        raise ValueError(f"need reps >= 100, got {reps}")
    values = map_replicates(_clonal_replicate, (params, n, statistic), reps, seed, pool)
    mean, se = mean_and_se(values)
    return float(mean[0]), float(se[0])


def v_representation_check(
    params: ModelParams, n: int, reps: int, seed: int
) -> tuple[float, float]:
    """Second, tree-free Monte-Carlo route to E[Z_cl^{n-1} R]:
    E[Z0^{n-1}] * E[min(V_1..V_{n+1})^alpha * prod_{j=2}^n V_j^alpha]
    over independent uniforms V; the mean and its standard error."""
    if reps < 100:
        raise ValueError(f"need reps >= 100, got {reps}")
    rng = replicate_rng(seed, 0)
    a = params.alpha
    scale = z0_moment(params, n - 1)
    v = rng.uniform(size=(reps, n + 1))
    stat = v.min(axis=1) ** a
    if n >= 2:
        stat = stat * np.prod(v[:, 1:n] ** a, axis=1)
    # scaled after the reduction: at alpha = 0 every stat is exactly 1, so
    # the mean is exactly E[Z0^{n-1}] and the standard error exactly 0
    return float(scale * stat.mean()), float(scale * stat.std(ddof=1) / math.sqrt(reps))
