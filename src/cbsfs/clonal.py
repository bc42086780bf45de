"""Moments of the clonal subpopulation and their Monte-Carlo verification.

The clonal mass at time 0 — individuals carrying the genotype of the
population MRCA — has conditional moments E[Z_cl^n | Z0] =
E[Z0^n e^{-mu L_n} | Z0] with L_n the population-rooted tree length, which
reduce to signed combinations of Euler Beta factors in the rescaled
mutation rate alpha = mu/(2 beta theta).  With e = 1/(1+alpha), n times
each Beta factor is f(x) = prod_{j<=n} 1/(1 + x/j) at x = -e, e or 2e, and
the combinations collect into two differences of f, each summed from
positive terms, so that no digits cancel at any alpha.  The size factor
E[Z0^n] (1+alpha)^{-n} is one exactly rounded ratio of integers.

Two independent Monte-Carlo routes back the closed forms: the genealogy
route (sample a replicate, compute L_n from the branch depths) and the
uniform product representation over n+1 independent uniforms.
"""

from __future__ import annotations

import math

import numpy as np

from ._mc import map_replicates, mean_and_se, replicate_rng
from .genealogy import block_tree_length, sample_block
from .model import ModelParams, positive_finite, shrunk_z0_moment, z0_moment
from .specfun import beta_fn


def u_moment(alpha: float, k: int, a: float) -> float:
    """E[U^{alpha+a} (1 - U^{1+alpha})^{k-1}] = Beta(k, 1 + a/(1+alpha))/(1+alpha)."""
    if k < 1:
        raise ValueError(f"u_moment requires k >= 1, got {k}")
    if a < 0 or alpha < 0:
        raise ValueError(f"u_moment requires a, alpha >= 0, got a={a}, alpha={alpha}")
    b = a / (1.0 + alpha)
    return beta_fn(k, 1.0 + b) / (1.0 + alpha)


@np.errstate(over="ignore")  # j alpha past the float range: its terms are 0
def _differences(a: float, n: int) -> tuple[float, float]:
    """alpha S and alpha X for f(x) = prod_{j<=n} 1/(1 + x/j) = n B(n, 1 + x) at
    e = 1/(1+alpha): S = f(-e) + f(e) - 2 = n (B0 + B2 - 2/n) and
    X = f(2e) - f(e) - f(0) + f(-e), each summed from positive terms.  Below
    alpha = 1, alpha f(-e) dominates, its j = 1 factor kept out of the exponential."""
    j = np.arange(1.0, n + 1.0)
    k = j - 1.0 + j * a  # j / e - 1, exact at j = 1
    if a < 1.0:
        k = k[1:]
        up, um, uq = map(math.fsum, np.log1p([1.0 / k, 1.0 / (k + 1.0), 2.0 / (k + 1.0)]).tolist())
        fm = (1.0 + a) * math.exp(up)  # alpha f(-e)
        fp = a * (1.0 + a) / (2.0 + a) * math.exp(-um)  # alpha f(e)
        fq = a * (1.0 + a) / (3.0 + a) * math.exp(-uq)  # alpha f(2e)
        return (fm - 2.0 * a) + fp, (fm - a) + (fq - fp)
    # halves of log f(-e), -log f(2e), -log f(e) and (m, mx) of the sums that cancel as their
    # differences: S = 2(e^m cosh d - 1) at d = dm + dp; X pairs f(2e) + f(-e), f(e) + f(0)
    r = 1.0 / k
    terms = np.log1p([r / (k + 2.0), 2.0 * r / (k + 3.0), r, 2.0 / (k + 1.0), 1.0 / (k + 1.0)])
    m, mx, dm, dq, dp = (0.5 * math.fsum(row) for row in terms.tolist())
    s = 2.0 * (math.expm1(m) + 2.0 * math.exp(m) * math.sinh(0.5 * (dm + dp)) ** 2)
    d = dm + dq
    x = 2.0 * math.exp(-dp) * (math.expm1(mx) * math.cosh(d)
                               + 2.0 * math.sinh(0.5 * (d + dp)) * math.sinh(0.5 * (d - dp)))
    return a * s, a * x


def e_zcl_pow_r(params: ModelParams, n: int) -> float:
    """E[Z_cl^{n-1} R] = alpha/(1+alpha)^n (B0 + B2 - 2/n) E[Z0^{n-1}], with
    B0, B2 = B(n, alpha/(1+alpha)), B(n, (2+alpha)/(1+alpha)); exactly
    E[Z0^{n-1}] at alpha = 0, where the clone is the whole population."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    a = params.alpha
    weight = 1.0 if a == 0.0 else _differences(a, n)[0] / ((1.0 + a) * n)
    return positive_finite(f"E[Z_cl^{n - 1} R]", weight * shrunk_z0_moment(params, n - 1, a))


def zcl_moment_ratio_scaled(params: ModelParams, n: int) -> float:
    """(1+alpha)^n E[Z_cl^n] / E[Z0^n] = 2 alpha (S + X/n) / ((n+1)(2+alpha)),
    the closed form's six Beta brackets collected (S, X of `_differences`);
    exactly 1 at alpha = 0.  Its n^{alpha/(1+alpha)}-scaled limit is
    (2 alpha/(2+alpha)) Gamma(alpha/(1+alpha))."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    a = params.alpha
    if a == 0.0:
        return 1.0
    s, x = _differences(a, n)
    return 2.0 * (s + x / n) / ((n + 1) * (2.0 + a))


def e_zcl_pow(params: ModelParams, n: int) -> float:
    """E[Z_cl^n], the ratio times the exact E[Z0^n] (1+alpha)^{-n}."""
    moment = zcl_moment_ratio_scaled(params, n) * shrunk_z0_moment(params, n, params.alpha)
    return positive_finite(f"E[Z_cl^{n}]", moment)


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
    pool=None,
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
