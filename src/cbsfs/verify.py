"""Self-check suites: the one implementation of the paper's checks.

Each suite takes ``(params, reps, seed, margin)`` and returns a list of
checks, each a (name, passed, detail) tuple with ``passed`` a bool.
Analytic identities are held to their quadrature tolerances; a Monte-Carlo
estimate passes when it lies within ``margin`` standard errors of its
target.  The Monte-Carlo suites raise ``reps`` to a floor of their own,
and sub-runs draw from fixed offsets of ``seed``.

Two margins are in use.  ``cbsfs verify`` runs the suites at
:data:`CLI_MARGIN` (4 SE), so they stay robust under user-chosen seeds.
Acceptance criteria 2, 4, 5, 6 and 8 (``tests/test_acceptance.py``) run
them at 3 SE, with pinned parameters, replicate counts and seeds.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import clonal, model, sfs, specfun
from ._mc import map_replicates
from .genealogy import sample_block

Check = tuple[str, bool, str]  # (name, passed, detail)

CLI_MARGIN = 4.0


def _z_score(mean: float, target: float, se: float) -> float:
    if se > 0.0:
        return abs(mean - target) / se
    return 0.0 if mean == target else math.inf


def suite_specfun(params: model.ModelParams, reps: int, seed: int, margin: float) -> list[Check]:
    out = []
    points = [0.5, 3.7, 42.0, 1e-3, 250.0, *np.random.default_rng(8001).uniform(1e-3, 100.0, 1000)]
    worst = max(abs(specfun.digamma(x + 1.0) - specfun.digamma(x) - 1.0 / x) for x in points)
    out.append(("digamma recurrence", worst < 1e-12, f"max dev {worst:.2e} over {len(points)} points"))
    bounds_ok = all(
        math.log(x) - 1.0 / x <= specfun.digamma(x) <= math.log(x) - 1.0 / (2.0 * x)
        for x in (0.1, 1.0, 7.3, 100.0)
    )
    out.append(("digamma log bounds", bounds_ok, "log x - 1/x <= psi <= log x - 1/2x"))
    shift = abs(specfun.beta_fn(4.0, 1.7) - (0.7 / 4.0) * specfun.beta_fn(5.0, 0.7))
    out.append(("beta shift identity", shift < 1e-14, f"dev {shift:.2e}"))
    from scipy import integrate  # deferred: importing the CLI must not load it

    oracle, _ = integrate.quad(lambda v: math.exp(-v) / v, 1.0, np.inf, epsabs=1e-14)
    dev = abs(specfun.gamma_upper_zero(1.0) - oracle)
    out.append(("incomplete gamma at 1 vs quadrature", dev < 1e-12, f"dev {dev:.2e}"))
    out.append(
        (
            "incomplete gamma tail",
            specfun.gamma_upper_zero(50.0) < 1e-20,
            f"Gamma(0,50) = {specfun.gamma_upper_zero(50.0):.3e}",
        )
    )
    worst = 0.0
    for x in (0.1, 1.0, 10.0):
        decomp = (
            specfun.h0(x)
            - (1.0 + x / 2.0 + x * x / 6.0) * math.log(x)
            - x / 6.0
            + 1.0
            - specfun.EULER_GAMMA
        )
        worst = max(worst, abs(specfun.H_scale(x) / decomp - 1.0))
    out.append(("H decomposition identity", worst < 1e-9, f"max rel dev {worst:.2e}"))
    worst = 0.0
    for z, u in ((0.5, 0.25), (0.5, 1.0), (2.0, 0.75), (10.0, 0.25), (10.0, 1.0)):
        # the paper's expansion, h1' and h1'' as central differences of h1 (step 1e-3)
        x, step, log_x = 2.0 * z * u, 1e-3, math.log(2.0 * z * u)
        lo, mid, hi = (specfun.h1(x + d) for d in (-step, 0.0, step))
        d1, d2 = (hi - lo) / (2.0 * step), (hi - 2.0 * mid + lo) / step**2
        expansion = (
            u * (-2.0 * log_x - 1.0 - 2.0 * specfun.EULER_GAMMA)
            + z * u * (2.0 * (1.0 - 3.0 * u) * log_x + 11.0 / 3.0 - 7.0 * u)
            + (2.0 / 3.0) * (z * u) ** 2 * (6.0 * (1.0 - 2.0 * u) * log_x + 5.0 - 7.0 * u)
            + 2.0 * u * d1 - 2.0 * z * u * (1.0 - u) * d2
        )
        worst = max(worst, abs(sfs.g1(z, u) - expansion))
    out.append(("g1 vs its h1 expansion", worst < 1e-5, f"max dev {worst:.2e}"))
    return out


def suite_quadrature_identities(
    params: model.ModelParams, reps: int, seed: int, margin: float
) -> list[Check]:
    out = []
    worst = 0.0
    for r in (0.1, 1.0, 5.0):
        combined = params.mu * (
            sfs.density_branch_check(params, r) + sfs.density_spine_check(params, r)
        )
        worst = max(worst, abs(sfs.mean_density(params, r) - combined))
    out.append(("density = branch + spine quadratures", worst < 1e-8, f"max dev {worst:.2e}"))
    # the density is linear in mu: the asymptotes hold per unit mu, also at mu = 0
    unit = dataclasses.replace(params, mu=1.0)
    r0 = 1e-6 / params.theta  # the deviation is about theta r0
    small = abs(sfs.mean_density(unit, r0) * params.beta * params.theta * r0 - 1.0)
    r1 = 50.0 / params.theta  # scaled tail deviates by exactly 1/(2x) + O(1/x^2)
    big = abs(sfs.mean_density(unit, r1) * params.beta * math.exp(2.0 * params.theta * r1) / 2.0 - 1.0)
    out.append(("density asymptotes", small < 1e-4 and big < 1e-2, f"r->0 {small:.1e}, r->inf {big:.1e}"))
    worst_mass = worst_mean = 0.0
    for t in (0.5, 1.0, 3.0):
        mass = specfun.adaptive_quad(
            lambda r: model.canonical_density(params, t, r), 0.0, math.inf
        )
        worst_mass = max(worst_mass, abs(mass - model.extinction_tail(params, t)))
        mean = specfun.adaptive_quad(
            lambda r: r * model.canonical_density(params, t, r), 0.0, math.inf
        )
        decay = math.exp(-2.0 * params.beta * params.theta * t)
        worst_mean = max(worst_mean, abs(mean - decay))
    out.append(("surviving-mass density total = c(t)", worst_mass < 1e-9, f"max dev {worst_mass:.2e}"))
    out.append(("surviving-mass density mean = decay", worst_mean < 1e-9, f"max dev {worst_mean:.2e}"))
    dev = abs(model.kesten_expectation(params, 1.0, lambda r: 1.0) - 1.0)
    out.append(("size-biased law is a probability", dev < 1e-9, f"dev {dev:.2e}"))
    worst = max(
        abs(specfun.H_closed(x) / specfun.H_scale(x) - 1.0) for x in (0.05, 0.7, 3.0, 40.0)
    )
    out.append(("H closed form vs quadrature", worst < 1e-10, f"max rel dev {worst:.2e}"))
    return out


def _tmrca_replicate(args, rng, count: int) -> np.ndarray:
    """Population TMRCA of ``count`` genealogies: each one's deepest branch."""
    params, n, z0 = args
    return sample_block(params, n, rng, count, condition_z0=z0)[2].max(axis=1)


def suite_tmrca_law(params: model.ModelParams, reps: int, seed: int, margin: float) -> list[Check]:
    from scipy import stats  # deferred: importing the CLI must not load it

    reps = max(reps, 5000)
    z0 = 1.5 / params.theta
    n = 5
    maxima = map_replicates(_tmrca_replicate, (params, n, z0), reps, seed)

    def cdf(t):
        t = np.maximum(np.atleast_1d(t).astype(float), 1e-300)
        return np.array([model.tmrca_cdf(params, v, z0) for v in t])

    ks = stats.kstest(maxima, cdf)
    threshold = 1.63 / math.sqrt(reps)
    return [
        (
            "population TMRCA law (KS, alpha=0.01)",
            bool(ks.statistic < threshold),
            f"KS {ks.statistic:.5f} < {threshold:.5f} at {reps} reps",
        )
    ]


def suite_sfs_mc(params: model.ModelParams, reps: int, seed: int, margin: float) -> list[Check]:
    out = []
    n = 10
    reps = max(reps, 2000)
    for i, scale in enumerate((1.0, 2.0)):
        z0 = scale / params.theta
        mean, se = sfs.simulate_sfs(params, n, reps, seed + i, z0=z0)
        xi = params.mu * sfs.expected_sfs(params, n, z0)
        worst = max(map(_z_score, mean.tolist(), xi.tolist(), se.tolist()))
        out.append(
            (
                f"simulated spectrum vs expected at z0 = {scale:g}/theta ({margin:g} SE)",
                worst < margin,
                f"max |z| = {worst:.2f} over k=1..{n - 1} at {reps} reps",
            )
        )
    return out


def suite_clonal(params: model.ModelParams, reps: int, seed: int, margin: float) -> list[Check]:
    out = []
    reps = max(reps, 5000)
    lhs = clonal.u_moment(1.0, 3, 2.0)
    rhs = (2.0 / 3.0) * specfun.beta_fn(4.0, 1.0) / 4.0
    out.append(("uniform-moment recursion", abs(lhs - rhs) < 1e-14, f"dev {abs(lhs - rhs):.2e}"))
    summary = clonal.clonal_summary(params)
    for offset, label, statistic, moment, rational in (
        (1, "E[R]", "zpow_r", clonal.e_zcl_pow_r, summary["e_r"]),
        (2, "E[Z_cl]", "zpow", clonal.e_zcl_pow, summary["e_zcl"]),
    ):
        dev = abs(moment(params, 1) - rational)
        out.append(
            (f"{label} closed form vs rational", dev <= 1e-12 * rational, f"{rational:.6g}, dev {dev:.1e}")
        )
        mean, se = clonal.mc_clonal(params, 1, reps, seed + offset, statistic=statistic)
        z = _z_score(mean, rational, se)
        out.append((f"{label} vs tree-route MC ({margin:g} SE)", z < margin, f"|z| = {z:.2f} at {reps} reps"))
    for n in (2, 3, 5):
        analytic = clonal.e_zcl_pow_r(params, n)
        tree_mean, tree_se = clonal.mc_clonal(params, n, reps, seed + 10 + n)
        v_mean, v_se = clonal.v_representation_check(params, n, 4 * reps, seed + 20 + n)
        z_tree = _z_score(tree_mean, analytic, tree_se)
        z_v = _z_score(v_mean, analytic, v_se)
        z_cross = _z_score(tree_mean, v_mean, math.hypot(tree_se, v_se))
        out.append(
            (
                f"E[Z_cl^{n - 1} R]: tree MC, uniform-product MC, closed form ({margin:g} SE)",
                max(z_tree, z_v, z_cross) < margin,
                f"|z| tree {z_tree:.2f}, V {z_v:.2f}, cross {z_cross:.2f}"
                f" at {reps}/{4 * reps} reps",
            )
        )
    return out


SUITES = {
    "specfun": suite_specfun,
    "quadrature-identities": suite_quadrature_identities,
    "tmrca-law": suite_tmrca_law,
    "sfs-mc": suite_sfs_mc,
    "clonal": suite_clonal,
}


def run_suite(
    name: str, params: model.ModelParams, reps: int, seed: int, margin: float
) -> list[Check]:
    suites = SUITES.values() if name == "all" else [SUITES[name]]
    return [check for suite in suites for check in suite(params, reps, seed, margin)]
