"""Expected and simulated site frequency spectra, and the continuum density.

The analytic route is the order-statistic expectation S_l, the
Beta(l, n-l+1) mean of the mean tallest-excursion height, combined into
per-class expected branch lengths E[L_k | Z0] and mutation counts
mu * E[L_k | Z0].  One fixed composite Gauss-Legendre rule, derived from n
alone, serves every l at once: the Beta densities on its nodes form a
matrix (built in blocks of l), the z0 nodes (one z0, or the Laguerre nodes
of the size average) are summed with their weights into one integrand, and
each table is one matrix-vector product per block.  The lengths take their
second difference in l on the densities, node by node, rather than between
rounded S_l.  :func:`s_ell` keeps the per-l adaptive quadrature as the
reference the tests compare against; it alone runs to a tighter,
relative-only tolerance than the package's quadratures.

The large-n shape of k * E[xi_k] is the Kingman constant plus the
distortion g1, one line in e^x E1(x); the bounded-remainder residual g2 is
computed as exactly that: the scaled difference between the exact
expectation and the two leading terms.

The simulated route replays the genealogy sampler and either averages
mu * L_k directly or draws Poisson counts with those means.
"""

from __future__ import annotations

import math
from concurrent.futures import Executor

import numpy as np

from ._mc import map_replicates, mean_and_se
from .genealogy import block_Lk, sample_block
from .model import ModelParams, canonical_density
from .specfun import EULER_GAMMA, H_closed, _ein, _exp_e1, adaptive_quad, gamma_upper_zero
from .tree import poisson_counts


# Tolerances of the per-l reference: relative only, tight enough to resolve
# 1e-12 in a tiny S_1 (the package's absolute 1e-13 would swamp it).
_S_ELL_ABS_TOL = 1e-300
_S_ELL_REL_TOL = 1e-13


def _log_beta_norm(n: int, ell):
    """log of n!/((l-1)! (n-l)!), the Beta(l, n-l+1) normaliser, at l = ell
    (an integer or integer array within 1..n).

    Summed as log n + sum_{j<l} log((n-j)/j), whose terms are O(log n):
    the difference of log-gammas of size n log n loses about 1e-16 n log n
    to rounding (1e-12 relative on S_1 at n = 1000).
    """
    j = np.arange(1, n)
    partial = np.concatenate([[0.0], np.cumsum(np.log((n - j) / j))])
    return math.log(n) + partial[np.asarray(ell) - 1]


def s_ell(params: ModelParams, n: int, ell: int, z0: float) -> float:
    """Mean tallest-excursion height over the l-th of n ordered uniforms.

    S_0 = 0; otherwise the Beta(l, n-l+1) expectation of
    (z0 v / beta) * H(2 theta z0 v), by adaptive quadrature with
    breakpoints at the Beta bulk (the density is a sharp spike for large n),
    to the reference tolerances above.
    """
    if not (0 <= ell <= n):
        raise IndexError(f"need 0 <= ell <= n, got ell={ell}, n={n}")
    if not z0 > 0:
        raise ValueError(f"z0 must be positive, got {z0}")
    if ell == 0:
        return 0.0
    log_norm = float(_log_beta_norm(n, ell))
    two_theta_z0 = 2.0 * params.theta * z0

    def integrand(v: float) -> float:
        log_pdf = log_norm + (ell - 1) * math.log(v) + (n - ell) * math.log1p(-v)
        return math.exp(log_pdf) * (z0 * v / params.beta) * H_closed(two_theta_z0 * v)

    mean = ell / (n + 1)
    sd = math.sqrt(mean * (1 - mean) / (n + 2))
    points = sorted({max(1e-12, mean - 8 * sd), mean, min(1 - 1e-12, mean + 8 * sd)})
    return adaptive_quad(
        integrand, 0.0, 1.0, points, abs_tol=_S_ELL_ABS_TOL, rel_tol=_S_ELL_REL_TOL
    )


# Rows of Beta weights built at once: memory is O(block x nodes), not O(n x nodes).
_ELL_BLOCK = 256


def _s_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite 24-point Gauss-Legendre nodes and weights on (0, 1) for the
    Beta(l, n-l+1) expectations behind S_l and E[L_k], 1 <= l <= n.

    Near v the Beta(l, n-l+1) densities with mass there are about
    sqrt(v(1-v)/n) wide.  Panels uniform in phi = arcsin(sqrt(v)) have that
    width profile (dv = 2 sqrt(v(1-v)) dphi); there are pi sqrt(n+1)/2 of
    them, about two local Beta widths each.  Below the first, the integrand
    behaves like v log v, so that panel is split geometrically (ratio 1/8)
    down to 1e-10/(n+1), where the rest of S_1 is far below double precision.
    """
    panels = math.ceil(math.pi * math.sqrt(n + 1) / 2.0)
    edges = np.sin(np.linspace(0.0, math.pi / 2.0, panels + 1)) ** 2
    edges[-1] = 1.0
    splits = math.ceil(math.log(edges[1] * (n + 1) / 1e-10, 8.0))
    edges = np.concatenate([[0.0], edges[1] * 8.0 ** -np.arange(splits, 0, -1.0), edges[1:]])
    t, w = np.polynomial.legendre.leggauss(24)
    half = np.diff(edges)[:, None] / 2.0
    return (edges[:-1, None] + half * (1.0 + t)).ravel(), (half * w).ravel()


def _beta_pdf(n: int, ell: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Beta(l, n-l+1) densities at v, one row per entry of the column ell."""
    return np.exp(_log_beta_norm(n, ell) + (ell - 1) * np.log(v) + (n - ell) * np.log1p(-v))


@np.errstate(over="ignore", invalid="ignore")  # beta, theta near the float limits: checked below
def _rule_sums(params: ModelParams, n: int, z0, weight, ells: np.ndarray, kernel, name, row) -> np.ndarray:
    """The rule applied to sum_j weight_j (z0_j v/beta) H(2 theta z0_j v) kernel(l, v)
    for every l in ells: the z0 nodes (scalar or array, weights alike) are summed into
    one integrand first, then each block of l is one matrix-vector product.  A sum not
    finite and >= 0 is a FloatingPointError that names it as ``name`` at ``row`` = l."""
    z = np.asarray(z0, dtype=float).reshape(-1, 1)
    if not np.all((z > 0) & np.isfinite(z)):
        raise ValueError(f"z0 must be positive and finite, got {z0}")
    v, w = _s_rule(n)
    # 2 theta z0 v is smallest at the smallest z0 and the first node
    if not 2.0 * params.theta * z.min() * v[0] > 0:
        raise ValueError(f"z0 = {z0} is too small: 2 theta z0 v underflows to 0 at the "
                         f"smallest quadrature node v = {v[0]:.3g}")
    terms = np.reshape(weight, (-1, 1)) * (z * v / params.beta) * H_closed(2.0 * params.theta * z * v)
    f = terms.sum(axis=0) * w
    blocks = range(0, ells.size, _ELL_BLOCK)
    sums = np.concatenate([kernel(ells[lo:lo + _ELL_BLOCK, None], v) @ f for lo in blocks])
    bad = np.flatnonzero(~((sums >= 0) & (sums < math.inf)))
    if bad.size:
        raise FloatingPointError(f"{name} must be finite and >= 0, got {sums[bad[0]]} at {row}={ells[bad[0]]}")
    return sums


def s_table(params: ModelParams, n: int, z0: float) -> np.ndarray:
    """S_0..S_n for one z0 from the fixed rule (:func:`s_ell` is the per-l reference)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    s = _rule_sums(params, n, z0, 1.0, np.arange(1, n + 1), lambda ell, v: _beta_pdf(n, ell, v), "S", "l")
    return np.concatenate([[0.0], s])


def _expected_lengths(params: ModelParams, n: int, z0, weight, ks: np.ndarray) -> np.ndarray:
    """E[L_k | Z0 = z0] for each k in ks (within 1..n-1), or its average
    over z0 nodes with weights (as for :func:`_rule_sums`).

    The second difference (n-k)(2 S_k - S_{k-1} - S_{k+1}) + S_{k+1} - S_{k-1}
    is taken on the Beta densities before integrating: with
    w_{k-1} = w_k (k-1)(1-v)/((n-k+1) v) and w_{k+1} = w_k (n-k) v/(k (1-v)),
    the kernel is w_k(v) [2(n-k) - (k-1)(1-v)/v - (n-k-1)(n-k) v/(k(1-v))].
    Differencing rounded S_l instead multiplies their relative error by
    about 4 (n-k) S_k / E[L_k]: 1e-9 at n = 200, 2e-5 at n = 3000.
    """
    def kernel(k, v):
        ratio = v / (1.0 - v)
        bracket = 2.0 * (n - k) - (k - 1) / ratio - (n - k - 1) * (n - k) * ratio / k
        return _beta_pdf(n, k, v) * bracket

    return _rule_sums(params, n, z0, weight, ks, kernel, "expected_L", "k")


def _laguerre_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Laguerre nodes and weights for the weight t e^{-t} on (0, inf).

    The orthogonal polynomials of that weight are L_n^(1) = -L_{n+1}', so
    the nodes are the roots of L_{n+1}' (numpy's companion-matrix roots),
    refined by two Newton steps, and the weights are
    (n + 1)/(t L_{n+1}''(t)^2).  Weights read off the eigenvectors of the
    symmetric Jacobi matrix instead miss the tiny weights of the largest
    nodes by up to ten orders of magnitude.
    """
    # reached at call time: a module-level import would load numpy.polynomial
    # in every command
    lag = np.polynomial.laguerre
    slope = lag.lagder([0.0] * (nodes + 1) + [1.0])  # L_{n+1}'
    curve = lag.lagder(slope)
    t = lag.lagroots(slope)
    for _ in range(2):
        t = t - lag.lagval(t, slope) / lag.lagval(t, curve)
    return t, (nodes + 1.0) / (t * lag.lagval(t, curve) ** 2)


# Gauss-Laguerre nodes of the average over the stationary size law.
_Z0_NODES = 40


def expected_sfs(params: ModelParams, n: int, z0: float | None = None) -> np.ndarray:
    """E[L_k] for k = 1..n-1 (entry k-1), conditioned on z0 (one node of
    weight 1) or averaged over the stationary population-size law when z0
    is None (the Gauss-Laguerre nodes, summed into the one integrand).
    E[xi_k] is mu times it."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    weight = 1.0
    if z0 is None:
        # the rule for t e^{-t} integrates the Gamma(2, 2 theta) law of Z0
        # exactly after t = 2 theta z
        t, weight = _laguerre_rule(_Z0_NODES)
        if not float(t[-1]) / (2.0 * params.theta) < math.inf:
            raise FloatingPointError("the stationary sizes, of mean 1 / theta, overflow")
        z0 = t / (2.0 * params.theta)
    return _expected_lengths(params, n, z0, weight, np.arange(1, n))


def g1(z: float, u: float) -> float:
    """Distortion of the expected spectrum against the 1/k shape:
    g1(z, u) = u (2 (1 - z (1 - u)) e^x E1(x) - 1) at x = 2 z u, the paper's
    expansion in h1' and h1'' after the derivatives cancel against its
    elementary terms (h0(x) = H(x) + (1 + x/2 + x^2/6) log x + x/6 - 1 + gamma).
    g1(z, 0) = 0, also for u below 1e-300; where 2 z u overflows there is no
    finite x, a FloatingPointError."""
    if not z > 0:
        raise ValueError(f"g1 requires z > 0, got {z}")
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"g1 requires 0 <= u <= 1, got {u}")
    if u < 1e-300:
        return 0.0
    x = 2.0 * (z * u)
    if x == math.inf:
        raise FloatingPointError(f"x = 2 z u overflows at z = {z}, u = {u}")
    # log(2z) + log(u) stays exact where x is subnormal or 0 (z near 5e-324)
    log_x = math.log(x) if x >= 2.0 ** -1022 else math.log(2.0 * z) + math.log(u)
    exp_e1 = _exp_e1(x) if x >= 1.0 else math.exp(x) * (_ein(x) - EULER_GAMMA - log_x)
    return u * (2.0 * exp_e1 * (1.0 - z * (1.0 - u)) - 1.0)


def g2_residual(params: ModelParams, n: int, k: int, z0: float) -> float:
    """Scaled remainder after the 1/k and g1/k terms are removed:
    (n^2/sqrt(k)) * (beta E[L_k|Z0]/z0 - 1/k - g1(theta z0, k/n)/k)."""
    if not (1 <= k <= n - 1):
        raise IndexError(f"need 1 <= k <= n-1, got k={k}")
    lk = float(_expected_lengths(params, n, z0, 1.0, np.array([k]))[0])
    lead = 1.0 / k + g1(params.theta * z0, k / n) / k
    return (n * n / math.sqrt(k)) * (params.beta * lk / z0 - lead)


@np.errstate(over="ignore")  # mu L near the float limit: the written table is checked
def _sfs_replicate(args, rng, count: int) -> np.ndarray:
    """mu * L_k, or Poisson counts with those means, for ``count`` genealogies."""
    params, n, z0, mode = args
    _, _, depths = sample_block(params, n, rng, count, condition_z0=z0)
    means = params.mu * block_Lk(depths)
    if mode == "poisson-counts":
        return poisson_counts(rng, means).astype(float)
    return means


SIMULATE_MODES = ("expected-lengths", "poisson-counts")


def simulate_sfs(
    params: ModelParams,
    n: int,
    reps: int,
    seed: int,
    z0: float | None = None,
    mode: str = "expected-lengths",
    pool: Executor | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo spectrum over seeded replicates: the mean of the
    per-replicate values for k = 1..n-1 and its standard error.

    "expected-lengths" averages mu * L_k per replicate; "poisson-counts"
    draws the mutation counts themselves (same means, larger variance).
    ``pool`` is as for :func:`~cbsfs._mc.map_replicates`.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if mode not in SIMULATE_MODES:
        raise ValueError(f"mode must be one of {SIMULATE_MODES}, got {mode!r}")
    values = map_replicates(_sfs_replicate, (params, n, z0, mode), reps, seed, pool)
    return mean_and_se(values)


def mean_density(params: ModelParams, r: float) -> float:
    """Density of the mean frequency measure at carrier mass r > 0:
    (mu/beta) (e^{-2 theta r}/(theta r) + e^{-2 theta r} + 2 theta r Gamma(0, 2 theta r))."""
    if not r > 0:
        raise ValueError(f"mean_density requires r > 0 (it diverges at 0), got {r}")
    x = 2.0 * params.theta * r
    decay = math.exp(-x)
    return (params.mu / params.beta) * (
        decay / (params.theta * r) + decay + x * gamma_upper_zero(x)
    )


def density_branch_check(params: ModelParams, r: float) -> float:
    """Quadrature route to the non-spine part of the density (without mu):
    (1/theta) int_0^inf q_t(r) dt, to compare with e^{-2 theta r}/(beta theta r)."""
    if not r > 0:
        raise ValueError(f"density_branch_check requires r > 0, got {r}")
    return adaptive_quad(lambda t: canonical_density(params, t, r), 0.0, math.inf) / params.theta


def density_spine_check(params: ModelParams, r: float) -> float:
    """Quadrature route to the spine part of the density (without mu):
    (2 theta/beta) r int_0^1 (1+u)/u^2 e^{-2 theta r/u} du, to compare with
    (1/beta)(e^{-2 theta r} + 2 theta r Gamma(0, 2 theta r))."""
    if not r > 0:
        raise ValueError(f"density_spine_check requires r > 0, got {r}")
    x = 2.0 * params.theta * r

    def integrand(u: float) -> float:
        return (1.0 + u) / (u * u) * math.exp(-x / u)

    return (x / params.beta) * adaptive_quad(integrand, 0.0, 1.0)
