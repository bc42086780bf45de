"""Expected and simulated site frequency spectra, and the continuum density.

The analytic route is the order-statistic expectation S_l, the
Beta(l, n-l+1) mean of the mean tallest-excursion height, combined into
per-class expected branch lengths E[L_k | Z0] and mutation counts
mu * E[L_k | Z0].  Every table here is in model units (:mod:`cbsfs.model`):
a function of n and the scaled size x0 = 2 theta z0 alone, which the
caller turns into physical units once (a length is the time unit
1 / (2 beta theta) times it, a mutation count alpha times it).  One fixed
composite Gauss-Legendre rule, derived from n alone, serves every l at
once: the Beta densities on its nodes form a matrix (built in blocks of
l of a fixed number of entries), the size nodes (one x0, or the frozen
Laguerre nodes of the size average) are summed with their weights into
one integrand, and each table is one matrix-vector product per block.
The lengths take their second difference in l on the densities, node by
node, rather than between rounded S_l.  :func:`s_ell` keeps the per-l
adaptive quadrature as the reference the tests compare against; it alone
runs to a tighter, relative-only tolerance than the package's quadratures.

The large-n shape of k * E[xi_k] is the Kingman constant plus the
distortion g1, one line in e^x E1(x); the tests take the bounded-remainder
residual g2 as the scaled difference between the exact expectation and
those two leading terms.

The simulated route replays the genealogy sampler and either averages
mu * L_k directly or draws Poisson counts with those means.
"""

from __future__ import annotations

import math

import numpy as np

from ._mc import map_replicates, mean_and_se
from .genealogy import block_Lk, sample_block
from .model import ModelParams, canonical_density, positive_finite
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


def s_ell(n: int, ell: int, x0: float) -> float:
    """Mean tallest-excursion height over the l-th of n ordered uniforms, in
    model units at the size x0.

    S_0 = 0; otherwise the Beta(l, n-l+1) expectation of (x0 v) H(x0 v), by
    adaptive quadrature with breakpoints at the Beta bulk (the density is a
    sharp spike for large n), to the reference tolerances above.
    """
    if not (0 <= ell <= n):
        raise IndexError(f"need 0 <= ell <= n, got ell={ell}, n={n}")
    positive_finite("the size x0", x0)
    if ell == 0:
        return 0.0
    log_norm = float(_log_beta_norm(n, ell))

    def integrand(v: float) -> float:
        log_pdf = log_norm + (ell - 1) * math.log(v) + (n - ell) * math.log1p(-v)
        return math.exp(log_pdf) * (x0 * v) * H_closed(x0 * v)

    mean = ell / (n + 1)
    sd = math.sqrt(mean * (1 - mean) / (n + 2))
    points = sorted({max(1e-12, mean - 8 * sd), mean, min(1 - 1e-12, mean + 8 * sd)})
    return adaptive_quad(
        integrand, 0.0, 1.0, points, abs_tol=_S_ELL_ABS_TOL, rel_tol=_S_ELL_REL_TOL
    )


# The spectrum rule's working set: no array it builds per block holds more
# than about this many entries (256 KB of float64), whatever n is.  The
# Beta kernel is built in blocks of rows, a multiple of 8 (OpenBLAS's dgemv
# sums rows in groups of 8, so blocks of 8j rows give every row the bits of
# one product over all rows; blocks of 1, 7 or 9 rows moved the n = 3000
# tables by up to 8e-13), and the size integrand in chunks of whole panels.
_ELL_BLOCK = 2**15

# The 24-point Gauss-Legendre rule on (-1, 1): nodes, then weights, the
# bits of numpy.polynomial.legendre.leggauss(24).  Plain floats, so that
# importing the module runs no numpy operation.
_LEGENDRE = (
    (-0.9951872199970213, -0.9747285559713095, -0.9382745520027328, -0.8864155270044011,
     -0.820001985973903, -0.7401241915785544, -0.6480936519369755, -0.5454214713888396,
     -0.4337935076260451, -0.3150426796961634, -0.1911188674736163, -0.06405689286260563,
     0.06405689286260563, 0.1911188674736163, 0.3150426796961634, 0.4337935076260451,
     0.5454214713888396, 0.6480936519369755, 0.7401241915785544, 0.820001985973903,
     0.8864155270044011, 0.9382745520027328, 0.9747285559713095, 0.9951872199970213),
    (0.01234122979998869, 0.02853138862893356, 0.04427743881741941, 0.05929858491543636,
     0.07334648141108016, 0.0861901615319532, 0.09761865210411393, 0.10744427011596556,
     0.11550566805372552, 0.1216704729278033, 0.12583745634682825, 0.12793819534675202,
     0.12793819534675202, 0.12583745634682825, 0.1216704729278033, 0.11550566805372552,
     0.10744427011596556, 0.09761865210411393, 0.0861901615319532, 0.07334648141108016,
     0.05929858491543636, 0.04427743881741941, 0.02853138862893356, 0.01234122979998869),
)

# The 40-node Gauss-Laguerre rule for the weight t e^{-t} on (0, inf), which
# integrates the Gamma(2, 1) law of x0: nodes, then weights.  The tests
# rebuild it from the roots of L_41' and check it against scipy.
_LAGUERRE = (
    (0.08954050659237958, 0.3002958377985001, 0.6319059872791065, 1.0848366277396009,
     1.6597590728784573, 2.357538056982572, 3.179236636467165, 4.126124820498743,
     5.1996906311140645, 6.401653564078322, 7.733980691913063, 9.198905774591644,
     10.798951850934625, 12.53695790558015, 14.416110356358763, 16.43998029699863,
     18.61256767493958, 20.93835390335719, 23.422364827864705, 26.07024653110651,
     28.88835721961993, 31.883879481005728, 35.064958651743424, 38.44087508976156,
     42.02226110217022, 45.821377618274184, 49.852472209152076, 54.132250066478804,
     58.68050537859231, 63.520986359459755, 68.68261086422278, 74.2012266143853,
     80.12225309107423, 86.50482398111559, 93.42864682201288, 101.00618781054932,
     109.40644656538431, 118.90795125165516, 130.04405811287367, 144.18887015539497),
    (0.012314463232501936, 0.06029781670040689, 0.13173423789774263,
     0.18837302108490483, 0.2008204306707303, 0.16949085668778402,
     0.11697191760224537, 0.06728114565704535, 0.032637420515432655,
     0.013452280491050416, 0.004733220358807389, 0.0014255162567753151,
     0.0003679502872947073, 8.140726289840545e-05, 1.5425593914236217e-05,
     2.4992831569151935e-06, 3.4541708737679895e-07, 4.059453864580221e-08,
     4.041157086414726e-09, 3.3918861216346593e-10, 2.387240696679645e-11,
     1.3998917829113335e-12, 6.789087099241505e-14, 2.6996488553510248e-15,
     8.7144660575932e-17, 2.257126694178667e-18, 4.627370464006783e-20,
     7.389221711541716e-22, 9.016739463881932e-24, 8.21678591448723e-26,
     5.437215389706771e-28, 2.5232556908772726e-30, 7.857889117175142e-33,
     1.5505696933797076e-35, 1.7946143303809734e-38, 1.0927286939561277e-41,
     2.974186305781184e-45, 2.7702050982715785e-49, 5.315281890038273e-54,
     5.798688146781162e-60),
)


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
    t, w = np.array(_LEGENDRE)
    half = np.diff(edges)[:, None] / 2.0
    return (edges[:-1, None] + half * (1.0 + t)).ravel(), (half * w).ravel()


def _rule_sums(n: int, x0, weight, ells: np.ndarray, bracket) -> np.ndarray:
    """The rule applied to sum_j weight_j (x0_j v) H(x0_j v) kernel(l, v) for
    every l in ells, in model units.  The kernel is the Beta(l, n-l+1)
    density times a_l - b_l / r - c_l r / l at r = v/(1-v), where bracket
    holds the columns (a, b, c) over ells (1, 0, 0 give the density alone).
    The sizes x0 (scalar or array, weights alike) are summed into one
    integrand first, then each block of l is one matrix-vector product.
    Every sum is finite where x0 v stays above 0."""
    x, weight = np.reshape(x0, (-1, 1)), np.reshape(weight, (-1, 1))
    v, w = _s_rule(n)
    # x0 v is smallest at the smallest x0 and the first node
    if not x.min() * v[0] > 0:
        raise FloatingPointError(f"x0 = {float(x.min())!r} is too small: x0 v underflows to 0 at the "
                                 f"smallest quadrature node v = {v[0]:.3g}")
    f = np.empty_like(v)
    # whole panels of 24 nodes: numpy would sum a one-column chunk over the
    # sizes pairwise, not in order as it sums a wider one
    cols = 24 * max(1, _ELL_BLOCK // (24 * x.size))
    for lo in range(0, v.size, cols):
        xv = x * v[lo:lo + cols]
        f[lo:lo + cols] = (weight * xv * H_closed(xv)).sum(axis=0) * w[lo:lo + cols]
    # everything the blocks share, once per table, and three buffers they
    # reuse (a fresh temporary per operation made 8-row blocks at n = 10^4
    # about 1.7 times slower)
    ell = ells[:, None]
    log_norm, below, above = _log_beta_norm(n, ell), ell - 1, n - ell
    a, b, c = (np.reshape(column, (-1, 1)) for column in bracket)
    log_v, log_1mv, ratio = np.log(v), np.log1p(-v), v / (1.0 - v)
    rows = 8 * max(1, _ELL_BLOCK // (8 * v.size))
    buffers = np.empty((3, rows, v.size))
    sums = np.empty(ells.size)
    for lo in range(0, ells.size, rows):
        hi = min(lo + rows, ells.size)
        kernel, term, rest = buffers[:, :hi - lo]
        # log_norm + (l-1) log v + (n-l) log(1-v), then its exp
        np.multiply(below[lo:hi], log_v, out=kernel)
        kernel += log_norm[lo:hi]
        np.multiply(above[lo:hi], log_1mv, out=term)
        kernel += term
        np.exp(kernel, out=kernel)
        # (a - b/r) - (c r)/l, rounded in that order
        np.divide(b[lo:hi], ratio, out=term)
        np.subtract(a[lo:hi], term, out=term)
        np.multiply(c[lo:hi], ratio, out=rest)
        rest /= ell[lo:hi]
        term -= rest
        kernel *= term
        sums[lo:hi] = kernel @ f
    return sums


def expected_sfs(n: int, x0: float | None = None) -> np.ndarray:
    """E[L_k | x0] in model units for k = 1..n-1 (entry k-1), conditioned on
    the size x0 (one node of weight 1), or averaged over the stationary size
    law, under which x0 is Gamma(2, 1), when x0 is None (the Gauss-Laguerre
    nodes, summed into the one integrand).  E[L_k] is the time unit times
    it, E[xi_k] alpha times it.

    The second difference (n-k)(2 S_k - S_{k-1} - S_{k+1}) + S_{k+1} - S_{k-1}
    is taken on the Beta densities before integrating: with
    w_{k-1} = w_k (k-1)(1-v)/((n-k+1) v) and w_{k+1} = w_k (n-k) v/(k (1-v)),
    the kernel is w_k(v) [2(n-k) - (k-1)(1-v)/v - (n-k-1)(n-k) v/(k(1-v))].
    Differencing rounded S_l instead multiplies their relative error by
    about 4 (n-k) S_k / E[L_k]: 1e-9 at n = 200, 2e-5 at n = 3000.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    x0, weight = _LAGUERRE if x0 is None else (positive_finite("the size x0", x0), 1.0)
    k = np.arange(1, n)
    return _rule_sums(n, x0, weight, k, (2.0 * (n - k), k - 1, (n - k - 1) * (n - k)))


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


@np.errstate(over="ignore")  # alpha L near the float limit: the written table is checked
def _sfs_replicate(args, rng, count: int) -> np.ndarray:
    """mu * L_k = alpha * L_k in model units, or Poisson counts with those
    means, for ``count`` genealogies."""
    params, n, z0, mode = args
    x0 = None if z0 is None else params.model_size(z0)
    means = params.alpha * block_Lk(sample_block(n, rng, count, x0)[1])
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
    pool=None,
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
