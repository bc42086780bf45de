"""Per-replicate references for the block routes of the package, the
queries of the explicit tree, the laws no command evaluates, the
order-statistic table S_0..S_n of the spectrum rule, and the residual g2
of the spectrum's large-n expansion.

The package draws and renders whole blocks of genealogies as arrays; these
rebuild the same results one replicate at a time through the record types
and the explicit tree, whose attach walk shares no code with the block
build.  The consecutive-leaf TMRCA read from the depths, and the MRCA
depth and per-count edge lengths read from the tree, are criterion 1's
two sides.
"""

import math

import numpy as np

from cbsfs.genealogy import LeafConfig, ZetaVector, leaf_positions, sample_block
from cbsfs.model import ModelParams
from cbsfs.sfs import _rule_sums, expected_sfs, g1
from cbsfs.tree import GenealogyTree, StructuralError, build_tree, drop_mutations, newick_export


def block_records(positions, labels, depths):
    """Each row of a ``sample_block`` draw, placed by ``leaf_positions``, as
    a ``(LeafConfig, ZetaVector)`` pair, with the spine's depth 0 put back
    at its rank."""
    for row_positions, row_labels, row_depths in zip(positions, labels, depths):
        config = LeafConfig(positions=tuple(row_positions.tolist()), labels=tuple(row_labels.tolist()))
        spine, row_depths = config.spine_index, row_depths.tolist()
        yield config, ZetaVector(zetas=(*row_depths[:spine], 0.0, *row_depths[spine:]))


def drawn_records(n, rng, count, x0=None):
    """A ``sample_block`` draw in model units, placed by ``leaf_positions``
    from the same generator, as the records of ``block_records``."""
    gaps, depths = sample_block(n, rng, count, x0)
    return block_records(*leaf_positions(gaps, rng), depths)


def sample_records(args, rng, count=1):
    """The block function of ``cbsfs sample`` built tree by tree: the block
    drawn in model units, its leaves placed, and scaled to the units of
    ``params``, then each row's records, its tree from ``build_tree``, then
    its mutations and Newick text from that tree."""
    params, n, z0, mode = args
    gaps, depths = sample_block(n, rng, count, None if z0 is None else 2.0 * params.theta * z0)
    positions, labels = leaf_positions(gaps, rng)
    records = []
    for config, zetas in block_records(positions * params.size_unit, labels, depths * params.time_unit):
        tree = build_tree(config, zetas, mode)
        overlay = drop_mutations(tree, params, rng)
        records.append({
            "leaf_config": config.to_dict(),
            "zetas": zetas.to_dict(),
            "mutations": overlay.to_dict(),
            "newick": newick_export(tree),
        })
    return records


def s_table(n: int, x0: float) -> np.ndarray:
    """S_0..S_n in model units at the size x0 from the package's fixed rule,
    one Beta density per l (:func:`cbsfs.sfs.s_ell` is the per-l reference)."""
    s = _rule_sums(n, x0, 1.0, np.arange(1, n + 1), (np.ones(n), np.zeros(n), np.zeros(n)))
    return np.concatenate([[0.0], s])


def g2_residual(n: int, x0: float) -> np.ndarray:
    """Scaled remainder after the 1/k and g1/k terms are removed, for
    k = 1..n-1 (entry k-1):
    (n^2/sqrt(k)) * (E[L_k|x0]/x0 - 1/k - g1(x0/2, k/n)/k), free of units."""
    lk = expected_sfs(n, x0)
    k = np.arange(1, n)
    lead = 1.0 / k + np.array([g1(x0 / 2.0, j / n) for j in range(1, n)]) / k
    return (n * n / np.sqrt(k)) * (lk / x0 - lead)


def _laguerre_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Laguerre nodes and weights for the weight t e^{-t} on (0, inf),
    the reference for the package's frozen 40-node rule.

    The orthogonal polynomials of that weight are L_n^(1) = -L_{n+1}', so
    the nodes are the roots of L_{n+1}' (numpy's companion-matrix roots),
    refined by two Newton steps, and the weights are
    (n + 1)/(t L_{n+1}''(t)^2).  Weights read off the eigenvectors of the
    symmetric Jacobi matrix instead miss the tiny weights of the largest
    nodes by up to ten orders of magnitude.
    """
    lag = np.polynomial.laguerre
    slope = lag.lagder([0.0] * (nodes + 1) + [1.0])  # L_{n+1}'
    curve = lag.lagder(slope)
    t = lag.lagroots(slope)
    for _ in range(2):
        t = t - lag.lagval(t, slope) / lag.lagval(t, curve)
    return t, (nodes + 1.0) / (t * lag.lagval(t, curve) ** 2)


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


def z0_density(params: ModelParams, z: float) -> float:
    """Stationary population-size density: Gamma(2, rate 2 theta)."""
    if not z > 0:
        raise ValueError(f"z0_density requires z > 0, got {z}")
    rate = 2.0 * params.theta
    return rate * rate * z * math.exp(-rate * z)


def tmrca_consecutive(config: LeafConfig, zetas: ZetaVector, j: int, l: int) -> float:
    """Depth of the MRCA of the consecutive leaves at ranks j..l: the
    deepest gap between them (0 for a single leaf).  The gap depths are the
    branch depths of ranks 1..n without the spine's 0."""
    n = config.n
    if not (1 <= j <= l <= n):
        raise IndexError(f"need 1 <= j <= l <= n, got j={j}, l={l}, n={n}")
    if j == l:
        return 0.0
    z, s = zetas.zetas, config.spine_index
    return max((z[1:s] + z[s + 1 : n + 1])[j - 1 : l - 1])


def tree_tmrca(tree: GenealogyTree, leaf_ids: list[int] | tuple[int, ...]) -> float:
    """Depth of the MRCA of a leaf set, by upward traversal."""
    if not leaf_ids:
        raise IndexError("leaf set must be nonempty")
    first, *rest = leaf_ids
    path = []
    v = first
    while v is not None:
        path.append(v)
        v = tree.nodes[v].parent
    ancestors = {node_id: i for i, node_id in enumerate(path)}
    deepest = 0
    for leaf in rest:
        v = leaf
        while v not in ancestors:
            parent = tree.nodes[v].parent
            if parent is None:
                raise StructuralError("walked past the root without meeting")
            v = parent
        deepest = max(deepest, ancestors[v])
    return tree.depth(path[deepest])


def edge_lengths_by_count(tree: GenealogyTree) -> dict[int, float]:
    """Total edge length subtending exactly c sample leaves, for each c."""
    counts = tree.leaf_counts()
    out: dict[int, float] = {}
    for child, _, length in tree.edges():
        c = counts[child]
        out[c] = out.get(c, 0.0) + length
    return out
