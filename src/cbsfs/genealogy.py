"""Exact simulation of the sampled ancestral structure.

A replicate is built in three steps: sample the population interval and
the n leaf positions (:func:`sample_population`), attach to every ordered
position the interval length it governs (:func:`intervals`), and draw one
branch depth per interval (:func:`sample_zetas`).

Read left to right, the n leaves form a coalescent point process: the
sample tree is determined by the n-1 gap depths between consecutive
leaves, which are the branch depths with the spine's 0 removed.  The
two depths at the interval endpoints flank the sample and only matter
for the population root.  :func:`tmrca_consecutive` and :func:`Lk_all`
read the gap depths directly; the explicit tree in :mod:`cbsfs.tree`,
built by a separate attach walk, is the geometric oracle they are
tested against.

The Monte-Carlo routes draw many replicates at once: :func:`sample_block`
returns each replicate's flank and gap depths as one row of an array, and
:func:`block_Lk` and :func:`block_tree_length` compute the statistics of
all rows together.  :func:`block_parents` derives every tree of a block
from the same rows, as one parent array over the node ids of
:func:`cbsfs.tree.build_tree`; the ``sample`` command renders its trees from
that array, and the attach walk is its oracle.  The per-replicate sampler
and statistics are the reference of the block functions.

Each record stores only what it cannot derive: a :class:`LeafConfig` is
its ordered positions and leaf labels, a :class:`ZetaVector` its depths.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class LeafConfig:
    """A sampled population interval with ordered leaf positions.

    ``positions`` has length n+2: the interval endpoints -e_g and e_d at
    ranks 0 and n+1 and the n sample leaves in between, strictly
    increasing, with the spine leaf at position exactly 0.0 at rank
    ``spine_index``.  ``labels[i]`` is the original sample index (0 for the
    spine individual) of the leaf at rank i+1.  The other fields are
    read off these two.
    """

    positions: tuple[float, ...]
    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if len(self.positions) != self.n + 2:
            raise ValueError("positions must have length n + 2")
        if any(a >= b for a, b in zip(self.positions, self.positions[1:])):
            raise ValueError("positions must be strictly increasing")
        if 0.0 not in self.positions[1:-1]:
            raise ValueError("the spine leaf must sit at position 0.0 inside the interval")

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def e_g(self) -> float:
        return -self.positions[0]

    @property
    def e_d(self) -> float:
        return self.positions[-1]

    @property
    def z0(self) -> float:
        return self.e_g + self.e_d

    @property
    def spine_index(self) -> int:
        return self.positions.index(0.0)

    def to_dict(self) -> dict:
        return {"positions": list(self.positions), "labels": list(self.labels)}


@dataclass(frozen=True)
class ZetaVector:
    """Branch depths, one per rank 0..n+1; the spine rank has depth 0."""

    zetas: tuple[float, ...]

    def __post_init__(self) -> None:
        if any(not (math.isfinite(z) and z >= 0.0) for z in self.zetas):
            raise ValueError("branch depths must be finite and nonnegative")

    def __len__(self) -> int:
        return len(self.zetas)

    def to_dict(self) -> dict:
        return {"zetas": list(self.zetas)}


# Attempts at a replicate without a (probability-zero) position collision.
_MAX_REDRAWS = 64

# Why a drawn depth can be 0, and which flags move it away.
_UNDERFLOW = "the depths scale as 1 / (beta * theta) and underflow: lower --beta or --theta"


def sample_population(
    params: ModelParams,
    n: int,
    rng: np.random.Generator,
    condition_z0: float | None = None,
) -> LeafConfig:
    """Draw a population interval and n uniform sample leaves on it.

    Unconditioned, the two interval arms are independent Exp(2 theta).
    Conditioned on total size z, the left arm is Uniform(0, z) — the
    conditional law of an exponential given the sum.  Position ties are a
    probability-zero event; if floating point produces one the replicate
    is logged and redrawn rather than perturbed.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if condition_z0 is not None and not condition_z0 > 0:
        raise ValueError(f"condition_z0 must be positive, got {condition_z0}")
    scale = 1.0 / (2.0 * params.theta)
    for _ in range(_MAX_REDRAWS):
        if condition_z0 is None:
            e_g = rng.exponential(scale)
            e_d = rng.exponential(scale)
        else:
            e_g = rng.uniform(0.0, condition_z0)
            e_d = condition_z0 - e_g
        z0 = e_g + e_d
        leaves = np.empty(n)
        leaves[0] = 0.0  # the spine individual
        if n > 1:
            leaves[1:] = z0 * rng.uniform(size=n - 1) - e_g
        order = np.argsort(leaves, kind="stable")
        positions = np.concatenate(([-e_g], leaves[order], [e_d]))
        if np.any(np.diff(positions) <= 0.0):
            logger.warning("position collision (probability-zero); redrawing replicate")
            continue
        return LeafConfig(positions=tuple(positions.tolist()), labels=tuple(order.tolist()))
    raise ValueError(
        f"could not draw {n} distinct leaf positions on an interval of size "
        f"z0={z0!r} in {_MAX_REDRAWS} attempts"
    )


def sample_block(
    params: ModelParams,
    n: int,
    rng: np.random.Generator,
    count: int,
    condition_z0: float | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``count`` independent replicates of :func:`sample_population` followed
    by :func:`sample_zetas`, drawn as arrays with one row per replicate.

    Returns ``(positions, labels, depths)``.  A row of ``positions``
    (count, n+2) and of ``labels`` (count, n) are the fields of a
    :class:`LeafConfig`.  A row of ``depths`` (count, n+1) holds the branch
    depths of the n+1 ranks other than the spine, in rank order: the left
    flank, the n-1 gap depths, the right flank.  Those ranks own, in order,
    the n+1 gaps between consecutive positions, so each depth is drawn from
    its gap.  The block draws both arms, then all leaf uniforms, then one
    unit exponential per gap; a row with a (probability-zero) position
    collision redraws its arms and uniforms, and a row with a zero
    exponential redraws its exponentials, as the per-replicate sampler does.
    A position or depth that overflows, or a depth that underflows to 0,
    which no tree or statistic can use, is a ValueError that names
    ``--beta`` and ``--theta`` (and ``--z0`` for an overflow).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if condition_z0 is not None and not condition_z0 > 0:
        raise ValueError(f"condition_z0 must be positive, got {condition_z0}")

    # an overflow leaves inf or nan in the depths, which the check below rejects
    @np.errstate(over="ignore", invalid="ignore")
    def arms_and_leaves(rows: int) -> tuple[np.ndarray, np.ndarray]:
        if condition_z0 is None:
            scale = 1.0 / (2.0 * params.theta)
            e_g, e_d = rng.exponential(scale, size=rows), rng.exponential(scale, size=rows)
        else:
            e_g = rng.uniform(0.0, condition_z0, size=rows)
            e_d = condition_z0 - e_g
        positions = np.empty((rows, n + 2))
        positions[:, 0], positions[:, -1] = -e_g, e_d
        leaves = positions[:, 1:-1]  # a view; column 0 is the spine individual
        leaves[:, 0] = 0.0
        np.multiply((e_g + e_d)[:, None], rng.uniform(size=(rows, n - 1)), out=leaves[:, 1:])
        leaves[:, 1:] -= e_g[:, None]
        order = np.argsort(leaves, axis=1, kind="stable")
        leaves[:] = np.take_along_axis(leaves, order, axis=1)
        return positions, order

    def collide(positions: np.ndarray) -> np.ndarray:
        return np.any(np.diff(positions, axis=1) <= 0.0, axis=1)

    positions, labels = arms_and_leaves(count)
    redraw = np.flatnonzero(collide(positions))
    for _ in range(_MAX_REDRAWS - 1):
        if not redraw.size:
            break
        for _ in redraw:
            logger.warning("position collision (probability-zero); redrawing replicate")
        positions[redraw], labels[redraw] = arms_and_leaves(redraw.size)
        redraw = redraw[collide(positions[redraw])]
    if redraw.size:
        z0 = float(positions[redraw[0], -1] - positions[redraw[0], 0])
        raise ValueError(
            f"could not draw {n} distinct leaf positions on an interval of size "
            f"z0={z0!r} in {_MAX_REDRAWS} attempts"
        )
    e = rng.exponential(1.0, size=(count, n + 1))
    while (zero := np.flatnonzero(np.any(e == 0.0, axis=1))).size:  # underflow guard
        e[zero] = rng.exponential(1.0, size=(zero.size, n + 1))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        depths = np.diff(positions, axis=1)  # the gaps, turned into depths in place
        depths *= 2.0 * params.theta
        depths /= e
        np.log1p(depths, out=depths)
        depths /= 2.0 * params.beta * params.theta
    if not np.all(np.isfinite(depths)):
        raise ValueError(
            "a branch depth is not finite; the positions scale as 1 / theta (or as --z0) and the "
            "depths as 1 / (beta * theta), and they overflow: raise --beta or --theta, or lower --z0"
        )
    if np.any(depths == 0.0):
        raise ValueError(f"a branch depth is 0; {_UNDERFLOW}")
    return positions, labels, depths


def intervals(config: LeafConfig) -> np.ndarray:
    """Interval length governed by each rank: the gap toward the spine side.

    Ranks left of the spine own the gap to their right neighbour, ranks
    right of it the gap to their left neighbour, and the spine rank owns
    the zero-length singleton; the lengths tile the interval, summing to z0.
    """
    pos = np.asarray(config.positions)
    s = config.spine_index
    out = np.empty(config.n + 2)
    out[:s] = pos[1 : s + 1] - pos[:s]
    out[s] = 0.0
    out[s + 1 :] = pos[s + 1 :] - pos[s:-1]
    return out


def sample_zetas(params: ModelParams, config: LeafConfig, rng: np.random.Generator) -> ZetaVector:
    """Independent branch depths, one per rank, each scaled by its interval.

    Draws one unit exponential per rank in a single vectorized call (the
    zero-length spine interval yields exactly 0 regardless of its draw).
    """
    lengths = intervals(config)
    e = rng.exponential(1.0, size=config.n + 2)
    while np.any(e == 0.0):  # probability-zero underflow guard
        e = rng.exponential(1.0, size=config.n + 2)
    zetas = np.log1p(2.0 * params.theta * lengths / e) / (2.0 * params.beta * params.theta)
    return ZetaVector(zetas=tuple(zetas.tolist()))


def _gap_depths(config: LeafConfig, zetas: ZetaVector) -> tuple[float, ...]:
    """Depths of the n-1 gaps between consecutive leaves: the branch depths
    of ranks 1..n without the spine's 0.  Entry g-1 is the gap between the
    leaves at ranks g and g+1."""
    z = zetas.zetas
    s = config.spine_index
    return z[1:s] + z[s + 1 : config.n + 1]


def tmrca_consecutive(config: LeafConfig, zetas: ZetaVector, j: int, l: int) -> float:
    """Depth of the MRCA of the consecutive leaves at ranks j..l: the
    deepest gap between them (0 for a single leaf)."""
    n = config.n
    if not (1 <= j <= l <= n):
        raise IndexError(f"need 1 <= j <= l <= n, got j={j}, l={l}, n={n}")
    if j == l:
        return 0.0
    return max(_gap_depths(config, zetas)[j - 1 : l - 1])


def Lk_all(config: LeafConfig, zetas: ZetaVector) -> np.ndarray:
    """All of L_1..L_{n-1} for one replicate (index k-1 holds L_k).

    The sample-rooted tree is the Cartesian tree of the gap depths: gap i
    is the internal node whose clade runs between its nearest deeper gaps
    on either side (missing ones infinitely deep), and its parent edge
    climbs to the shallower of those two.  Leaf j's edge climbs to the
    shallower of its two adjacent gaps.  One monotone stack finds every
    nearest deeper gap.  Each edge is added as it is found, so clades of
    one size, being disjoint, are summed left to right.  A tie counts as
    deeper on the right, so of two tied gaps the left one gets a
    zero-length edge.
    """
    n = config.n
    if n == 1:
        return np.zeros(0)
    G = (math.inf, *_gap_depths(config, zetas), math.inf)  # G[g] is gap g, 0..n
    L = [0.0] * (n - 1)
    stack = [0]  # gaps of strictly decreasing depth above the sentinel gap 0
    for right in range(1, n + 1):
        L[0] += min(G[right - 1], G[right])  # the edge of leaf `right`
        while len(stack) > 1 and G[stack[-1]] <= G[right]:
            i = stack.pop()
            left = stack[-1]
            if left or right < n:  # else i is the root, which has no edge
                L[right - left - 1] += min(G[left], G[right]) - G[i]
        stack.append(right)
    return np.array(L)


def sample_tree_length(config: LeafConfig, zetas: ZetaVector) -> float:
    """Total length of the sample-rooted tree: spine to the deepest sample
    branch plus all sample branch depths."""
    z = zetas.zetas
    interior = z[1 : config.n + 1]
    return max(interior) + sum(interior)


def population_tree_length(config: LeafConfig, zetas: ZetaVector) -> float:
    """Total length of the population-rooted tree: spine to the population
    MRCA plus all sample branch depths."""
    z = zetas.zetas
    return max(z) + sum(z[1 : config.n + 1])


def block_tree_length(depths: np.ndarray) -> np.ndarray:
    """Population-rooted tree length of each row of a :func:`sample_block`
    ``depths`` array: its deepest branch plus its n-1 gap depths."""
    return depths.max(axis=1) + depths[:, 1:-1].sum(axis=1)


def _nearest_deeper(g: np.ndarray, inner: np.ndarray, step: int, deeper) -> np.ndarray:
    """For each flat index i in ``inner``, the nearest index j = i + m*step
    (m >= 1) with ``deeper(g[j], g[i])``, found by pointer jumping: every
    pointer starts at its neighbour and, while that one is not deeper, takes
    over its pointer, skipping a run no deeper than i.  ``g`` must hold a
    sentinel that is deeper than everything at each end of every row."""
    ptr = np.arange(g.size) + step
    todo = inner
    while (todo := todo[~deeper(g[ptr[todo]], g[todo])]).size:
        ptr[todo] = ptr[ptr[todo]]
    return ptr[inner]


def _gap_neighbours(depths: np.ndarray):
    """The depths of a :func:`sample_block` ``depths`` array with the flanks
    replaced by infinitely deep sentinels, flattened, the flat index of every
    gap, and the flat index of each gap's nearest deeper one on the left and
    on the right.  A tie counts as deeper on the right."""
    count, width = depths.shape
    g = depths.copy()
    g[:, [0, -1]] = np.inf
    g = g.ravel()
    inner = (np.arange(count)[:, None] * width + np.arange(1, width - 1)).ravel()
    return g, inner, _nearest_deeper(g, inner, -1, np.greater), _nearest_deeper(g, inner, 1, np.greater_equal)


def block_Lk(depths: np.ndarray) -> np.ndarray:
    """L_1..L_{n-1} for each row of a :func:`sample_block` ``depths`` array
    (row r, column k-1 holds L_k of replicate r): :func:`Lk_all` on arrays.

    Gap i's edge climbs from its own depth to the shallower of its nearest
    deeper gaps on either side (the flanks are replaced by infinitely deep
    sentinels), and it subtends the leaves between them.  A tie counts as
    deeper on the right, as in :func:`Lk_all`, and the gap whose neighbours
    are both sentinels is the root, which has no edge.  Leaf j's edge climbs
    to the shallower of its two adjacent gaps.
    """
    count, width = depths.shape
    n = width - 1
    if n == 1:
        return np.zeros((count, 0))
    g, inner, left, right = _gap_neighbours(depths)
    size = right - left  # leaves in the clade of each gap
    edge = size < n
    lengths = np.minimum(g[left[edge]], g[right[edge]]) - g[inner[edge]]
    row = inner[edge] // width
    out = np.bincount(row * (n - 1) + size[edge] - 1, lengths, minlength=count * (n - 1))
    # bincount over no edges (n = 2) comes back as integers
    out = out.astype(float, copy=False).reshape(count, n - 1)
    g = g.reshape(count, width)
    out[:, 0] += np.minimum(g[:, :-1], g[:, 1:]).sum(axis=1)
    return out


def block_parents(depths: np.ndarray, population_root: bool) -> np.ndarray:
    """The tree of each row of a :func:`sample_block` ``depths`` array, as
    parent node ids: row r, column v holds the parent of node v of
    replicate r, or -1 for none (an int32 array of shape (count, 2n)).

    The nodes are those of :func:`cbsfs.tree.build_tree`: the leaves are
    nodes 0..n-1 in rank order, gap g is node n+g at its own depth, and node
    2n-1 is the population root, at the row's deepest depth.  That root
    exists only with ``population_root`` and only when a flank is deeper
    than every gap; otherwise no node points to it.  The sample tree is the
    Cartesian tree of the gap depths: a gap's parent is the shallower of its
    nearest deeper gaps on either side (the flanks are infinitely deep
    sentinels), and a leaf's parent is the shallower of its two adjacent
    gaps.  A tie counts as deeper on the right, as in :func:`block_Lk`, so
    tied gaps with no deeper gap between them, like a gap of depth 0, give
    an edge of length 0: a ValueError, where the attach walk raises.
    """
    count, width = depths.shape
    n = width - 1
    flat, inner, left, right = _gap_neighbours(depths)
    g = flat.reshape(count, width)
    above = np.where(flat[left] <= flat[right], left, right)
    if np.any(np.minimum(g[:, :-1], g[:, 1:]) <= 0.0) or np.any(flat[above] <= flat[inner]):
        raise ValueError(f"tied branch depths give a tree edge of length 0; {_UNDERFLOW}")
    up = np.empty((count, 2 * n - 1), dtype=np.int32)  # the column of g above each node
    up[:, :n] = np.arange(n) + (g[:, :-1] > g[:, 1:])  # leaf j lies between columns j and j+1
    up[:, n:] = (above % width).reshape(count, n - 1)
    root = np.full((count, 1), -1, dtype=np.int32)
    if population_root:
        flanks, gaps = depths[:, [0, -1]].max(axis=1), depths[:, 1:-1].max(axis=1, initial=0.0)
        root[flanks > gaps] = 2 * n - 1
    parents = np.empty((count, 2 * n), dtype=np.int32)
    # column c of g is gap node n+c-1; a flank column marks the sample root
    np.add(up, n - 1, out=parents[:, :-1])
    np.copyto(parents[:, :-1], root, where=(up == 0) | (up == n))
    parents[:, -1] = -1
    return parents
