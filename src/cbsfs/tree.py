"""Explicit rooted trees built from sampled leaf positions and branch depths.

The construction walks each leaf's branch toward the spine and merges it
into the first strictly taller branch on the way (the spine counts as
infinitely tall), then cuts the spine at either the deepest sample
branching point (sample root) or the deepest of all branch depths
including the interval endpoints (population root).

Trees are parent-pointer node lists with times (0 at the leaves, negative
below), which makes TMRCA queries an upward walk and length accounting a
single pass over edges.  A node's id is its index in the list, the leaves
are nodes 0..n-1 in position-rank order and the root is the one node
without a parent; the walk reads only ranks and depths, never positions.
The mutation overlay is a Poisson sprinkling on edges; a mutation's
carrier set is the leaf set under its edge, so carrier counts are
per-edge quantities.

The ``sample`` command builds no tree objects: its block,
:func:`_sample_replicate`, draws the leaves and depths, derives every tree
from the parent array of :func:`cbsfs.genealogy.block_parents`, then draws
each tree's mutations and writes its record as text, with the same node
ids, lengths and draws.  The attach walk of :func:`build_tree` shares no
code with that derivation and is its oracle, and the replay of every
``sample`` record.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .genealogy import LeafConfig, ZetaVector, block_parents, block_tree_length, leaf_positions, sample_block
from .model import ModelParams


class StructuralError(RuntimeError):
    """The probability-zero tie/degeneracy cases the construction forbids."""


class RootMode(str, Enum):
    SAMPLE_MRCA = "sample"
    POPULATION_MRCA = "population"


@dataclass
class TreeNode:
    """One node; its id is its index in ``GenealogyTree.nodes``."""

    time: float  # 0.0 at leaves, strictly negative below
    parent: int | None
    leaf_label: int | None = None


@dataclass
class GenealogyTree:
    """Rooted tree over the n sample leaves.

    The leaves are nodes 0..n-1 in position-rank order and ``leaf_label``
    on each is its original sample index.  ``root`` is the one node without
    a parent.
    """

    nodes: list[TreeNode]
    root_mode: RootMode

    def __post_init__(self) -> None:
        self._children: dict[int, list[int]] = {}
        roots = []
        for i, node in enumerate(self.nodes):
            if node.parent is None:
                roots.append(i)
            else:
                self._children.setdefault(node.parent, []).append(i)
        if len(roots) != 1:
            raise StructuralError(f"expected a single root, found {roots}")
        self.root = roots[0]

    @property
    def n_leaves(self) -> int:
        return sum(node.leaf_label is not None for node in self.nodes)

    def children(self, node_id: int) -> list[int]:
        return self._children.get(node_id, [])

    def depth(self, node_id: int) -> float:
        return -self.nodes[node_id].time

    def edges(self):
        """Yield (child_id, parent_id, length) for every edge, by child id."""
        for i, node in enumerate(self.nodes):
            if node.parent is not None:
                yield i, node.parent, node.time - self.nodes[node.parent].time

    def total_length(self) -> float:
        return sum(length for _, _, length in self.edges())

    def validate(self) -> None:
        labelled = [i for i, node in enumerate(self.nodes) if node.leaf_label is not None]
        if labelled != list(range(len(labelled))):
            raise StructuralError(f"leaves must be nodes 0..n-1, found {labelled}")
        if any(self.nodes[i].time != 0.0 for i in labelled):
            raise StructuralError("leaf times must be exactly 0")
        for child, parent, length in self.edges():
            if not length > 0.0:
                raise StructuralError(f"edge {child}->{parent} has length {length}")

    def leaf_counts(self) -> dict[int, int]:
        """Sample leaves under each node (a leaf counts itself)."""
        counts = {i: int(node.leaf_label is not None) for i, node in enumerate(self.nodes)}
        # internal nodes are not created in topological order, so walk down
        # from the root and accumulate in reverse
        order: list[int] = []
        stack = [self.root]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(self.children(v))
        for v in reversed(order):
            for c in self.children(v):
                counts[v] += counts[c]
        return counts

    def to_dict(self) -> dict:
        """The node list; no output file holds it, as ``build_tree`` replays
        the tree from a ``sample`` record's draw."""
        return {
            "root_mode": self.root_mode.value,
            "nodes": [
                {"time": node.time, "parent": node.parent, "leaf_label": node.leaf_label}
                for node in self.nodes
            ],
        }


def build_tree(config: LeafConfig, zetas: ZetaVector, root_mode: RootMode) -> GenealogyTree:
    """Assemble the explicit tree for one sampled replicate."""
    n, spine = config.n, config.spine_index
    z = zetas.zetas

    # Attachment target of each non-spine leaf branch: first strictly
    # taller branch toward the spine; the spine itself always qualifies.
    attach: dict[int, int] = {}
    for k in range(1, n + 1):
        if k == spine:
            continue
        step = 1 if k < spine else -1
        m = k + step
        while m != spine and z[m] <= z[k]:
            if z[m] == z[k]:
                raise StructuralError(f"tied branch depths at ranks {k} and {m}")
            m += step
        attach[k] = m

    # Leaf of rank r is node r-1.
    nodes = [TreeNode(time=0.0, parent=None, leaf_label=label) for label in config.labels]

    # One internal node per attachment, at the branch's own depth on its
    # target lineage; it is simultaneously the bottom of branch k and a
    # branching point of the target's path.
    branch_node: dict[int, int] = {}
    events: dict[int, list[tuple[float, int]]] = {}
    for k in sorted(attach):
        branch_node[k] = len(nodes)
        nodes.append(TreeNode(time=-z[k], parent=None))
        events.setdefault(attach[k], []).append((z[k], k))

    # Chain each lineage's branching points by depth; the deepest element
    # of lineage k hangs onto k's own attachment node.
    deepest_on_spine: int | None = None
    for lineage in range(1, n + 1):
        chain = sorted(events.get(lineage, []))
        for (da, _), (db, _) in zip(chain, chain[1:]):
            if da == db:
                raise StructuralError(f"tied branching depths on lineage {lineage}")
        prev = lineage - 1  # the lineage's leaf node id
        for _, k in chain:
            nodes[prev].parent = branch_node[k]
            prev = branch_node[k]
        if lineage == spine:
            deepest_on_spine = prev
        else:
            nodes[prev].parent = branch_node[lineage]

    assert deepest_on_spine is not None
    if root_mode is RootMode.POPULATION_MRCA:
        root_depth = max(z)
        if root_depth > -nodes[deepest_on_spine].time:
            nodes[deepest_on_spine].parent = len(nodes)
            nodes.append(TreeNode(time=-root_depth, parent=None))

    tree = GenealogyTree(nodes=nodes, root_mode=root_mode)
    tree.validate()
    return tree


@dataclass(frozen=True)
class MutationOverlay:
    """Mutations as (edge child id, depth below the edge's shallow end)."""

    atoms: tuple[tuple[int, float], ...]

    def to_dict(self) -> dict:
        return {"atoms": [[edge, depth] for edge, depth in self.atoms]}


# Generator.poisson refuses a mean above about 9.22e18 (int64 range less ten
# standard deviations); past this bound no count can be drawn.
_POISSON_MEAN_MAX = 9.2e18


def poisson_counts(rng: np.random.Generator, means: np.ndarray) -> np.ndarray:
    """Poisson mutation counts with the given means, each mu * length.

    A mean too large to draw is a ValueError that names the flags setting it.
    """
    largest = np.max(means, initial=0.0)
    if not largest <= _POISSON_MEAN_MAX:
        raise ValueError(
            f"a mutation count has Poisson mean mu * length = {largest:.3g}, beyond "
            f"the {_POISSON_MEAN_MAX:.3g} that can be drawn; lower --mu, or raise --beta or --theta"
        )
    return rng.poisson(means)


def drop_mutations(
    tree: GenealogyTree, params: ModelParams, rng: np.random.Generator
) -> MutationOverlay:
    """Poisson(mu * length) mutations per edge, uniform along the edge.

    All counts are drawn first, in child-id order, then all depths, so the
    draw sequence is a pure function of (tree, seed).
    """
    edges = list(tree.edges())
    children = np.array([child for child, _, _ in edges], dtype=int)
    lengths = np.array([length for _, _, length in edges])
    counts = poisson_counts(rng, params.mu * lengths)
    depths = rng.uniform(0.0, np.repeat(lengths, counts))
    return MutationOverlay(atoms=tuple(zip(np.repeat(children, counts).tolist(), depths.tolist())))


# The mutation atoms one block of `sample` may draw, in expectation.  Written
# one record at a time, they add 0-4 bytes of peak RSS per atom of a block
# (runs of 0.4 to 4.1 million atoms at n = 50).  A pool process sends its
# block back as text, pickled into the pipe as it goes, and holds it until
# it is read: at --workers 2 the peak grew by 27-37 bytes per atom of a
# block, so about 30-40 MB at this budget.
ATOM_BUDGET = 2**20


def _sample_replicate(args, rng, count: int):
    """Yield ``count`` sampled genealogies, one row of text at a time: the
    ``(newick, labels, positions, atoms, zetas)`` of
    :func:`cbsfs.reports.sample_item`, for ``args = (params, n, z0,
    root_mode)``.  A row holds the draw from which :func:`build_tree`
    rebuilds the tree that the atoms' edge ids name, with the spine's depth
    0 put back at its rank.

    The block's gaps and depths are drawn in model units, then its leaf
    positions and labels; positions and depths take their units once.  One
    that is then not finite, or two positions that round to one float, are
    a FloatingPointError, and a block whose expected atom count exceeds
    :data:`ATOM_BUDGET` is a ValueError, all raised before the first row.
    Each row's tree comes from the block's :func:`block_parents` array; its
    mutations are those of :func:`drop_mutations` for :func:`build_tree`,
    draw for draw, and its text that of :func:`newick_export`.  An edge's
    length is its parent's depth less its own, so a leaf's is its parent's
    depth, already rendered for the zetas: every float is rendered once.
    The Newick text renders the internal nodes by increasing depth, so
    every node's two children, in id order, are rendered first.
    """
    params, n, z0, mode = args
    x0 = None if z0 is None else params.model_size(z0)
    gaps, depths = sample_block(n, rng, count, x0)
    positions, labels = leaf_positions(gaps, rng)
    del gaps
    # mu L = alpha L in model units bounds the mean of either root mode
    length = float(block_tree_length(depths).sum())
    with np.errstate(over="ignore"):  # a value beyond the float range is refused below
        positions *= params.size_unit
        depths *= params.time_unit
    if not (np.isfinite(positions).all() and np.isfinite(depths).all()):
        raise FloatingPointError("a position or branch depth leaves the float range in its unit")
    mean_atoms = params.alpha * length
    if not mean_atoms <= ATOM_BUDGET:
        raise ValueError(
            f"a block of {count} replicates would hold about {mean_atoms:.3g} mutations, beyond the "
            f"{ATOM_BUDGET} kept in memory; lower --mu, or raise --beta or --theta"
        )
    if not np.all(positions[:, 1:] > positions[:, :-1]):
        longer = "raise --z0" if z0 is not None else "lower --theta"
        raise FloatingPointError(f"two of the {n} leaf positions round to one float; {longer}")
    parents = block_parents(depths, mode is RootMode.POPULATION_MRCA)
    node_depth = np.zeros(2 * n)  # leaves, gaps, population root
    for row_parents, row_depths, row_labels, row_positions in zip(parents, depths, labels, positions):
        row_labels = row_labels.tolist()
        node_depth[n:-1] = row_depths[1:-1]
        node_depth[-1] = row_depths.max()
        up = row_parents[:-1]
        child = np.flatnonzero(up >= 0)
        edge_length = node_depth[up[child]] - node_depth[child]
        counts = poisson_counts(rng, params.mu * edge_length)
        where = rng.uniform(0.0, np.repeat(edge_length, counts))
        atoms = ",".join(map("[{},{!r}]".format, np.repeat(child, counts).tolist(), where.tolist()))
        texts = list(map(repr, row_depths.tolist()))
        spine = row_labels.index(0) + 1  # the spine's rank, counting the left end as 0
        zetas = ",".join([*texts[:spine], "0.0", *texts[spine:]])
        if n == 1:  # one leaf, under the population root or alone
            newick = f"(X{row_labels[0]}:{'0.0' if up[0] < 0 else texts[row_depths.argmax()]});"
        else:
            # nodes sorted by parent: the parentless ones, then each gap's
            # two children, then the population root's one child
            kids = np.argsort(row_parents, kind="stable").tolist()
            free = 2 * n - child.size
            # a leaf's parent is gap node n+g, whose depth is column 1+g
            text = [f"X{label}:{texts[c]}" for label, c in zip(row_labels, (row_parents[:n] - (n - 1)).tolist())]
            text += [f":{x!r}" for x in edge_length[n:].tolist()]
            if free == 2:  # the sample root is the root: it has no edge
                text.insert(kids[0], "")
            for g in np.argsort(row_depths[1:-1]).tolist():
                a, b = kids[free + 2 * g], kids[free + 2 * g + 1]
                text[n + g] = f"({text[a]},{text[b]}){text[n + g]}"
            newick = f"({text[kids[-1]]});" if free == 1 else text[kids[0]] + ";"
        yield newick, ",".join(map(str, row_labels)), ",".join(map(repr, row_positions.tolist())), atoms, zetas


def newick_export(tree: GenealogyTree) -> str:
    """Newick text with branch lengths; leaves labelled X0..X{n-1} by
    sample index.  The root carries no length, so emitted lengths sum to
    the total tree length.  A single-node tree serializes as "(X0:0.0);".
    """

    def label(node: TreeNode) -> str:
        return f"X{node.leaf_label}" if node.leaf_label is not None else ""

    nodes, root = tree.nodes, tree.root
    if not tree.children(root):
        return f"({label(nodes[root])}:0.0);"
    # every parent precedes its children in ``order``, so in reverse each
    # node's children are rendered before it
    order = [root]
    for v in order:
        order.extend(tree.children(v))
    rendered = [""] * len(nodes)
    for v in reversed(order):
        node, kids = nodes[v], tree.children(v)
        inner = "(" + ",".join([rendered[c] for c in kids]) + ")" if kids else ""
        length = "" if v == root else f":{node.time - nodes[node.parent].time!r}"
        rendered[v] = inner + label(node) + length
    return rendered[root] + ";"
