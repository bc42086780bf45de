"""Property tests of the gap-depth statistics against the explicit tree,
and of the block statistics and block trees against the per-replicate ones.

Configurations are built by hand from the two fields a ``LeafConfig``
keeps, with the spine at every rank and arm lengths and branch depths
spread over e^-3..e^3, so the attach walk in ``build_tree`` is checked on
shapes the sampler reaches only rarely.  Blocks of depths are built on a
coarse grid, or spread over e^-3..e^3 with a few grid values put in, so
tied gaps are common.  The examples are derandomized so the suite stays
seeded.
"""

import math
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cbsfs.genealogy import (
    LeafConfig,
    Lk_all,
    ZetaVector,
    block_Lk,
    block_parents,
    block_tree_length,
    intervals,
    population_tree_length,
    sample_tree_length,
)
from cbsfs.tree import RootMode, StructuralError, build_tree
from oracles import edge_lengths_by_count, tmrca_consecutive, tree_tmrca

SEEDED = settings(derandomize=True, deadline=None, max_examples=300)


def _arm(draw, count: int, length: float) -> list[float]:
    """``count`` distinct leaf offsets strictly inside (0, length), sorted."""
    grid = draw(st.lists(st.integers(1, 999), min_size=count, max_size=count, unique=True))
    return sorted(length * g / 1000 for g in grid)


@st.composite
def replicates(draw, min_n: int = 1):
    """A hand-built (config, zetas) pair with distinct nonzero depths."""
    n = draw(st.integers(min_n, 12))
    spine = draw(st.integers(1, n))
    e_g, e_d = (math.exp(draw(st.floats(-3.0, 3.0))) for _ in range(2))
    left = [-x for x in reversed(_arm(draw, spine - 1, e_g))]
    right = _arm(draw, n - spine, e_d)
    labels = draw(st.permutations(range(n)))
    config = LeafConfig(positions=(-e_g, *left, 0.0, *right, e_d), labels=tuple(labels))
    # one depth per rank on a log scale, in disjoint slots so none tie
    slots = draw(st.permutations(range(n + 2)))
    jitter = draw(st.lists(st.floats(0.1, 0.9), min_size=n + 2, max_size=n + 2))
    depths = [math.exp(-3.0 + 6.0 * (slot + u) / (n + 2)) for slot, u in zip(slots, jitter)]
    depths[spine] = 0.0
    return config, ZetaVector(zetas=tuple(depths)), spine


@SEEDED
@given(replicates())
def test_config_reads_its_fields(case):
    config, _, spine = case
    assert config.spine_index == spine
    assert intervals(config).sum() == pytest.approx(config.z0, rel=1e-12)


@SEEDED
@given(replicates())
def test_gap_statistics_match_the_tree(case):
    config, zetas, _ = case
    n = config.n
    tree = build_tree(config, zetas, RootMode.SAMPLE_MRCA)
    by_count = edge_lengths_by_count(tree)
    assert set(by_count) <= set(range(1, n))
    assert Lk_all(config, zetas) == pytest.approx(
        [by_count.get(k, 0.0) for k in range(1, n)], rel=1e-12, abs=1e-12
    )
    for j in range(1, n + 1):
        for l in range(j, n + 1):
            leaf_ids = list(range(j - 1, l))  # ranks j..l
            assert tmrca_consecutive(config, zetas, j, l) == tree_tmrca(tree, leaf_ids)


@SEEDED
@given(replicates())
def test_tree_lengths_match_the_tree(case):
    config, zetas, _ = case
    sample = build_tree(config, zetas, RootMode.SAMPLE_MRCA)
    population = build_tree(config, zetas, RootMode.POPULATION_MRCA)
    assert sample_tree_length(config, zetas) == pytest.approx(sample.total_length(), rel=1e-12)
    assert population_tree_length(config, zetas) == pytest.approx(
        population.total_length(), rel=1e-12
    )


@SEEDED
@given(replicates(min_n=3), st.data(), st.sampled_from(RootMode))
def test_tied_depths_met_by_the_walk_raise(case, data, mode):
    # two sample branches of equal depth with only shallower branches
    # between them meet on the walk toward the spine: either one reaches
    # the other, or both land on the spine at the same depth
    config, zetas, spine = case
    others = [k for k in range(1, config.n + 1) if k != spine]
    a, b = sorted(data.draw(st.lists(st.sampled_from(others), min_size=2, max_size=2, unique=True)))
    z = list(zetas.zetas)
    z[a] = z[b] = 2.0 * max(z[a : b + 1])
    with pytest.raises(StructuralError):
        build_tree(config, ZetaVector(zetas=tuple(z)), mode)


@st.composite
def depth_blocks(draw):
    """A block of depths in ``sample_block``'s layout (flank, n-1 gap depths,
    flank per row) and a spine rank per row.  About half the depths come from a
    grid of four values, so exact ties between gaps are common."""
    n = draw(st.integers(2, 10))
    count = draw(st.integers(1, 4))
    depth = st.one_of(st.sampled_from([0.5, 1.0, 1.5, 2.0]), st.floats(0.01, 100.0))
    rows = draw(st.lists(st.lists(depth, min_size=n + 1, max_size=n + 1), min_size=count, max_size=count))
    spines = draw(st.lists(st.integers(1, n), min_size=count, max_size=count))
    return np.array(rows), spines


def _record(depths: list[float], spine: int) -> tuple[LeafConfig, ZetaVector]:
    """The per-replicate objects of one row: leaves one apart, the spine at 0."""
    n = len(depths) - 1
    positions = tuple(float(rank - spine) for rank in range(n + 2))
    config = LeafConfig(positions=positions, labels=tuple(range(n)))
    return config, ZetaVector(zetas=(*depths[:spine], 0.0, *depths[spine:]))


@SEEDED
@given(depth_blocks())
@example((np.array([[0.7, 2.0, 0.3]]), [1]))  # n = 2: one gap, the root
@example((np.array([[1.0, 2.0, 2.0, 2.0, 1.0], [9.0, 1.5, 1.5, 0.5, 9.0]]), [2, 4]))  # ties
def test_block_statistics_match_the_per_replicate_ones(case):
    depths, spines = case
    lk, lengths = block_Lk(depths), block_tree_length(depths)
    for row, spine in enumerate(spines):
        config, zetas = _record(depths[row].tolist(), spine)
        np.testing.assert_allclose(lk[row], Lk_all(config, zetas), rtol=1e-12, atol=0.0)
        assert lengths[row] == pytest.approx(population_tree_length(config, zetas), rel=1e-12)


@st.composite
def tree_blocks(draw):
    """A block of depths in ``sample_block``'s layout and a spine rank per
    row: each row's depths spread over e^-3..e^3 in disjoint slots, with up
    to three of them replaced by grid values (0 among them), so some rows
    hold tied or zero gaps."""
    n = draw(st.integers(1, 40))
    rows, spines = [], []
    for _ in range(draw(st.integers(1, 3))):
        slots = draw(st.permutations(range(n + 1)))
        jitter = draw(st.lists(st.floats(0.1, 0.9), min_size=n + 1, max_size=n + 1))
        row = [math.exp(-3.0 + 6.0 * (slot + u) / (n + 1)) for slot, u in zip(slots, jitter)]
        grid = st.tuples(st.integers(0, n), st.sampled_from([0.0, 0.5, 1.0, 2.0]))
        for rank, depth in draw(st.lists(grid, max_size=3)):
            row[rank] = depth
        rows.append(row)
        spines.append(draw(st.integers(1, n)))
    return np.array(rows), spines


@SEEDED
@given(tree_blocks(), st.sampled_from(RootMode))
@example((np.array([[0.7, 0.3]]), [1]), RootMode.POPULATION_MRCA)  # n = 1: leaf and root
@example((np.array([[0.0, 0.0]]), [1]), RootMode.POPULATION_MRCA)  # n = 1, no root
@example((np.array([[1.0, 2.0, 2.0], [2.0, 1.0, 2.0]]), [1, 2]), RootMode.POPULATION_MRCA)  # flank ties
@example((np.array([[3.0, 1.0, 0.5, 1.0, 3.0]]), [2]), RootMode.SAMPLE_MRCA)  # a tie met at the spine
@example((np.array([[3.0, 1.0, 0.0, 2.0, 3.0]]), [4]), RootMode.SAMPLE_MRCA)  # a gap of depth 0
def test_block_parents_match_the_attach_walk(case, mode):
    # the Cartesian tree of each row's gap depths is the tree build_tree's
    # walk toward the spine builds, whatever the spine rank; where the walk
    # meets a tie (an edge of length 0), the block build raises too
    depths, spines = case
    n = depths.shape[1] - 1
    population = mode is RootMode.POPULATION_MRCA
    trees = []
    for row, spine in zip(depths, spines):
        try:
            trees.append(build_tree(*_record(row.tolist(), spine), mode))
        except StructuralError:
            trees.append(None)
        with pytest.raises(FloatingPointError) if trees[-1] is None else nullcontext():
            block_parents(row[None], population)
    if None in trees:
        with pytest.raises(FloatingPointError):
            block_parents(depths, population)
        return
    parents = block_parents(depths, population)
    assert parents.shape == (len(trees), 2 * n) and parents.dtype == np.int32
    for row, tree, row_parents in zip(depths, trees, parents.tolist()):
        walked = [-1 if node.parent is None else node.parent for node in tree.nodes]
        assert row_parents == walked + [-1] * (2 * n - len(walked))
        node_depths = [0.0] * n + row[1:-1].tolist() + [row.max()]
        assert [-node.time for node in tree.nodes] == node_depths[: len(tree.nodes)]
