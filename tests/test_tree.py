"""Mutation overlay, Newick serialization and tree bookkeeping tests."""

import math

import numpy as np
import pytest
from scipy import stats

from cbsfs.genealogy import Lk_all, sample_population, sample_zetas
from cbsfs.model import ModelParams
from cbsfs.tree import (
    GenealogyTree,
    RootMode,
    StructuralError,
    TreeNode,
    build_tree,
    drop_mutations,
    newick_export,
)

from oracles import edge_lengths_by_count
from replay import parse_newick, tree_from_dict

UNIT = ModelParams(beta=1.0, theta=1.0, mu=1.0)
HOT = ModelParams(beta=1.0, theta=1.0, mu=1.5)


def leafset_counts(tree, overlay):
    """Number of sample leaves carrying each mutation of the overlay."""
    counts = tree.leaf_counts()
    return [counts[edge] for edge, _ in overlay.atoms]


def _tree(rng, n, mode=RootMode.SAMPLE_MRCA, params=UNIT):
    config = sample_population(params, n, rng)
    zetas = sample_zetas(params, config, rng)
    return config, zetas, build_tree(config, zetas, mode)


class TestDropMutations:
    def test_zero_rate_empty(self):
        rng = np.random.default_rng(30)
        _, _, tree = _tree(rng, 5)
        overlay = drop_mutations(tree, ModelParams(1.0, 1.0, 0.0), rng)
        assert overlay.atoms == ()

    def test_depths_within_edges(self):
        rng = np.random.default_rng(31)
        _, _, tree = _tree(rng, 8, params=HOT)
        lengths = {child: length for child, _, length in tree.edges()}
        overlay = drop_mutations(tree, HOT, rng)
        for edge, depth in overlay.atoms:
            assert 0.0 <= depth < lengths[edge]

    def test_paired_mean_matches_rate_times_length(self):
        # count - mu * length has mean zero replicate by replicate
        rng = np.random.default_rng(32)
        diffs = np.empty(10_000)
        for i in range(len(diffs)):
            _, _, tree = _tree(rng, 5, RootMode.POPULATION_MRCA, params=HOT)
            overlay = drop_mutations(tree, HOT, rng)
            diffs[i] = len(overlay.atoms) - HOT.mu * tree.total_length()
        se = diffs.std(ddof=1) / math.sqrt(len(diffs))
        assert abs(diffs.mean()) < 3.0 * se

    def test_carrier_histogram_matches_poisson_route(self):
        # two ways to generate the per-class mutation counts must agree in
        # distribution: explicit sprinkling vs Poisson draws with the
        # admissible-length means
        n = 4
        reps = 4000
        rng_a = np.random.default_rng(33)
        hist_a = np.zeros(n - 1)
        for _ in range(reps):
            _, _, tree = _tree(rng_a, n, params=HOT)
            for count in leafset_counts(tree, drop_mutations(tree, HOT, rng_a)):
                hist_a[count - 1] += 1
        rng_b = np.random.default_rng(34)
        hist_b = np.zeros(n - 1)
        for _ in range(reps):
            config = sample_population(HOT, n, rng_b)
            zetas = sample_zetas(HOT, config, rng_b)
            hist_b += rng_b.poisson(HOT.mu * Lk_all(config, zetas))
        table = np.vstack([hist_a, hist_b])
        _, p_value, _, _ = stats.chi2_contingency(table)
        assert p_value > 0.01

    def test_carrier_counts_bounded_by_mode(self):
        rng = np.random.default_rng(35)
        _, _, t_sample = _tree(rng, 6, RootMode.SAMPLE_MRCA, params=HOT)
        counts = leafset_counts(t_sample, drop_mutations(t_sample, HOT, rng))
        assert all(1 <= c <= 5 for c in counts)
        _, _, t_pop = _tree(rng, 6, RootMode.POPULATION_MRCA, params=HOT)
        counts = leafset_counts(t_pop, drop_mutations(t_pop, HOT, rng))
        assert all(1 <= c <= 6 for c in counts)


class TestEdgeDecomposition:
    def test_counts_partition_total_length(self):
        rng = np.random.default_rng(36)
        for _ in range(100):
            _, _, tree = _tree(rng, int(rng.integers(2, 9)))
            by_count = edge_lengths_by_count(tree)
            assert sum(by_count.values()) == pytest.approx(tree.total_length(), abs=1e-10)
            assert all(1 <= c <= tree.n_leaves for c in by_count)


def _canonical(parsed):
    name, length, children = parsed
    key = tuple(sorted(_canonical(c) for c in children))
    return (name, None if length is None else round(length, 12), key)


class TestNewick:
    def test_degenerate_single_leaf(self):
        rng = np.random.default_rng(37)
        _, _, tree = _tree(rng, 1)
        assert newick_export(tree) == "(X0:0.0);"

    def test_roundtrip_isomorphic(self):
        rng = np.random.default_rng(38)
        for _ in range(100):
            n = int(rng.integers(1, 10))
            mode = RootMode.SAMPLE_MRCA if rng.uniform() < 0.5 else RootMode.POPULATION_MRCA
            _, _, tree = _tree(rng, n, mode)
            text = newick_export(tree)
            reparsed = parse_newick(text)
            assert _canonical(reparsed) == _canonical(parse_newick(newick_export(tree)))
            # leaf labels survive the round trip
            labels = set()
            stack = [reparsed]
            while stack:
                name, _, children = stack.pop()
                if not children:
                    labels.add(name)
                stack.extend(children)
            assert labels == {f"X{i}" for i in range(n)} or (n == 1 and labels == {"X0"})

    def test_lengths_sum_to_total(self):
        rng = np.random.default_rng(39)
        for _ in range(50):
            _, _, tree = _tree(rng, int(rng.integers(2, 10)), RootMode.POPULATION_MRCA)
            parsed = parse_newick(newick_export(tree))
            total = 0.0
            stack = [parsed]
            while stack:
                _, length, children = stack.pop()
                total += length or 0.0
                stack.extend(children)
            assert total == pytest.approx(tree.total_length(), abs=1e-9)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_newick("(A:1,B:2)")  # no terminator
        with pytest.raises(ValueError):
            parse_newick("(A:1,B:2));")


class TestTreeSerialization:
    def test_dict_roundtrip(self):
        rng = np.random.default_rng(40)
        _, _, tree = _tree(rng, 7, RootMode.POPULATION_MRCA)
        clone = tree_from_dict(tree.to_dict())
        assert clone.to_dict() == tree.to_dict()
        assert clone.total_length() == pytest.approx(tree.total_length(), abs=1e-15)


class TestTreeInvariants:
    """The root and the leaf ids are read off the node list, which is all
    the serialized tree holds; these are the checks that remain."""

    @pytest.mark.parametrize(
        "nodes",
        [
            [],
            [TreeNode(0.0, None, 0), TreeNode(0.0, None, 1)],  # two roots
            [TreeNode(0.0, 1, 0), TreeNode(-1.0, 0)],  # a cycle, no root
        ],
        ids=["empty", "two-roots", "no-root"],
    )
    def test_exactly_one_root(self, nodes):
        with pytest.raises(StructuralError):
            GenealogyTree(nodes=nodes, root_mode=RootMode.SAMPLE_MRCA)

    @pytest.mark.parametrize(
        "nodes",
        [
            # a leaf after an internal node
            [TreeNode(-1.0, None), TreeNode(0.0, 0, 0), TreeNode(0.0, 0, 1)],
            # an unlabelled node among the first n
            [TreeNode(0.0, 2, 0), TreeNode(-0.5, 2), TreeNode(-1.0, None), TreeNode(0.0, 1, 1)],
        ],
        ids=["leaf-after-internal", "unlabelled-among-leaves"],
    )
    def test_leaves_are_the_first_nodes(self, nodes):
        tree = GenealogyTree(nodes=nodes, root_mode=RootMode.SAMPLE_MRCA)
        with pytest.raises(StructuralError):
            tree.validate()

    def test_derived_keys(self):
        cherry = [TreeNode(0.0, 2, 1), TreeNode(0.0, 2, 0), TreeNode(-1.0, None)]
        tree = GenealogyTree(nodes=cherry, root_mode=RootMode.SAMPLE_MRCA)
        tree.validate()
        assert (tree.root, tree.n_leaves, tree.children(2)) == (2, 2, [0, 1])
        assert tree.to_dict() == {
            "root_mode": "sample",
            "nodes": [
                {"time": 0.0, "parent": 2, "leaf_label": 1},
                {"time": 0.0, "parent": 2, "leaf_label": 0},
                {"time": -1.0, "parent": None, "leaf_label": None},
            ],
        }
