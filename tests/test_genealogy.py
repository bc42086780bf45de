"""Sampling-law and closed-form-vs-tree-oracle tests for the genealogy."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from cbsfs import genealogy
from cbsfs.genealogy import (
    LeafConfig,
    Lk_all,
    ZetaVector,
    block_Lk,
    block_parents,
    block_tree_length,
    intervals,
    leaf_positions,
    population_tree_length,
    sample_block,
    sample_population,
    sample_tree_length,
    sample_zetas,
)
from cbsfs.model import ModelParams, extinction_tail
from cbsfs.tree import RootMode, build_tree

from oracles import block_records, edge_lengths_by_count, tmrca_consecutive, tree_tmrca
from replay import leaf_config_from_dict, zeta_vector_from_dict

UNIT = ModelParams(beta=1.0, theta=1.0, mu=1.0)

KS_COEFF = 1.63  # alpha = 0.01 critical coefficient


def _draw(params, n, rng, z0=None):
    config = sample_population(params, n, rng, condition_z0=z0)
    zetas = sample_zetas(params, config, rng)
    return config, zetas


class TestSamplePopulation:
    def test_single_leaf_structure(self):
        rng = np.random.default_rng(1)
        config = sample_population(UNIT, 1, rng)
        assert config.positions == (-config.e_g, 0.0, config.e_d)
        assert config.spine_index == 1
        assert config.labels == (0,)

    def test_interval_total_law(self):
        rng = np.random.default_rng(2)
        z0s = np.array([sample_population(UNIT, 3, rng).z0 for _ in range(100_000)])
        result = stats.kstest(z0s, stats.gamma(a=2.0, scale=0.5).cdf)
        assert result.statistic < KS_COEFF / math.sqrt(len(z0s))

    def test_conditioned_interval(self):
        rng = np.random.default_rng(3)
        configs = [sample_population(UNIT, 4, rng, condition_z0=3.0) for _ in range(50_000)]
        assert all(c.e_g + c.e_d == 3.0 for c in configs)
        e_gs = np.array([c.e_g for c in configs])
        result = stats.kstest(e_gs, stats.uniform(loc=0.0, scale=3.0).cdf)
        assert result.statistic < KS_COEFF / math.sqrt(len(e_gs))

    def test_conditioned_left_arm_matches_rejection_oracle(self):
        # oracle: draw both arms unconditioned and keep pairs whose total is
        # nearly the target; the surviving left arm has the conditional law
        rng = np.random.default_rng(4)
        target, eps = 3.0, 0.02
        e_g = rng.exponential(0.5, size=2_000_000)
        e_d = rng.exponential(0.5, size=2_000_000)
        accepted = e_g[np.abs(e_g + e_d - target) < eps]
        assert len(accepted) > 2000
        direct = np.array(
            [sample_population(UNIT, 2, rng, condition_z0=target).e_g for _ in range(20_000)]
        )
        result = stats.ks_2samp(accepted, direct)
        n1, n2 = len(accepted), len(direct)
        assert result.statistic < KS_COEFF * math.sqrt((n1 + n2) / (n1 * n2))

    def test_labels_are_a_permutation(self):
        rng = np.random.default_rng(5)
        config = sample_population(UNIT, 9, rng)
        assert sorted(config.labels) == list(range(9))
        # spine leaf carries the label 0
        assert config.labels[config.spine_index - 1] == 0

    def test_determinism(self):
        a = sample_population(UNIT, 6, np.random.default_rng(99))
        b = sample_population(UNIT, 6, np.random.default_rng(99))
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_population(UNIT, 0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            sample_population(UNIT, 2, np.random.default_rng(0), condition_z0=-1.0)

    def test_tied_positions_raise(self):
        # 200 leaves on an interval a few subnormal steps long must tie: the
        # draw is not repeated, and the error names n and the size
        with pytest.raises(ValueError, match=r"n = 200 leaf positions on an interval of size z0 = 5e-321 tie"):
            sample_population(UNIT, 200, np.random.default_rng(0), condition_z0=5e-321)

    @pytest.mark.parametrize(
        "positions,labels",
        [
            ((), ()),  # no leaf
            ((-1.0, 0.0, 1.0), (0, 1)),  # two labels, one leaf position
            ((-1.0, 0.0, 0.5, 1.0), (0,)),  # one label, two leaf positions
            ((-1.0, 0.0, -0.5, 1.0), (0, 1)),  # decreasing
            ((-1.0, 0.0, 0.0, 1.0), (0, 1)),  # tied
            ((-1.0, 0.5, 1.0), (0,)),  # spine leaf not at 0
            ((0.0, 0.5, 1.0), (0,)),  # 0.0 only at an interval endpoint
        ],
        ids=["empty", "short-positions", "long-positions", "decreasing", "tied",
             "no-spine", "spine-at-endpoint"],
    )
    def test_config_invariants(self, positions, labels):
        with pytest.raises(ValueError):
            LeafConfig(positions=positions, labels=labels)

    def test_derived_fields(self):
        config = LeafConfig(positions=(-0.7, -0.2, 0.0, 1.1), labels=(1, 0))
        assert (config.n, config.e_g, config.e_d, config.spine_index) == (2, 0.7, 1.1, 2)
        assert config.z0 == 0.7 + 1.1


class TestSampleBlock:
    """The batched draw, in model units, and the leaves placed on it,
    against the per-replicate sampler and statistics and the closed-form
    laws of the spacings."""

    @pytest.mark.parametrize("x0", [None, 1.5])
    @pytest.mark.parametrize("n", [1, 2, 7, 30])
    def test_rows_match_per_replicate_statistics(self, n, x0):
        rng = np.random.default_rng(30 + n)
        gaps, depths = sample_block(n, rng, 200, x0)
        positions, labels = leaf_positions(gaps, rng)
        assert gaps.shape == depths.shape == (200, n + 1)
        assert positions.shape == (200, n + 2) and labels.shape == (200, n)
        lengths, lk = block_tree_length(depths), block_Lk(depths)
        assert lk.shape == (200, n - 1)
        for r, (config, zetas) in enumerate(block_records(positions, labels, depths)):
            # each depth belongs to the gap its rank owns toward the spine,
            # which the cumulative gaps reproduce within rounding
            owned = np.delete(intervals(config), config.spine_index)
            np.testing.assert_array_equal(owned, np.diff(positions[r]))
            _within_roundings(np.diff(positions[r]), gaps[r], 2, config.z0)
            if x0 is not None:
                _within_roundings(config.e_g + config.e_d, x0, n + 1, x0)
            assert lengths[r] == pytest.approx(population_tree_length(config, zetas), rel=1e-12)
            np.testing.assert_allclose(lk[r], Lk_all(config, zetas), rtol=1e-12, atol=0.0)

    def test_law_matches_per_replicate_sampler(self):
        # two-sample KS on Z0, the spine rank, the tree length and L_1 at
        # n = 4: the per-replicate sampler draws at (beta, theta) itself, the
        # block in model units, scaled by 1 / (2 theta) and 1 / (2 beta theta)
        reps = 20_000
        params = ModelParams(beta=0.7, theta=1.3)
        rng = np.random.default_rng(40)
        per_replicate = [_draw(params, 4, rng) for _ in range(reps)]
        rng = np.random.default_rng(41)
        gaps, depths = sample_block(4, rng, reps)
        positions, labels = leaf_positions(gaps, rng)
        size, time = params.size_unit, params.time_unit
        pairs = {
            "z0": ([c.z0 for c, _ in per_replicate], size * (positions[:, -1] - positions[:, 0])),
            "spine": ([c.spine_index for c, _ in per_replicate], np.argmax(labels == 0, axis=1) + 1),
            "length": ([population_tree_length(c, z) for c, z in per_replicate], time * block_tree_length(depths)),
            "L_1": ([Lk_all(c, z)[0] for c, z in per_replicate], time * block_Lk(depths)[:, 0]),
        }
        for name, (a, b) in pairs.items():
            assert stats.ks_2samp(a, b).statistic < KS_COEFF * math.sqrt(2.0 / reps), name

    def test_closed_form_laws(self):
        # one vectorised block each, in model units: the size (a row's sum
        # of gaps) is Gamma(2, 1); given the size 3 a row sums to 3 within
        # its roundings, a gap over the size is Beta(1, n), the spine rank
        # is uniform on 1..n and the spine's position is Uniform(-3, 0)
        # from the left end
        reps, n = 100_000, 3
        gaps = sample_block(n, np.random.default_rng(43), reps)[0]
        result = stats.kstest(gaps.sum(axis=1), stats.gamma(a=2.0).cdf)
        assert result.statistic < KS_COEFF / math.sqrt(reps)
        rng = np.random.default_rng(44)
        gaps = sample_block(n, rng, reps, x0=3.0)[0]
        _within_roundings(gaps.sum(axis=1), 3.0, n + 1, 3.0)
        result = stats.kstest(gaps[:, 1] / 3.0, stats.beta(1, n).cdf)
        assert result.statistic < KS_COEFF / math.sqrt(reps)
        positions, labels = leaf_positions(gaps, rng)
        np.testing.assert_array_equal(np.sort(labels, axis=1), np.broadcast_to(np.arange(n), (reps, n)))
        ranks = np.bincount(np.argmax(labels == 0, axis=1), minlength=n)
        assert stats.chisquare(ranks).pvalue > 0.01
        result = stats.kstest(-positions[:, 0], stats.uniform(loc=0.0, scale=3.0).cdf)
        assert result.statistic < KS_COEFF / math.sqrt(reps)

    def test_subnormal_sizes_draw_silently(self, caplog):
        # on an interval 200 subnormal steps long, gaps round to a few steps
        # or to 0: the depths log1p(gap / E) are subnormal or 0, and nothing
        # is redrawn or logged
        with caplog.at_level("DEBUG", logger="cbsfs.genealogy"):
            depths = sample_block(3, np.random.default_rng(42), 500, x0=1e-321)[1]
        assert caplog.records == []
        assert np.all(np.isfinite(depths) & (depths >= 0.0))

    def test_depths_stay_finite_at_the_largest_size(self):
        depths = sample_block(50, np.random.default_rng(45), 1000, x0=1e250)[1]
        assert np.all(np.isfinite(depths) & (depths > 0.0))

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_block(0, rng, 10)
        for x0 in (0.0, -1.0, math.nan, 2e250, math.inf):
            with pytest.raises(FloatingPointError, match="outside"):
                sample_block(2, rng, 10, x0=x0)


class TestRowChunks:
    """``block_Lk`` and ``block_parents`` run over slices of rows under
    ``genealogy._ROW_BUDGET`` entries: the same bits as one row at a time,
    in a working set of the output and a few budgets."""

    @pytest.mark.parametrize("n, count, budget", [
        (50, 1000, None),  # 321 rows a slice: three whole slices and 37 rows
        (genealogy._ROW_BUDGET + 7, 3, None),  # rows wider than the budget
        (1, 7, 5),  # two rows a slice
        (2, 7, 5),  # one row a slice
    ])
    def test_slices_give_the_row_by_row_bits(self, n, count, budget, monkeypatch):
        if budget is not None:
            monkeypatch.setattr(genealogy, "_ROW_BUDGET", budget)
        rows = max(1, genealogy._ROW_BUDGET // (n + 1))
        assert count > 2 * rows and (count % rows or rows == 1)
        depths = sample_block(n, np.random.default_rng(n), count)[1]
        for block, args in [(block_Lk, ()), (block_parents, (True,)), (block_parents, (False,))]:
            alone = np.concatenate([block(depths[r : r + 1], *args) for r in range(count)])
            assert np.array_equal(block(depths, *args), alone)

    def test_a_tie_in_the_last_slice_raises(self):
        depths = sample_block(50, np.random.default_rng(3), 1000)[1]
        depths[-1, 21] = depths[-1, 20]  # two adjacent gaps tie: an edge of length 0
        assert (len(depths) - 1) // (genealogy._ROW_BUDGET // 51) == 3  # the fourth and last slice
        block_parents(depths[:-1], True)
        with pytest.raises(FloatingPointError, match="tied branch depths"):
            block_parents(depths, True)

    @pytest.mark.parametrize("block, args", [(block_Lk, ()), (block_parents, (True,))],
                             ids=["block_Lk", "block_parents"])
    def test_working_set_is_the_output_and_a_few_budgets(self, block, args):
        # the bound is the output plus 32 budgets of float64: 12.4 MB at
        # n = 1000, where a block of 1024 rows is 64 budgets; one pass over
        # the whole block peaked at 9.1 (block_Lk) and 7.5 (block_parents)
        # arrays of the block's shape, 75 and 61 MB
        depths = sample_block(1000, np.random.default_rng(8), 1024)[1]
        block(depths[:1], *args)
        tracemalloc.start()
        try:
            out = block(depths, *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 32 * 8 * genealogy._ROW_BUDGET


def _within_roundings(value, exact, count, scale):
    """Assert that ``value`` is within ``count`` roundings of ``exact``,
    elementwise: a rounding is one unit in the last place of ``scale``, the
    size of the operands, at most."""
    np.testing.assert_allclose(value, exact, rtol=0.0, atol=count * 2.0**-52 * scale)


class TestIntervals:
    def test_sum_is_total_size(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            config = sample_population(UNIT, int(rng.integers(1, 12)), rng)
            assert intervals(config).sum() == pytest.approx(config.z0, abs=1e-12)

    def test_single_leaf(self):
        rng = np.random.default_rng(7)
        config = sample_population(UNIT, 1, rng)
        np.testing.assert_allclose(intervals(config), [config.e_g, 0.0, config.e_d])

    def test_tiling_oracle(self):
        # each inter-position gap must be owned by exactly one rank
        rng = np.random.default_rng(8)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            config = sample_population(UNIT, n, rng)
            pos = config.positions
            owned = []
            for k in range(n + 2):
                if pos[k] < 0:
                    owned.append((pos[k], pos[k + 1]))
                elif pos[k] > 0:
                    owned.append((pos[k - 1], pos[k]))
            gaps = list(zip(pos, pos[1:]))
            assert sorted(owned) == sorted(gaps)


def _single_leaf_config(e_g, e_d):
    """Hand-set n = 1 interval: rank 0 governs e_g and rank 2 governs e_d."""
    return LeafConfig(positions=(-e_g, 0.0, e_d), labels=(0,))


class TestZetaStar:
    """The per-rank depth drawn by sample_zetas: the tallest excursion over
    the interval the rank governs."""

    def test_law_against_closed_cdf(self):
        rng = np.random.default_rng(10)
        delta = 1.7
        config = _single_leaf_config(delta, 0.5)
        draws = np.array([sample_zetas(UNIT, config, rng).zetas[0] for _ in range(100_000)])
        cdf = lambda t: np.exp(-delta * extinction_tail(UNIT, np.maximum(t, 1e-300)))
        result = stats.kstest(draws, lambda t: np.array([cdf(v) for v in np.atleast_1d(t)]))
        assert result.statistic < KS_COEFF / math.sqrt(len(draws))

    def test_max_stability(self):
        rng = np.random.default_rng(11)
        d1, d2 = 0.8, 1.9
        n = 100_000
        split = _single_leaf_config(d1, d2)
        whole = _single_leaf_config(d1 + d2, 0.5)
        pairs_max = np.array(
            [max(sample_zetas(UNIT, split, rng).zetas) for _ in range(n)]
        )
        single = np.array([sample_zetas(UNIT, whole, rng).zetas[0] for _ in range(n)])
        result = stats.ks_2samp(pairs_max, single)
        assert result.statistic < KS_COEFF * math.sqrt(2.0 / n)


class TestSampleZetas:
    def test_spine_depth_zero(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            config, zetas = _draw(UNIT, int(rng.integers(1, 10)), rng)
            assert zetas.zetas[config.spine_index] == 0.0

    def test_max_law_given_size(self):
        rng = np.random.default_rng(13)
        z0 = 1.5
        n_reps = 20_000
        maxima = np.empty(n_reps)
        for i in range(n_reps):
            config, zetas = _draw(UNIT, 4, rng, z0=z0)
            maxima[i] = max(zetas.zetas)
        cdf = lambda t: np.exp(-extinction_tail(UNIT, max(float(t), 1e-300)) * z0)
        result = stats.kstest(maxima, lambda t: np.array([cdf(v) for v in np.atleast_1d(t)]))
        assert result.statistic < KS_COEFF / math.sqrt(n_reps)

    def test_serialization_roundtrip(self):
        rng = np.random.default_rng(15)
        config, zetas = _draw(UNIT, 5, rng)
        assert leaf_config_from_dict(config.to_dict()) == config
        assert zeta_vector_from_dict(zetas.to_dict()) == zetas


def _fig_config():
    """Hand-set five-leaf instance mirroring the worked attachment diagram."""
    config = LeafConfig(
        positions=(-2.0, -1.4, -0.6, 0.0, 0.4, 1.2, 1.8),
        labels=(1, 2, 0, 3, 4),
    )
    zetas = ZetaVector(zetas=(0.3, 1.0, 2.5, 0.0, 1.3, 3.5, 0.2))
    return config, zetas


def _leaf_edges(tree):
    """Length of each leaf's own edge, by position rank (leaf ids are ranks - 1)."""
    return [-tree.nodes[tree.nodes[i].parent].time for i in range(tree.n_leaves)]


def _spine_at_end_config(params, n, rng, at_left):
    """Hand-set interval whose spine leaf sits at rank 1 (at_left) or rank n."""
    e_g, e_d = (float(e) for e in rng.exponential(1.0 / (2.0 * params.theta), size=2))
    others = sorted(float(u) for u in rng.uniform(size=n - 1))
    if at_left:
        inner = (0.0, *(e_d * u for u in others))
        labels = tuple(range(n))
    else:
        inner = (*(-e_g * u for u in reversed(others)), 0.0)
        labels = (*range(1, n), 0)
    return LeafConfig(positions=(-e_g, *inner, e_d), labels=labels)


class TestBuildTree:
    def test_single_leaf_degenerate(self):
        rng = np.random.default_rng(16)
        config, zetas = _draw(UNIT, 1, rng)
        sample_tree = build_tree(config, zetas, RootMode.SAMPLE_MRCA)
        assert len(sample_tree.nodes) == 1
        assert sample_tree.total_length() == 0.0
        pop_tree = build_tree(config, zetas, RootMode.POPULATION_MRCA)
        assert pop_tree.total_length() == pytest.approx(
            max(zetas.zetas), abs=1e-15
        )

    def test_worked_attachment_pattern(self):
        config, zetas = _fig_config()
        tree = build_tree(config, zetas, RootMode.SAMPLE_MRCA)
        leaf = {rank: rank - 1 for rank in range(1, 6)}  # leaf ids are ranks - 1
        # rank 1 (depth 1.0) merges into rank 2's branch: the two leaves
        # share the node at depth 1.0, and rank 2's branch carries on to the
        # spine at 2.5; ranks 4 and 5 merge straight into the spine
        p1 = tree.nodes[leaf[1]].parent
        assert tree.depth(p1) == pytest.approx(1.0)
        assert tree.nodes[leaf[2]].parent == p1
        assert tree.depth(tree.nodes[p1].parent) == pytest.approx(2.5)
        assert tree.depth(tree.nodes[leaf[4]].parent) == pytest.approx(1.3)
        assert tree.depth(tree.nodes[leaf[5]].parent) == pytest.approx(3.5)
        # spine leaf walks the spine: 1.3, 2.5, 3.5
        spine_path = []
        v = tree.nodes[leaf[3]].parent
        while v is not None:
            spine_path.append(tree.depth(v))
            v = tree.nodes[v].parent
        assert spine_path == pytest.approx([1.3, 2.5, 3.5])
        assert tree.depth(tree.root) == pytest.approx(3.5)
        # consecutive TMRCAs seen by the tree
        assert tree_tmrca(tree, [leaf[1], leaf[2]]) == pytest.approx(1.0)
        assert tree_tmrca(tree, [leaf[3], leaf[4]]) == pytest.approx(1.3)
        assert tree_tmrca(tree, list(leaf.values())) == pytest.approx(3.5)

    def test_population_mode_extends_root(self):
        config, zetas = _fig_config()
        deep = ZetaVector(zetas=(0.3, 1.0, 2.5, 0.0, 1.3, 3.5, 4.0))
        tree = build_tree(config, deep, RootMode.POPULATION_MRCA)
        assert tree.depth(tree.root) == pytest.approx(4.0)
        kids = tree.children(tree.root)
        assert len(kids) == 1 and tree.depth(kids[0]) == pytest.approx(3.5)

    @pytest.mark.parametrize("mode,length_fn", [
        (RootMode.SAMPLE_MRCA, sample_tree_length),
        (RootMode.POPULATION_MRCA, population_tree_length),
    ])
    def test_total_length_identity(self, mode, length_fn):
        rng = np.random.default_rng(17)
        for _ in range(300):
            config, zetas = _draw(UNIT, int(rng.integers(1, 10)), rng)
            tree = build_tree(config, zetas, mode)
            assert tree.total_length() == pytest.approx(
                length_fn(config, zetas), abs=1e-12
            )

    def test_sample_tree_is_truncated_population_tree(self):
        rng = np.random.default_rng(18)
        for _ in range(100):
            config, zetas = _draw(UNIT, int(rng.integers(2, 9)), rng)
            t_sample = build_tree(config, zetas, RootMode.SAMPLE_MRCA)
            t_pop = build_tree(config, zetas, RootMode.POPULATION_MRCA)
            n = config.n
            for j in range(1, n):
                pair = [j - 1, j]  # the leaves at ranks j and j+1
                assert tree_tmrca(t_sample, pair) == pytest.approx(
                    tree_tmrca(t_pop, pair), abs=1e-15
                )
            extra = t_pop.total_length() - t_sample.total_length()
            interior = zetas.zetas[1 : n + 1]
            assert extra == pytest.approx(max(zetas.zetas) - max(interior), abs=1e-12)


class TestClosedFormsAgainstTreeOracle:
    def test_tmrca_consecutive(self):
        rng = np.random.default_rng(19)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            config, zetas = _draw(UNIT, n, rng)
            tree = build_tree(config, zetas, RootMode.SAMPLE_MRCA)
            for j in range(1, n + 1):
                assert tmrca_consecutive(config, zetas, j, j) == 0.0
                for l in range(j + 1, n + 1):
                    leaf_ids = list(range(j - 1, l))  # ranks j..l
                    assert tmrca_consecutive(config, zetas, j, l) == pytest.approx(
                        tree_tmrca(tree, leaf_ids), abs=1e-12
                    )

    def test_admissible_lengths_match_edge_decomposition(self):
        rng = np.random.default_rng(20)
        for i in range(1000):
            n = int(rng.integers(1, 13))
            beta, theta = np.exp(rng.uniform(-3.0, 3.0, size=2))
            params = ModelParams(beta=float(beta), theta=float(theta), mu=1.0)
            if i % 3 == 0:
                config = sample_population(params, n, rng)
            else:
                config = _spine_at_end_config(params, n, rng, at_left=i % 3 == 1)
            zetas = sample_zetas(params, config, rng)
            tree = build_tree(config, zetas, RootMode.SAMPLE_MRCA)
            by_count = edge_lengths_by_count(tree)
            lengths = Lk_all(config, zetas)
            assert len(lengths) == n - 1
            for k in range(1, n):
                assert lengths[k - 1] == pytest.approx(by_count.get(k, 0.0), abs=1e-10)

    def test_partition_of_total_length(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            config, zetas = _draw(UNIT, n, rng)
            assert Lk_all(config, zetas).sum() == pytest.approx(
                sample_tree_length(config, zetas), abs=1e-10
            )

    def test_worked_lengths_by_hand(self):
        # gap depths 1.0, 2.5, 1.3, 3.5: leaf edges 1.0+1.0+1.3+1.3+3.5;
        # clade {1,2} from 1.0 to 2.5, clade {3,4} from 1.3 to 2.5, clade
        # {1..4} from 2.5 to the root at 3.5, and no clade of three leaves
        config, zetas = _fig_config()
        assert Lk_all(config, zetas) == pytest.approx([8.1, 2.7, 0.0, 1.0], abs=1e-12)

    def test_one_sided_window_positive_case(self):
        # leaves 4 and 5 lie right of the spine: the pair meets only at the
        # root (3.5), so it is no clade and adds nothing to L_2, while leaf 4
        # alone hangs an edge of 1.3 into L_1
        config, zetas = _fig_config()
        lengths = Lk_all(config, zetas)
        edges = _leaf_edges(build_tree(config, zetas, RootMode.SAMPLE_MRCA))
        assert tmrca_consecutive(config, zetas, 4, 5) == pytest.approx(max(zetas.zetas))
        assert lengths[0] - (sum(edges) - edges[3]) == pytest.approx(1.3, abs=1e-12)
        assert lengths[1] == pytest.approx((2.5 - 1.0) + (2.5 - 1.3), abs=1e-12)

    def test_spine_window_size_one(self):
        # the spine leaf's edge is the shallower of its two neighbours
        config, zetas = _fig_config()
        j = config.spine_index
        expected = min(zetas.zetas[j - 1], zetas.zetas[j + 1])
        edges = _leaf_edges(build_tree(config, zetas, RootMode.SAMPLE_MRCA))
        assert edges[j - 1] == pytest.approx(expected)
        others = sum(edges) - edges[j - 1]
        assert Lk_all(config, zetas)[0] - others == pytest.approx(expected, abs=1e-12)

    def test_index_errors(self):
        config, zetas = _fig_config()
        with pytest.raises(IndexError):
            tmrca_consecutive(config, zetas, 0, 2)
        with pytest.raises(IndexError):
            tmrca_consecutive(config, zetas, 3, 6)


class TestReplicateDeterminism:
    def test_same_seed_same_everything(self):
        from cbsfs.tree import drop_mutations

        def run(seed):
            rng = np.random.default_rng(seed)
            config, zetas = _draw(UNIT, 6, rng)
            tree = build_tree(config, zetas, RootMode.POPULATION_MRCA)
            overlay = drop_mutations(tree, UNIT, rng)
            return config, zetas, tree.to_dict(), overlay

        a = run(12345)
        b = run(12345)
        assert a[0] == b[0] and a[1] == b[1] and a[2] == b[2] and a[3] == b[3]
