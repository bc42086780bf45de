"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single [PASS]/[FAIL] line (visible with -s or on
failure) before asserting, so a run of this module reads as a checklist.

Criterion 3 is split into its two clauses.  The limit-convergence clause
passes.  The residual-boundedness clause is asserted as stated and fails
for a real mathematical reason, not an implementation defect: the k = 1
residual grows roughly linearly in n because the closed expansion replaces
exact digamma factors by their logarithmic asymptotics, leaving terms of
order 1/(n k) that the n^2/sqrt(k) scaling amplifies at bounded k.  Both
ingredients of the residual are verified independently (the expected
lengths against Monte Carlo in criterion 2, the distortion function by the
convergence clause), so the growth is inherent to the formulas.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import integrate, stats

from cbsfs._mc import map_replicates
from cbsfs.cli import main as cli_main
from cbsfs.clonal import (
    e_zcl_pow,
    e_zcl_pow_r,
    mc_clonal,
    v_representation_check,
    zcl_moment_ratio_scaled,
)
from cbsfs.genealogy import (
    Lk_all,
    sample_population,
    sample_zetas,
    tmrca_consecutive,
)
from cbsfs.model import ModelParams, extinction_tail
from cbsfs.sfs import (
    density_branch_check,
    density_spine_check,
    expected_sfs,
    g1,
    g2_residual,
    mean_density,
    simulate_sfs,
)
from cbsfs.specfun import (
    beta_fn,
    digamma,
    gamma_upper_zero,
    h1,
    h1_deriv,
)
from cbsfs.tree import RootMode, build_tree, edge_lengths_by_count, tree_tmrca
from cbsfs.verify import _tmrca_replicate

UNIT = ModelParams(beta=1.0, theta=1.0, mu=1.0)
ALPHA_ONE = ModelParams(beta=1.0, theta=1.0, mu=2.0)


def report(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name} — {detail}")
    return ok


def test_criterion_1_tree_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst_tmrca = worst_lk = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        config = sample_population(UNIT, n, rng)
        zetas = sample_zetas(UNIT, config, rng)
        tree = build_tree(config, zetas, RootMode.SAMPLE_MRCA)
        for j in range(1, n + 1):
            for l in range(j + 1, n + 1):
                leaf_ids = list(range(j - 1, l))  # ranks j..l
                dev = abs(
                    tmrca_consecutive(config, zetas, j, l) - tree_tmrca(tree, leaf_ids)
                )
                worst_tmrca = max(worst_tmrca, dev)
        by_count = edge_lengths_by_count(tree)
        lengths = Lk_all(config, zetas)
        for k in range(1, n):
            dev = abs(lengths[k - 1] - by_count.get(k, 0.0))
            worst_lk = max(worst_lk, dev)
    elapsed = time.perf_counter() - start
    ok = worst_tmrca <= 1e-10 and worst_lk <= 1e-10 and elapsed < 30.0
    assert report(
        1,
        "closed forms vs explicit-tree oracle",
        ok,
        f"max dev tmrca {worst_tmrca:.2e}, lengths {worst_lk:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_sfs_mean_vs_monte_carlo():
    start = time.perf_counter()
    n, reps = 10, 20_000
    worst = 0.0
    for z_index, z0 in enumerate((1.0 / UNIT.theta, 2.0 / UNIT.theta)):
        mean, se = simulate_sfs(UNIT, n, reps, 2000 + z_index, z0=z0)
        xi = UNIT.mu * expected_sfs(UNIT, n, z0)
        worst = max(worst, float(np.max(np.abs(mean - xi) / se)))
    elapsed = time.perf_counter() - start
    ok = worst < 3.0 and elapsed < 120.0
    assert report(
        2,
        "expected spectrum vs 2e4-replicate MC (3 SE, all k)",
        ok,
        f"max |z| = {worst:.2f}, {elapsed:.1f}s",
    )


def test_criterion_3_residual_bounded():
    # asserted exactly as stated; the residual at k = 1 grows with n, so
    # this clause is expected to fail — the growth is a property of the
    # closed forms themselves, not of this implementation (the convergence
    # clause below and the MC check above pin both ingredients)
    start = time.perf_counter()
    z0 = 2.0 / UNIT.theta
    max_by_n = {}
    for n in (10, 30, 100, 300):
        max_by_n[n] = max(abs(g2_residual(UNIT, n, k, z0)) for k in range(1, n))
    elapsed = time.perf_counter() - start
    bound = 2.0 * max_by_n[10]
    worst = max(max_by_n.values())
    ok = worst <= bound and elapsed < 300.0
    assert report(
        3,
        "residual uniformly bounded on the n-grid (2x the n=10 max)",
        ok,
        f"max|g2| by n: " + ", ".join(f"{n}: {v:.2f}" for n, v in max_by_n.items()) + f"; bound {bound:.2f}, {elapsed:.0f}s",
    )


def test_criterion_3_limit_convergence():
    start = time.perf_counter()
    z0 = 2.0 / UNIT.theta
    z = UNIT.theta * z0
    ok = True
    details = []
    for u in (0.1, 0.5, 0.9):
        errors = []
        for n in (20, 80, 320):
            k = int(round(u * n))
            limit = (UNIT.mu * z0 / UNIT.beta) * (1.0 + g1(z, u))
            errors.append(abs(k * UNIT.mu * expected_sfs(UNIT, n, z0)[k - 1] - limit))
        ok = ok and errors[0] > errors[1] > errors[2]
        details.append(f"u={u}: " + "->".join(f"{e:.1e}" for e in errors))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300.0
    assert report(
        3,
        "k E[xi_k] converges to the g1 limit (error decreasing in n)",
        ok,
        "; ".join(details) + f", {elapsed:.0f}s",
    )


def test_criterion_4_density_identities():
    start = time.perf_counter()
    worst = 0.0
    for r in (0.1, 1.0, 5.0):
        parts = UNIT.mu * (density_branch_check(UNIT, r) + density_spine_check(UNIT, r))
        worst = max(worst, abs(mean_density(UNIT, r) - parts))
    r_small = 1e-6
    small_dev = abs(
        mean_density(UNIT, r_small) * UNIT.beta * UNIT.theta * r_small / UNIT.mu - 1.0
    )
    r_large = 50.0 / UNIT.theta  # 2 theta r = 100
    large_dev = abs(
        mean_density(UNIT, r_large)
        * UNIT.beta
        * math.exp(2.0 * UNIT.theta * r_large)
        / (2.0 * UNIT.mu)
        - 1.0
    )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and small_dev <= 1e-2 and large_dev <= 1e-2 and elapsed < 10.0
    assert report(
        4,
        "density equals branch+spine quadratures; asymptotes",
        ok,
        f"max quad dev {worst:.1e}, r->0 dev {small_dev:.1e}, r->inf dev {large_dev:.1e}, {elapsed:.1f}s",
    )


def test_criterion_5_population_tmrca_law():
    start = time.perf_counter()
    reps, n, z0 = 100_000, 5, 1.5
    maxima = map_replicates(_tmrca_replicate, (UNIT, n, z0), reps, 5000)

    def cdf(t):
        t = np.maximum(np.atleast_1d(t).astype(float), 1e-300)
        return np.array([math.exp(-extinction_tail(UNIT, v) * z0) for v in t])

    ks = stats.kstest(maxima, cdf)
    threshold = 1.63 / math.sqrt(reps)
    elapsed = time.perf_counter() - start
    ok = ks.statistic < threshold and elapsed < 60.0
    assert report(
        5,
        "population TMRCA empirical law vs closed CDF (KS, alpha=0.01)",
        ok,
        f"KS {ks.statistic:.5f} < {threshold:.5f}, {elapsed:.1f}s",
    )


def test_criterion_6_clonal_moments_three_way():
    start = time.perf_counter()
    ok = True
    details = []
    mean, se = mc_clonal(ALPHA_ONE, 1, reps=100_000, seed=6001, statistic="zpow_r")
    z_r = abs(mean - 1.0 / 3.0) / se
    ok &= e_zcl_pow_r(ALPHA_ONE, 1) == pytest.approx(1.0 / 3.0, rel=1e-12) and z_r < 3.0
    details.append(f"E[R]: |z|={z_r:.2f}")
    mean, se = mc_clonal(ALPHA_ONE, 1, reps=100_000, seed=6002, statistic="zpow")
    z_z = abs(mean - 0.25) / se
    ok &= e_zcl_pow(ALPHA_ONE, 1) == pytest.approx(0.25, rel=1e-12) and z_z < 3.0
    details.append(f"E[Zcl]: |z|={z_z:.2f}")
    for n in (2, 3, 5):
        tree_mean, tree_se = mc_clonal(ALPHA_ONE, n, reps=100_000, seed=6010 + n)
        v_mean, v_se = v_representation_check(ALPHA_ONE, n, reps=400_000, seed=6020 + n)
        analytic = e_zcl_pow_r(ALPHA_ONE, n)
        z_tree = abs(tree_mean - analytic) / tree_se
        z_v = abs(v_mean - analytic) / v_se
        z_cross = abs(tree_mean - v_mean) / math.hypot(tree_se, v_se)
        ok &= z_tree < 3.0 and z_v < 3.0 and z_cross < 3.0
        details.append(f"n={n}: |z| tree {z_tree:.2f}, V {z_v:.2f}, cross {z_cross:.2f}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 180.0
    assert report(
        6,
        "clonal moments: exact rationals and three-way MC agreement",
        ok,
        "; ".join(details) + f", {elapsed:.0f}s",
    )


def test_criterion_7_clonal_asymptotics():
    start = time.perf_counter()
    a = ALPHA_ONE.alpha
    limit = (2.0 * a / (2.0 + a)) * math.gamma(a / (1.0 + a))
    errors = []
    for n in (50, 200, 800):
        scaled = zcl_moment_ratio_scaled(ALPHA_ONE, n) * n ** (a / (1.0 + a))
        errors.append(abs(scaled - limit) / limit)
    elapsed = time.perf_counter() - start
    ok = errors[0] > errors[1] > errors[2] and errors[-1] < 0.05 and elapsed < 10.0
    assert report(
        7,
        "clonal moment ratio approaches (2/3)Gamma(1/2) monotonically",
        ok,
        "rel errors " + "->".join(f"{e:.4f}" for e in errors) + f", {elapsed:.1f}s",
    )


def test_criterion_8_special_function_layer():
    start = time.perf_counter()
    rng = np.random.default_rng(8001)
    rec_dev = max(
        abs(digamma(x + 1.0) - digamma(x) - 1.0 / x)
        for x in rng.uniform(1e-3, 100.0, size=1000)
    )
    shift_dev = abs(beta_fn(4.0, 1.7) - (0.7 / 4.0) * beta_fn(5.0, 0.7))
    oracle, _ = integrate.quad(lambda v: math.exp(-v) / v, 1.0, np.inf, epsabs=1e-14)
    gamma_dev = abs(gamma_upper_zero(1.0) - oracle)
    fd_dev = 0.0
    step = 1e-5
    for x in (0.5, 2.0, 20.0):
        fd1 = (h1(x + step) - h1(x - step)) / (2.0 * step)
        fd2 = (h1_deriv(x + step, 1) - h1_deriv(x - step, 1)) / (2.0 * step)
        fd_dev = max(fd_dev, abs(h1_deriv(x, 1) - fd1), abs(h1_deriv(x, 2) - fd2))
    elapsed = time.perf_counter() - start
    ok = (
        rec_dev < 1e-12
        and shift_dev < 1e-14
        and gamma_dev < 1e-12
        and fd_dev < 1e-5
        and elapsed < 10.0
    )
    assert report(
        8,
        "digamma/Beta/incomplete-gamma identities; h1 derivative oracle",
        ok,
        f"recurrence {rec_dev:.1e}, shift {shift_dev:.1e}, gamma {gamma_dev:.1e}, fd {fd_dev:.1e}, {elapsed:.1f}s",
    )


def test_criterion_9_byte_determinism(tmp_path):
    runs = {}
    for tag, workers in (("a", 1), ("b", 4)):
        sample_out = tmp_path / f"sample_{tag}"
        sfs_out = tmp_path / f"sfs_{tag}.csv"
        clonal_out = tmp_path / f"clonal_{tag}.csv"
        assert cli_main([
            "sample", "--n", "5", "--reps", "4", "--seed", "99",
            "--workers", str(workers), "--out", str(sample_out),
        ]) == 0
        assert cli_main([
            "sfs", "--mode", "simulate", "--n", "6", "--z0", "1.5", "--reps", "400",
            "--seed", "99", "--workers", str(workers), "--out", str(sfs_out),
        ]) == 0
        assert cli_main([
            "clonal", "--mode", "simulate", "--n-max", "2", "--mu", "2.0",
            "--reps", "500", "--seed", "99", "--workers", str(workers),
            "--out", str(clonal_out),
        ]) == 0
        runs[tag] = (
            sample_out.with_suffix(".nwk").read_bytes(),
            sample_out.with_suffix(".json").read_bytes(),
            sfs_out.read_bytes(),
            clonal_out.read_bytes(),
        )
        json.loads(sample_out.with_suffix(".json").read_text())
    ok = runs["a"] == runs["b"]
    assert report(
        9,
        "same seed, different --workers: byte-identical outputs",
        ok,
        "sample/sfs/clonal outputs compared across workers 1 vs 4",
    )
