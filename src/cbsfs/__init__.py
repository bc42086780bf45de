"""Exact sampled genealogies, site frequency spectra and clonal statistics
for a stationary population driven by a quadratic branching mechanism."""

import logging

# Library logging: the application decides whether warnings are shown.
logging.getLogger("cbsfs").addHandler(logging.NullHandler())

from .clonal import (
    clonal_summary,
    e_zcl_pow,
    e_zcl_pow_r,
    mc_clonal,
    u_moment,
    v_representation_check,
    zcl_moment_ratio_scaled,
)
from .genealogy import (
    LeafConfig,
    Lk_all,
    ZetaVector,
    block_Lk,
    block_tree_length,
    intervals,
    population_tree_length,
    sample_block,
    sample_population,
    sample_tree_length,
    sample_zetas,
    tmrca_consecutive,
)
from .model import (
    ModelParams,
    canonical_density,
    extinction_tail,
    kesten_expectation,
    laplace_u,
    tmrca_cdf,
    z0_density,
    z0_moment,
)
from .sfs import (
    density_branch_check,
    density_spine_check,
    expected_sfs,
    g1,
    g2_residual,
    mean_density,
    s_ell,
    s_table,
    simulate_sfs,
)
from .specfun import (
    EULER_GAMMA,
    QuadratureError,
    H_closed,
    H_scale,
    beta_fn,
    digamma,
    f_integrand,
    gamma_upper_zero,
    h0,
    h1,
    h1_deriv,
)
from .tree import (
    GenealogyTree,
    MutationOverlay,
    RootMode,
    StructuralError,
    TreeNode,
    build_tree,
    drop_mutations,
    edge_lengths_by_count,
    newick_export,
    poisson_counts,
    tree_tmrca,
)

__version__ = "0.1.0"
