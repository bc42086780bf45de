"""Exact sampled genealogies, site frequency spectra and clonal statistics
for a stationary population driven by a quadratic branching mechanism."""

# The command-level API: what the documented commands compute.  Everything
# else is imported from its submodule.
from .clonal import clonal_summary, e_zcl_pow, e_zcl_pow_r, mc_clonal
from .model import ModelParams
from .sfs import expected_sfs, g1, mean_density, simulate_sfs

__version__ = "0.1.0"
