"""Per-replicate references for the block routes of the package.

The package draws and renders whole blocks of genealogies as arrays; these
rebuild the same results one replicate at a time through the record types
and the explicit tree, whose attach walk shares no code with the block
build.
"""

from cbsfs.genealogy import LeafConfig, ZetaVector, sample_block
from cbsfs.tree import build_tree, drop_mutations, newick_export


def block_records(positions, labels, depths):
    """Each row of a ``sample_block`` draw as a ``(LeafConfig, ZetaVector)``
    pair, with the spine's depth 0 put back at its rank."""
    for row_positions, row_labels, row_depths in zip(positions, labels, depths):
        config = LeafConfig(positions=tuple(row_positions.tolist()), labels=tuple(row_labels.tolist()))
        spine, row_depths = config.spine_index, row_depths.tolist()
        yield config, ZetaVector(zetas=(*row_depths[:spine], 0.0, *row_depths[spine:]))


def sample_records(args, rng, count=1):
    """The block function of ``cbsfs sample`` built tree by tree: each row's
    records, its tree from ``build_tree``, then its mutations and Newick
    text from that tree."""
    params, n, z0, mode = args
    records = []
    for config, zetas in block_records(*sample_block(params, n, rng, count, condition_z0=z0)):
        tree = build_tree(config, zetas, mode)
        overlay = drop_mutations(tree, params, rng)
        records.append({
            "leaf_config": config.to_dict(),
            "zetas": zetas.to_dict(),
            "mutations": overlay.to_dict(),
            "newick": newick_export(tree),
        })
    return records
