"""Rebuild package objects from their serialized forms, for round-trip tests.

The package only writes these forms (``to_dict`` records and Newick text);
reading them back is needed only to check that the writers lose nothing.
The records hold only what cannot be derived (node ids are list
positions), and the readers take every key they hold.
"""

from cbsfs.genealogy import LeafConfig, ZetaVector
from cbsfs.tree import GenealogyTree, RootMode, TreeNode


def leaf_config_from_dict(data: dict) -> LeafConfig:
    return LeafConfig(
        positions=tuple(float(x) for x in data["positions"]),
        labels=tuple(int(x) for x in data["labels"]),
    )


def zeta_vector_from_dict(data: dict) -> ZetaVector:
    return ZetaVector(zetas=tuple(float(z) for z in data["zetas"]))


def tree_from_dict(data: dict) -> GenealogyTree:
    nodes = [
        TreeNode(
            time=float(item["time"]),
            parent=None if item["parent"] is None else int(item["parent"]),
            leaf_label=None if item["leaf_label"] is None else int(item["leaf_label"]),
        )
        for item in data["nodes"]
    ]
    return GenealogyTree(nodes=nodes, root_mode=RootMode(data["root_mode"]))


def parse_newick(text: str):
    """Parse Newick into nested (label, length, children) tuples.

    Minimal grammar: tree -> subtree ';', subtree -> leaf | '(' list ')'
    name? (':' length)?.  Used for round-trip checks of the exporter.
    """
    text = text.strip()
    if not text.endswith(";"):
        raise ValueError("Newick text must end with ';'")
    body = text[:-1]
    pos = 0

    def parse_subtree():
        nonlocal pos
        children = []
        if pos < len(body) and body[pos] == "(":
            pos += 1
            while True:
                children.append(parse_subtree())
                if body[pos] == ",":
                    pos += 1
                    continue
                if body[pos] == ")":
                    pos += 1
                    break
                raise ValueError(f"unexpected character {body[pos]!r} at {pos}")
        start = pos
        while pos < len(body) and body[pos] not in ",():;":
            pos += 1
        name = body[start:pos]
        length = None
        if pos < len(body) and body[pos] == ":":
            pos += 1
            start = pos
            while pos < len(body) and body[pos] not in ",()":
                pos += 1
            length = float(body[start:pos])
        return (name, length, tuple(children))

    result = parse_subtree()
    if pos != len(body):
        raise ValueError(f"trailing characters after position {pos}")
    return result
