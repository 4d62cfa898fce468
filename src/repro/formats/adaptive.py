"""Tahoe's adaptive forest format (paper section 4.3).

The composition of the three techniques:

1. trees permuted into the SimHash+LSH similarity order,
2. every node's hotter child swapped to the left slot, and
3. node records shrunk with the variable-width attribute index.

Each step can be disabled independently (the figure 8 contribution-
breakdown benchmark applies them cumulatively).
"""

from __future__ import annotations

from repro.formats.layout import ForestLayout, build_interleaved_layout, select_node_record
from repro.formats.node_rearrange import rearrange_forest_nodes
from repro.formats.tree_rearrange import similarity_tree_order
from repro.trees.flat import FlatForest
from repro.trees.forest import Forest

__all__ = ["build_adaptive_layout"]


def build_adaptive_layout(
    forest: Forest,
    node_rearrangement: bool = True,
    tree_rearrangement: bool = True,
    variable_width: bool = True,
    t_nodes: int = 4,
    l_hash: int = 128,
    m_chunks: int = 64,
    similarity_method: str = "lsh",
    node_encoding=None,
) -> ForestLayout:
    """Convert a forest to the adaptive format.

    Args:
        forest: trained forest (visit counts populate edge probabilities).
        node_rearrangement: apply probability-based child swapping.
        tree_rearrangement: apply similarity-based tree ordering.
        variable_width: use the just-wide-enough attribute index.
        t_nodes / l_hash / m_chunks: similarity parameters (paper defaults
            4 / 128 / 64, section 7.1).
        similarity_method: ``"lsh"`` or ``"pairwise"``.
        node_encoding: optional
            :class:`~repro.formats.encoding.NodeEncoding`; when given the
            node record is the bit-packed word of ``encode_node_adaptive``
            (supersedes ``variable_width``'s record choice).

    Returns:
        The laid-out forest; ``metadata["techniques"]`` records which
        steps were applied.
    """
    flat = FlatForest.build(forest)
    if node_rearrangement:
        flat = rearrange_forest_nodes(flat)
    structured = flat.forest
    if tree_rearrangement and forest.n_trees > 1:
        order = similarity_tree_order(
            flat,
            t_nodes=t_nodes,
            l_hash=l_hash,
            m_chunks=m_chunks,
            method=similarity_method,
        )
    else:
        order = None
    layout = build_interleaved_layout(
        structured,
        record=select_node_record(structured, variable_width, node_encoding),
        tree_order=order,
        format_name="adaptive",
        encoding=node_encoding,
    )
    layout.metadata["techniques"] = {
        "node_rearrangement": node_rearrangement,
        "tree_rearrangement": tree_rearrangement,
        "variable_width": variable_width,
        "similarity_method": similarity_method if tree_rearrangement else None,
    }
    return layout
