"""FIL's reorg forest format (paper section 2, figure 1).

Level-major interleaved storage with trees in training order, children in
trained order, and a fixed 4-byte attribute index.  This is the baseline
layout Tahoe's adaptive format is measured against.
"""

from __future__ import annotations

from repro.formats.layout import ForestLayout, build_interleaved_layout, select_node_record
from repro.trees.forest import Forest

__all__ = ["build_reorg_layout"]


def build_reorg_layout(forest: Forest, node_encoding=None) -> ForestLayout:
    """Lay out a forest in the reorg format.

    The forest is stored as trained: no node swaps, no tree reordering,
    fixed-width records — unless ``node_encoding`` (a
    :class:`~repro.formats.encoding.NodeEncoding`) asks for bit-packed
    node words; the level-major interleaving is unchanged either way.
    """
    layout = build_interleaved_layout(
        forest,
        record=select_node_record(forest, False, node_encoding),
        tree_order=None,
        format_name="reorg",
        encoding=node_encoding,
    )
    layout.metadata["description"] = f"FIL reorg format ({layout.record.encoding_label} records)"
    return layout
