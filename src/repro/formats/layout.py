"""Node records and the interleaved level-major address scheme.

Both the reorg format (FIL, paper section 2) and the adaptive format
(section 4.3) store the forest level by level: all trees' nodes at heap
slot 0 of a level, then all trees' nodes at slot 1, and so on — so that
threads traversing different trees along the *same* branch pattern touch
contiguous addresses.  The two formats differ in

* the order of trees within a slot group (adaptive: similarity order),
* which child sits at the left slot (adaptive: the more probable one), and
* the node record size (adaptive: variable-width attribute index).

A :class:`ForestLayout` maps every ``(tree position, node id)`` to a byte
address in the simulated GPU allocation; holes (heap slots with no node)
are part of the allocation, exactly as FIL's dense interleaved storage
NULL-pads them (figure 1).  Levels are sized to the widest slot actually
used by any tree, so empty tails of a level are not allocated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.formats.encoding import THRESHOLD_MODES, NodeEncoding, apply_encoding, resolve_width_bits
from repro.trees.flat import FlatForest
from repro.trees.forest import Forest
from repro.trees.tree import DecisionTree

__all__ = [
    "NodeRecordLayout",
    "ForestLayout",
    "attr_index_bytes",
    "heap_positions",
    "build_interleaved_layout",
    "select_node_record",
]


def attr_index_bytes(n_distinct_attributes: int) -> int:
    """Bytes needed to index ``n_distinct_attributes`` attributes (1/2/4).

    This is the paper's variable-length representation: "the length is
    just enough to index all attributes" (section 4.3).
    """
    if n_distinct_attributes < 1:
        raise ValueError("need at least one attribute")
    if n_distinct_attributes <= 256:
        return 1
    if n_distinct_attributes <= 65536:
        return 2
    return 4


@dataclass(frozen=True)
class NodeRecordLayout:
    """Byte layout of one stored tree node: what the simulator charges.

    A record is an attribute index (or node word), a float field (split
    threshold or leaf value — a node is either a split or a leaf), and
    the three structural flags (leaf marker, default direction,
    rearrangement flip bit).  FIL-style records keep the flags in a
    separate byte; packed records (paper section 4.3
    ``encode_node_adaptive``) bit-pack them into the node word itself.

    Attributes:
        attr_bytes: width of the attribute index / node word (4 in FIL's
            fixed-length format; 1/2/4 in the adaptive and packed forms).
        threshold_mode: float-field storage codec (``f32``/``f16``/``q8``/
            ``q16``); its byte width comes from ``THRESHOLD_MODES``.
        flags_bytes: 1 for a separate flags byte, 0 when the flags live
            in the node word.
    """

    attr_bytes: int = 4
    threshold_mode: str = "f32"
    flags_bytes: int = 1

    @property
    def node_bytes(self) -> int:
        """Total bytes per node record (the paper's ``S_node``).

        The single source of truth for every byte-accounting consumer:
        gpusim transaction counting, the section-6 performance models,
        and the shared-memory capacity checks all read this (via the
        ``node_size`` alias on layouts).
        """
        return self.attr_bytes + THRESHOLD_MODES[self.threshold_mode] + self.flags_bytes

    @property
    def encoding_label(self) -> str:
        """Human/report label, e.g. ``w8/f32`` or ``legacy-a1``."""
        if self.flags_bytes:
            return f"legacy-a{self.attr_bytes}"
        return f"w{8 * self.attr_bytes}/{self.threshold_mode}"


def select_node_record(
    forest: Forest, variable_width: bool, encoding: NodeEncoding | None
) -> NodeRecordLayout:
    """The one place a layout's node record is chosen.

    ``encoding`` (a packed :class:`~repro.formats.encoding.NodeEncoding`)
    wins: its word carries the flags and its mode sizes the float field.
    Otherwise the record keeps FIL's separate flags byte and an f32 float,
    with a 4-byte attribute index (``legacy-a4``, FIL's 9-byte record) or,
    with ``variable_width``, one just wide enough to index the forest's
    distinct attributes (section 4.3).
    """
    if encoding is not None:
        return NodeRecordLayout(encoding.word_bytes, encoding.threshold_mode, flags_bytes=0)
    if variable_width:
        return NodeRecordLayout(attr_index_bytes(max(1, forest.distinct_attributes().size)))
    return NodeRecordLayout()


def heap_positions(tree: DecisionTree) -> tuple[np.ndarray, np.ndarray]:
    """Per-node ``(level, slot)`` in the complete-binary-tree embedding.

    ``slot`` is the position within the level, in ``[0, 2^level)``; the
    root is ``(0, 0)`` and the children of ``(l, s)`` are ``(l+1, 2s)``
    and ``(l+1, 2s+1)``.
    """
    flat = FlatForest.build([tree])
    return flat.depth, flat.slot


@dataclass
class ForestLayout:
    """A forest laid out in simulated GPU memory.

    Attributes:
        forest: the forest in *layout order* (trees permuted, children
            possibly swapped).  Prediction semantics are preserved.
        record: node record layout (determines ``S_node``).
        tree_order: original tree index stored at each layout position.
        node_address: per layout tree, int64 array mapping node id to its
            byte address within the forest allocation.
        level_base: byte offset of each level's slot-group region.
        level_slots: number of heap slots allocated per level.
        total_bytes: size of the whole allocation, including NULL holes.
        format_name: ``"reorg"`` or ``"adaptive"``.
    """

    forest: Forest
    record: NodeRecordLayout
    tree_order: list[int]
    node_address: list[np.ndarray]
    level_base: np.ndarray
    level_slots: np.ndarray
    total_bytes: int
    format_name: str
    metadata: dict = field(default_factory=dict)

    @property
    def n_trees(self) -> int:
        return self.forest.n_trees

    @property
    def node_size(self) -> int:
        return self.record.node_bytes

    @property
    def n_levels(self) -> int:
        return int(self.level_slots.shape[0])

    def addresses_for(self, tree_pos: int, node_ids: np.ndarray) -> np.ndarray:
        """Byte addresses of ``node_ids`` within layout tree ``tree_pos``."""
        return self.node_address[tree_pos][node_ids]

    def occupancy(self) -> float:
        """Fraction of allocated node records actually holding a node."""
        stored = sum(tree.n_nodes for tree in self.forest.trees)
        allocated = int(self.level_slots.sum()) * self.n_trees
        return stored / allocated if allocated else 0.0


def build_interleaved_layout(
    forest: Forest,
    record: NodeRecordLayout,
    tree_order: list[int] | None,
    format_name: str,
    encoding=None,
    flat: FlatForest | None = None,
) -> ForestLayout:
    """Shared constructor for level-major interleaved layouts.

    Args:
        forest: forest whose trees are already in their final *structural*
            form (node rearrangement applied or not).
        record: node record layout.
        tree_order: permutation placing original tree ``tree_order[p]`` at
            layout position ``p``; ``None`` keeps training order.
        format_name: label recorded on the result.
        encoding: optional :class:`~repro.formats.encoding.NodeEncoding`;
            when given, the forest's floats are replaced with their
            decoded images (decode-at-build) so every consumer executes
            the stored codec, and the codec metadata is recorded under
            ``metadata["node_encoding"]``.  ``record`` should then be
            ``select_node_record(forest, ..., encoding)``.
        flat: ``forest``'s flat arrays (conversion stage 1's output),
            whose depths and heap positions place every node; built here
            when omitted.
    """
    encoding_meta = None
    if encoding is not None:
        resolve_width_bits(forest, encoding.width_bits)  # capacity check
        forest, encoding_meta = apply_encoding(forest, encoding)
    if tree_order is None:
        tree_order = list(range(forest.n_trees))
    laid_out = forest.reordered(tree_order)
    if flat is None:
        flat = FlatForest.build(forest)
    n_trees = laid_out.n_trees
    level, slot = flat.depth, flat.slot
    n_levels = 1 + int(level.max())
    level_slots = np.zeros(n_levels, dtype=np.int64)
    np.maximum.at(level_slots, level, slot + 1)
    size = record.node_bytes
    level_bytes = level_slots * n_trees * size
    level_base = np.zeros(n_levels, dtype=np.int64)
    np.cumsum(level_bytes[:-1], out=level_base[1:])
    total_bytes = int(level_base[-1] + level_bytes[-1])
    stored_at = np.empty(n_trees, dtype=np.int64)
    stored_at[tree_order] = np.arange(n_trees)
    address = level_base[level] + (slot * n_trees + stored_at[flat.tree_of]) * size
    # Per-tree copies: the layout outlives the forest-wide buffer.
    node_address = [address[flat.offsets[t] : flat.offsets[t + 1]].copy() for t in tree_order]
    layout = ForestLayout(
        forest=laid_out,
        record=record,
        tree_order=list(tree_order),
        node_address=node_address,
        level_base=level_base,
        level_slots=level_slots,
        total_bytes=total_bytes,
        format_name=format_name,
    )
    if encoding_meta is not None:
        layout.metadata["node_encoding"] = encoding_meta
    return layout
