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

from repro.formats.encoding import THRESHOLD_MODES, NodeEncoding, encode_block, resolve_width_bits
from repro.trees.flat import NodeBlock
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
    levels = NodeBlock.from_trees([tree]).walk()
    return levels.depth, levels.slot


@dataclass
class ForestLayout:
    """A forest laid out in simulated GPU memory.

    Attributes:
        block: the forest-wide node block in layout order (trees
            permuted, children possibly swapped); its trees are views into
            it and prediction semantics are preserved.
        record: node record layout (determines ``S_node``).
        tree_order: original tree index stored at each layout position.
        level_base: byte offset of each level's slot-group region.
        level_slots: number of heap slots allocated per level.
        total_bytes: size of the whole allocation, including NULL holes.
        format_name: ``"reorg"`` or ``"adaptive"``.
    """

    block: NodeBlock
    record: NodeRecordLayout
    tree_order: list[int]
    level_base: np.ndarray
    level_slots: np.ndarray
    total_bytes: int
    format_name: str
    metadata: dict = field(default_factory=dict)
    _address: np.ndarray | None = field(default=None, repr=False)

    @property
    def address(self) -> np.ndarray:
        """Byte address of every block node within the forest allocation,
        derived from the block's depths and heap slots on first use."""
        if self._address is None:
            walk, size = self.block.walk(), self.node_size
            tree = self.block.tree_index()
            self._address = self.level_base[walk.depth] + (walk.slot * self.n_trees + tree) * size
        return self._address

    @property
    def forest(self) -> Forest:
        """The forest in layout order (the block's trees)."""
        return self.block.forest

    @property
    def node_address(self) -> list[np.ndarray]:
        """Per layout tree, the addresses of its nodes (views)."""
        return np.split(self.address, self.block.offsets[1:-1])

    @property
    def n_trees(self) -> int:
        return self.block.n_trees

    @property
    def node_size(self) -> int:
        return self.record.node_bytes

    @property
    def n_levels(self) -> int:
        return int(self.level_slots.shape[0])

    def addresses_for(self, tree_pos: int, node_ids: np.ndarray) -> np.ndarray:
        """Byte addresses of ``node_ids`` within layout tree ``tree_pos``."""
        return self.address[self.block.offsets[tree_pos] + np.asarray(node_ids)]

    def occupancy(self) -> float:
        """Fraction of allocated node records actually holding a node."""
        allocated = int(self.level_slots.sum()) * self.n_trees
        return self.block.n_nodes / allocated if allocated else 0.0


def build_interleaved_layout(
    forest: Forest,
    record: NodeRecordLayout,
    tree_order: list[int] | None,
    format_name: str,
    encoding=None,
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
    """
    if tree_order is None:
        tree_order = list(range(forest.n_trees))
    if encoding is not None:
        resolve_width_bits(forest, encoding.width_bits)  # capacity check
    # The layout's block: its final trees in storage order, which the
    # layout's trees then view (and see the encoding's floats through).
    block = NodeBlock.from_trees(forest.reordered(tree_order), views=True)
    metadata = {} if encoding is None else {"node_encoding": encode_block(block, encoding)}
    n_trees = block.n_trees
    walk = block.walk()
    level, slot = walk.depth, walk.slot
    n_levels = 1 + int(level.max())
    level_slots = np.zeros(n_levels, dtype=np.int64)
    np.maximum.at(level_slots, level, slot + 1)
    size = record.node_bytes
    level_bytes = level_slots * n_trees * size
    level_base = np.zeros(n_levels, dtype=np.int64)
    np.cumsum(level_bytes[:-1], out=level_base[1:])
    total_bytes = int(level_base[-1] + level_bytes[-1])
    return ForestLayout(
        block=block,
        record=record,
        tree_order=list(tree_order),
        level_base=level_base,
        level_slots=level_slots,
        total_bytes=total_bytes,
        format_name=format_name,
        metadata=metadata,
    )
