"""Path enumeration: converted layouts → flat SHAP path arrays.

GPUTreeShap's core observation is that exact TreeSHAP decomposes over
root→leaf *paths*: each path contributes independently to every
feature's attribution, so a GPU can assign paths to warps instead of
walking trees sequentially.  This module performs the equivalent
offline step for our engines — it enumerates every root→leaf path of a
converted :class:`~repro.formats.layout.ForestLayout` (tahoe adaptive
or fil reorg; the traversal semantics, including per-node ``flip`` bits
and categorical bitsets, come straight from the layout's node block) and
packs them into the flat arrays the explain kernel vectorises over:

* **edges** — one entry per decision node on a path, carrying the full
  split condition (feature, threshold, flip, default direction,
  categorical bitset slice) plus which child the path takes
  (``expect_left``).  A sample *satisfies* an edge when its resolved
  routing decision matches the path's direction — the one test that
  handles numeric splits, NaN default routing, boundary ties, and
  categorical membership uniformly.
* **slots** — one entry per *unique feature* per path (TreeSHAP merges
  repeated features: the hot-path ``zero_fraction`` is the product of
  the per-edge cover ratios ``visit[child] / visit[node]``, and the
  sample's ``one_fraction`` is the AND of its edge satisfactions).
  Edges are stored slot-contiguously so a segmented AND produces every
  slot's one-fraction in one ``np.minimum.reduceat``.
* **paths** — leaf value (pre-scaled by the forest's finalisation:
  learning rate for boosted sums, per-class tree counts for averaged
  forests), output class group, and the slot range.

Building a PathSet also builds its :class:`~repro.explain.kernel.ShapTables`
(each shallow path's contributions per one-fraction pattern), which the
kernel gathers from; they are host-side scratch and not part of the
simulated path image (``image_bytes``).  The pack is cached on the
layout under ``metadata["_paths"]`` (like the simulator's ``"_flat"``
image), so replicas and repeated explain calls share one enumeration
and one set of tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.explain.kernel import ShapTables, build_shap_tables
from repro.formats.layout import ForestLayout
from repro.trees.flat import NodeBlock
from repro.trees.forest import Forest

__all__ = ["PathSet", "build_path_set", "path_set_for_layout"]


@dataclass
class PathSet:
    """A forest's SHAP paths, flattened for the vectorised kernel.

    Edges are path-major and slot-contiguous; slots are path-major.
    ``E`` edges, ``U`` unique-feature slots, ``P`` paths, ``K`` classes.
    """

    # -- per edge (decision node occurrence on a path) ------------------
    edge_feature: np.ndarray  # int32 (E,)
    edge_threshold: np.ndarray  # float32 (E,)
    edge_flip: np.ndarray  # bool (E,)
    edge_default_left: np.ndarray  # bool (E,)
    edge_expect_left: np.ndarray  # bool (E,)
    edge_cat_offset: np.ndarray  # int64 (E,), -1 at numeric edges
    edge_cat_count: np.ndarray  # int32 (E,)
    cat_bits: np.ndarray  # uint32 shared bitset pool
    # -- per unique-feature slot ---------------------------------------
    slot_edge_start: np.ndarray  # int64 (U + 1,) reduceat offsets
    slot_feature: np.ndarray  # int32 (U,)
    slot_zero: np.ndarray  # float64 (U,) merged cover ratio
    # -- per path -------------------------------------------------------
    path_slot_start: np.ndarray  # int64 (P + 1,)
    path_value: np.ndarray  # float64 (P,) finalisation-scaled leaf value
    path_group: np.ndarray  # int32 (P,) output class
    # -- forest-level ---------------------------------------------------
    n_features: int
    n_classes: int
    base_values: np.ndarray  # float64 (K,) expected margin per class
    # -- derived: the SHAP kernel's per-pattern contribution tables ----
    tables: ShapTables = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.tables = build_shap_tables(self)

    @property
    def n_edges(self) -> int:
        return int(self.edge_feature.shape[0])

    @property
    def n_slots(self) -> int:
        return int(self.slot_feature.shape[0])

    @property
    def n_paths(self) -> int:
        return int(self.path_value.shape[0])

    @property
    def max_unique_depth(self) -> int:
        if self.n_paths == 0:
            return 0
        return int(np.diff(self.path_slot_start).max())

    #: Bytes per packed edge record in the simulated device image:
    #: feature id (4) + threshold (4) + flag byte packing flip/default/
    #: expect (1, padded to 4) + merged zero-fraction share (4).
    EDGE_BYTES = 16

    @property
    def image_bytes(self) -> int:
        """Size of the simulated path image (edges + slot/path tables)."""
        return self.n_edges * self.EDGE_BYTES + self.n_slots * 8 + self.n_paths * 12

    @property
    def unique_depth_squares(self) -> int:
        """Σ d² over paths — the kernel's recurrence work term."""
        d = np.diff(self.path_slot_start)
        return int((d * d).sum())


def _value_scale(forest: Forest) -> np.ndarray:
    """Per-class multiplier mapping raw leaf values onto margin space."""
    if forest.aggregation == "mean":
        if forest.n_classes > 1:
            return 1.0 / np.maximum(forest.trees_per_class(), 1).astype(np.float64)
        return np.full(1, 1.0 / forest.n_trees)
    return np.full(forest.n_classes, forest.learning_rate, dtype=np.float64)


def _sequential_products(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Product of each segment ``values[starts[i]:starts[i + 1]]``, taken
    left to right one factor at a time (1.0 for an empty segment)."""
    lengths = np.diff(starts)
    out = np.ones(lengths.shape[0], dtype=np.float64)
    live = np.flatnonzero(lengths)
    k = 0
    while live.size:
        out[live] *= values[starts[live] + k]
        k += 1
        live = live[lengths[live] > k]
    return out


def build_path_set(source: Forest | NodeBlock) -> PathSet:
    """Enumerate every root→leaf path of a forest (or of its node block)
    into a PathSet, from the block's parent, depth and heap positions.

    Paths come tree by tree in depth-first order, right subtree first;
    each path's edges are merged per feature in first-occurrence order
    and every product and sum runs in that order, one factor at a time.
    Like the heap positions, this is exact for depths below 63.
    """
    block = source if isinstance(source, NodeBlock) else NodeBlock.from_trees(source)
    forest, walk, tree_of = block.forest, block.walk(), block.tree_index()
    K = forest.n_classes
    # Depth-first leaf order, right subtree first: within a tree, sort
    # the leaves' root-to-leaf bits (heap positions, right = 1),
    # left-aligned, in descending order.
    leaves = np.flatnonzero(block.is_leaf)
    depth = walk.depth[leaves]
    key = walk.position[leaves] << (int(depth.max()) - depth)
    path_leaf = leaves[np.lexsort((-key, tree_of[leaves]))]
    # Edges, root first: walk every path up from its leaf at once.
    n_edges = walk.depth[path_leaf].astype(np.int64)
    edge_start = np.concatenate(([0], np.cumsum(n_edges)))
    node = np.empty(edge_start[-1], dtype=np.int64)
    child = np.empty_like(node)
    live = np.flatnonzero(n_edges)
    cur, at = path_leaf[live], edge_start[live] + n_edges[live] - 1
    while live.size:
        node[at], child[at] = walk.parent[cur], cur
        cur, at = walk.parent[cur], at - 1
        keep = at >= edge_start[live]
        live, cur, at = live[keep], cur[keep], at[keep]
    # Merge per feature in first-occurrence order: group each path's
    # edges by feature, then order the groups by their first edge.
    edge_path = np.repeat(np.arange(path_leaf.shape[0]), n_edges)
    at = np.arange(node.shape[0]) - edge_start[edge_path]
    key = edge_path * int(forest.n_attributes) + block.feature[node]
    by_feature = np.argsort(key, kind="stable")
    firsts = np.diff(key[by_feature], prepend=-1) != 0
    first_at = np.empty_like(at)
    first_at[by_feature] = at[by_feature][firsts][np.cumsum(firsts) - 1]
    key = edge_path * int(n_edges.max(initial=0) + 1) + first_at
    order = np.argsort(key, kind="stable")
    node, child, edge_path = node[order], child[order], edge_path[order]
    slot_first = np.flatnonzero(np.diff(key[order], prepend=-1) != 0)
    slot_edge_start = np.concatenate((slot_first, [node.shape[0]])).astype(np.int64)
    visit = block.visit_count.astype(np.float64)
    slot_zero = _sequential_products(visit[child] / visit[node], slot_edge_start)
    if (slot_zero <= 0.0).any():
        raise ValueError(
            "non-positive cover ratio on a SHAP path; "
            "visit counts must be >= 1 at every node"
        )
    slots_per_path = np.bincount(edge_path[slot_first], minlength=path_leaf.shape[0])
    path_slot_start = np.concatenate(([0], np.cumsum(slots_per_path))).astype(np.int64)
    path_zero = _sequential_products(slot_zero, path_slot_start)
    group = block.group[tree_of[path_leaf]] if K > 1 else np.zeros_like(path_leaf)
    path_value = block.value[path_leaf].astype(np.float64) * _value_scale(forest)[group]
    base = np.zeros(K, dtype=np.float64)
    if forest.aggregation != "mean":
        base += forest.base_score
    np.add.at(base, group, path_value * path_zero)
    cat_offset = block.global_cat_offset()
    if cat_offset is None:
        edge_cat_offset = np.full(node.shape[0], -1, dtype=np.int64)
        edge_cat_count = np.zeros(node.shape[0], dtype=np.int32)
        cat_bits = np.zeros(1, dtype=np.uint32)
    else:
        edge_cat_offset = cat_offset[node]
        edge_cat_count = np.where(edge_cat_offset >= 0, block.cat_count[node], 0).astype(np.int32)
        cat_bits = block.cat_bits
    return PathSet(
        edge_feature=block.feature[node],
        edge_threshold=block.threshold[node],
        edge_flip=block.flip[node],
        edge_default_left=block.default_left[node],
        edge_expect_left=child - block.offsets[tree_of[node]] == block.local_left[node],
        edge_cat_offset=edge_cat_offset,
        edge_cat_count=edge_cat_count,
        cat_bits=cat_bits,
        slot_edge_start=slot_edge_start,
        slot_feature=block.feature[node[slot_first]],
        slot_zero=slot_zero,
        path_slot_start=path_slot_start,
        path_value=path_value,
        path_group=group.astype(np.int32),
        n_features=int(forest.n_attributes),
        n_classes=K,
        base_values=base,
    )


def path_set_for_layout(layout: ForestLayout) -> PathSet:
    """The layout's PathSet, built once and cached in its metadata."""
    cached = layout.metadata.get("_paths")
    if cached is None:
        cached = build_path_set(layout.block)
        layout.metadata["_paths"] = cached
    return cached
