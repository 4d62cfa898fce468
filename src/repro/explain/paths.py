"""Path enumeration: converted layouts → flat SHAP path arrays.

GPUTreeShap's core observation is that exact TreeSHAP decomposes over
root→leaf *paths*: each path contributes independently to every
feature's attribution, so a GPU can assign paths to warps instead of
walking trees sequentially.  This module performs the equivalent
offline step for our engines — it enumerates every root→leaf path of a
converted :class:`~repro.formats.layout.ForestLayout` (tahoe adaptive
or fil reorg; the traversal semantics, including per-node ``flip`` bits
and categorical bitsets, come straight from the layout's trees) and
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
from repro.trees.forest import Forest
from repro.trees.tree import LEAF

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


def build_path_set(forest: Forest) -> PathSet:
    """Enumerate every root→leaf path of ``forest`` into a PathSet."""
    e_feature: list[int] = []
    e_threshold: list[float] = []
    e_flip: list[bool] = []
    e_default: list[bool] = []
    e_expect: list[bool] = []
    e_cat_off: list[int] = []
    e_cat_cnt: list[int] = []
    slot_start: list[int] = [0]
    slot_feature: list[int] = []
    slot_zero: list[float] = []
    path_start: list[int] = [0]
    path_value: list[float] = []
    path_group: list[int] = []
    cat_pools: list[np.ndarray] = []
    pool_base = 0

    K = forest.n_classes
    scale = _value_scale(forest)
    base = np.zeros(K, dtype=np.float64)
    if forest.aggregation != "mean":
        base += forest.base_score

    for tree in forest.trees:
        has_cat = tree.cat_offset is not None
        tree_pool = 0
        if has_cat:
            cat_pools.append(tree.cat_bits)
            tree_pool = pool_base
            pool_base += int(tree.cat_bits.shape[0])
        g = tree.group if K > 1 else 0
        visit = tree.visit_count.astype(np.float64)
        # stack of (node, edges-so-far) where edges-so-far is a list of
        # (feature, threshold, flip, default_left, expect_left,
        #  cat_offset, cat_count, zero_fraction)
        stack: list[tuple[int, list[tuple]]] = [(0, [])]
        while stack:
            node, edges = stack.pop()
            if tree.feature[node] == LEAF:
                # Merge edges by feature (first-occurrence order).
                by_feature: dict[int, list[tuple]] = {}
                for e in edges:
                    by_feature.setdefault(e[0], []).append(e)
                pz = 1.0
                for f, group_edges in by_feature.items():
                    z = 1.0
                    for e in group_edges:
                        e_feature.append(e[0])
                        e_threshold.append(e[1])
                        e_flip.append(e[2])
                        e_default.append(e[3])
                        e_expect.append(e[4])
                        e_cat_off.append(e[5])
                        e_cat_cnt.append(e[6])
                        z *= e[7]
                    if z <= 0.0:
                        raise ValueError(
                            "non-positive cover ratio on a SHAP path; "
                            "visit counts must be >= 1 at every node"
                        )
                    slot_start.append(len(e_feature))
                    slot_feature.append(f)
                    slot_zero.append(z)
                    pz *= z
                path_start.append(len(slot_feature))
                v = float(tree.value[node]) * float(scale[g])
                path_value.append(v)
                path_group.append(g)
                base[g] += v * pz
                continue
            flip = bool(tree.flip[node]) if tree.flip is not None else False
            cat_off = -1
            cat_cnt = 0
            if has_cat and tree.cat_offset[node] >= 0:
                cat_off = int(tree.cat_offset[node]) + tree_pool
                cat_cnt = int(tree.cat_count[node])
            for child, expect_left in (
                (int(tree.left[node]), True),
                (int(tree.right[node]), False),
            ):
                edge = (
                    int(tree.feature[node]),
                    float(tree.threshold[node]),
                    flip,
                    bool(tree.default_left[node]),
                    expect_left,
                    cat_off,
                    cat_cnt,
                    float(visit[child] / visit[node]),
                )
                stack.append((child, edges + [edge]))

    return PathSet(
        edge_feature=np.asarray(e_feature, dtype=np.int32),
        edge_threshold=np.asarray(e_threshold, dtype=np.float32),
        edge_flip=np.asarray(e_flip, dtype=bool),
        edge_default_left=np.asarray(e_default, dtype=bool),
        edge_expect_left=np.asarray(e_expect, dtype=bool),
        edge_cat_offset=np.asarray(e_cat_off, dtype=np.int64),
        edge_cat_count=np.asarray(e_cat_cnt, dtype=np.int32),
        cat_bits=np.concatenate(cat_pools)
        if cat_pools
        else np.zeros(1, dtype=np.uint32),
        slot_edge_start=np.asarray(slot_start, dtype=np.int64),
        slot_feature=np.asarray(slot_feature, dtype=np.int32),
        slot_zero=np.asarray(slot_zero, dtype=np.float64),
        path_slot_start=np.asarray(path_start, dtype=np.int64),
        path_value=np.asarray(path_value, dtype=np.float64),
        path_group=np.asarray(path_group, dtype=np.int32),
        n_features=int(forest.n_attributes),
        n_classes=K,
        base_values=base,
    )


def path_set_for_layout(layout: ForestLayout) -> PathSet:
    """The layout's PathSet, built once and cached in its metadata."""
    cached = layout.metadata.get("_paths")
    if cached is None:
        cached = build_path_set(layout.forest)
        layout.metadata["_paths"] = cached
    return cached
