"""Per-tree reference builders of the arrays derived from a layout.

The library derives the native traversal arrays, the simulator's flat
image and the SHAP path set from the layout's forest-wide node block in
one vectorised pass each.  This module keeps the formulations they
replaced — a Python loop over the trees for the first two, a
depth-first walk per tree for the paths — as oracles: every field must
come out ``array_equal``.
"""

from __future__ import annotations

import numpy as np

from repro.core.native import NativeForest
from repro.explain.paths import PathSet, _value_scale
from repro.gpusim.trace import FlatForest
from repro.trees.tree import LEAF


def native_arrays(layout) -> NativeForest:
    """``flatten_native`` as one loop over the layout's trees."""
    forest = layout.forest
    trees = forest.trees
    sizes = np.array([t.n_nodes for t in trees], dtype=np.int64)
    offsets = np.zeros(len(trees) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    total = int(offsets[-1])
    feature = np.empty(total, dtype=np.int32)
    threshold = np.empty(total, dtype=np.float32)
    child_pair = np.empty(2 * total, dtype=np.int32)
    default_true = np.empty(total, dtype=bool)
    value = np.empty(total, dtype=np.float32)
    for t, tree in enumerate(trees):
        base = int(offsets[t])
        sl = slice(base, base + tree.n_nodes)
        feature[sl] = tree.feature
        threshold[sl] = tree.threshold
        flip = tree.flip
        left = np.where(flip, tree.right, tree.left).astype(np.int64)
        right = np.where(flip, tree.left, tree.right).astype(np.int64)
        leaf = tree.feature == LEAF
        self_id = np.arange(tree.n_nodes, dtype=np.int64)
        pair = child_pair[2 * base : 2 * (base + tree.n_nodes)]
        pair[0::2] = np.where(leaf, self_id, right) + base
        pair[1::2] = np.where(leaf, self_id, left) + base
        default_true[sl] = np.where(leaf, False, tree.default_left ^ flip)
        value[sl] = np.where(leaf, tree.value, np.float32(0.0))
    if forest.n_classes > 1:
        tree_group = forest.tree_class.astype(np.int64)
    else:
        tree_group = np.zeros(len(trees), dtype=np.int64)
    cat_offset = np.full(total, -1, dtype=np.int64)
    cat_count = np.zeros(total, dtype=np.int32)
    pools = []
    pool_base = 0
    for t, tree in enumerate(trees):
        if tree.cat_offset is None:
            continue
        sl = slice(int(offsets[t]), int(offsets[t + 1]))
        shifted = tree.cat_offset.copy()
        shifted[shifted >= 0] += pool_base
        cat_offset[sl] = shifted
        cat_count[sl] = tree.cat_count
        pools.append(tree.cat_bits)
        pool_base += tree.cat_bits.shape[0]
    return NativeForest(
        feature=feature,
        feature_ix=np.where(feature == LEAF, np.int32(0), feature).astype(np.int32),
        threshold=threshold,
        child_pair=child_pair,
        default_true=default_true,
        value=value,
        roots=offsets[:-1].astype(np.int32),
        offsets=offsets,
        max_depth=int(forest.max_depth()),
        n_attributes=int(forest.n_attributes),
        tree_group=tree_group,
        n_groups=int(forest.n_classes),
        has_cat=forest.has_categorical,
        cat_offset=cat_offset,
        cat_count=cat_count,
        cat_bits=np.concatenate(pools) if pools else np.zeros(1, dtype=np.uint32),
    )


def simulator_arrays(layout) -> FlatForest:
    """``flatten_layout`` as concatenations over the layout's trees."""
    forest = layout.forest
    trees = forest.trees
    sizes = np.array([t.n_nodes for t in trees], dtype=np.int64)
    offsets = np.zeros(len(trees) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    group = None
    if forest.n_classes > 1:
        group = np.concatenate([np.full(t.n_nodes, t.group, dtype=np.int64) for t in trees])
    cat_offset = cat_count = cat_bits = None
    if forest.has_categorical:
        offs, counts, pools = [], [], []
        pool_base = 0
        for t in trees:
            if t.cat_offset is None:
                offs.append(np.full(t.n_nodes, -1, dtype=np.int64))
                counts.append(np.zeros(t.n_nodes, dtype=np.int32))
            else:
                shifted = t.cat_offset.copy()
                shifted[shifted >= 0] += pool_base
                offs.append(shifted)
                counts.append(t.cat_count)
                pools.append(t.cat_bits)
                pool_base += t.cat_bits.shape[0]
        cat_offset = np.concatenate(offs)
        cat_count = np.concatenate(counts)
        cat_bits = np.concatenate(pools) if pools else np.zeros(0, dtype=np.uint32)
    return FlatForest(
        offsets=offsets,
        feature=np.concatenate([t.feature for t in trees]),
        threshold=np.concatenate([t.threshold for t in trees]),
        child=np.stack(
            [np.concatenate([t.right for t in trees]), np.concatenate([t.left for t in trees])],
            axis=1,
        ).reshape(-1),
        value=np.concatenate([t.value for t in trees]),
        default_left=np.concatenate([t.default_left for t in trees]),
        flip=np.concatenate([t.flip for t in trees]),
        is_leaf=np.concatenate([t.is_leaf for t in trees]),
        address=np.concatenate(layout.node_address),
        n_attributes=forest.n_attributes,
        node_size=layout.node_size,
        group=group,
        n_groups=forest.n_classes,
        cat_offset=cat_offset,
        cat_count=cat_count,
        cat_bits=cat_bits,
    )


def path_set(forest) -> PathSet:
    """``build_path_set`` as a depth-first walk per tree, right subtree
    first, merging each path's edges per feature as it reaches the leaf."""
    e_feature, e_threshold, e_flip, e_default, e_expect = [], [], [], [], []
    e_cat_off, e_cat_cnt = [], []
    slot_start, slot_feature, slot_zero = [0], [], []
    path_start, path_value, path_group = [0], [], []
    cat_pools = []
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
        stack = [(0, [])]
        while stack:
            node, edges = stack.pop()
            if tree.feature[node] == LEAF:
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
                        raise ValueError("non-positive cover ratio on a SHAP path")
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
            cat_off, cat_cnt = -1, 0
            if has_cat and tree.cat_offset[node] >= 0:
                cat_off = int(tree.cat_offset[node]) + tree_pool
                cat_cnt = int(tree.cat_count[node])
            children = ((int(tree.left[node]), True), (int(tree.right[node]), False))
            for child, expect_left in children:
                edge = (
                    int(tree.feature[node]),
                    float(tree.threshold[node]),
                    bool(tree.flip[node]),
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
        cat_bits=np.concatenate(cat_pools) if cat_pools else np.zeros(1, dtype=np.uint32),
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
