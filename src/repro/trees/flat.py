"""The forest-wide node block: every tree's nodes in one set of arrays.

:class:`NodeBlock` concatenates every tree's node arrays in storage
order (Py-Boost's ``all_trees`` + ``all_tree_offsets``); tree ``t``'s
local node ``i`` is global node ``offsets[t] + i``.  A layout owns one,
its trees are views into it, ``.tahoe`` stores it field by field, and
the native, simulator and SHAP arrays are derived from it.  It stores
node fields only; its level-synchronous pass from every root
(:func:`repro.trees.tree.level_pass`: parent, depth, heap position with
root = 1 and children of ``p`` at ``2p``/``2p + 1``) is rerun by each
consumer, which caches its own result.  :class:`FlatForest` keeps the
pass and the edge/node probabilities: the working set of conversion
(paper Algorithm 1, lines 5-7).  Heap positions are int64, so they are
exact for depths below 63.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.trees.tree import LEAF, DecisionTree, Levels, edge_probabilities, level_pass

if TYPE_CHECKING:  # forest.py imports this module
    from repro.trees.forest import Forest

__all__ = ["FlatForest", "NodeBlock"]

#: Per-node arrays every tree has, under their DecisionTree names (the
#: block keeps ``left``/``right`` as ``local_left``/``local_right``).
NODE_ARRAYS = (
    "feature", "threshold", "value", "default_left", "flip", "visit_count", "left", "right"
)


@dataclass
class NodeBlock:
    """Every tree of a forest in one set of node arrays.

    Attributes:
        trees: the trees these arrays describe, in storage order.
        forest: the :class:`Forest` holding ``trees`` (``None`` when built
            from a bare tree list).
        offsets: ``(n_trees + 1,)``; tree ``t`` owns nodes
            ``offsets[t]:offsets[t + 1]``.
        group: output group of every tree.
        feature, threshold, value, default_left, flip, visit_count: the
            trees' node arrays, concatenated.
        local_left, local_right: tree-local child ids (``LEAF`` at leaves).
        cat_offset, cat_count: tree-local bitset offsets (-1 at numeric
            nodes) and word counts; ``None`` when no tree has bitsets.
        cat_bits: every tree's bitset pool, concatenated.
        cat_words: pool length of every tree, -1 for a tree without
            bitset arrays.
    """

    trees: list[DecisionTree]
    forest: Forest | None
    offsets: np.ndarray
    group: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    value: np.ndarray
    default_left: np.ndarray
    flip: np.ndarray
    visit_count: np.ndarray
    local_left: np.ndarray
    local_right: np.ndarray
    cat_offset: np.ndarray | None
    cat_count: np.ndarray | None
    cat_bits: np.ndarray | None
    cat_words: np.ndarray | None

    @classmethod
    def from_trees(
        cls, source: Forest | Sequence[DecisionTree], *, views: bool = False
    ) -> NodeBlock:
        """Concatenate a forest's (or a tree list's) trees.

        With ``views`` the result's trees (and forest) are replaced by
        views into its arrays, so the trees and the block cannot drift.
        """
        forest = None if isinstance(source, Sequence) else source
        trees = list(source if forest is None else forest.trees)
        nodes = {
            name: np.concatenate([getattr(t, name) for t in trees] or [np.empty(0, int)])
            for name in NODE_ARRAYS
        }
        cat_bits = cat_words = None
        if any(tree.cat_offset is not None for tree in trees):
            cats = [t for t in trees if t.cat_offset is not None]
            nodes["cat_offset"] = np.concatenate(
                [np.full(t.n_nodes, -1, np.int64) if t.cat_offset is None else t.cat_offset
                 for t in trees]
            )
            nodes["cat_count"] = np.concatenate(
                [np.zeros(t.n_nodes, np.int32) if t.cat_offset is None else t.cat_count
                 for t in trees]
            )
            cat_bits = np.concatenate([t.cat_bits for t in cats])
            cat_words = np.array([-1 if t.cat_offset is None else len(t.cat_bits) for t in trees])
        block = cls.from_arrays(
            np.cumsum([0] + [tree.n_nodes for tree in trees], dtype=np.int64),
            np.array([tree.group for tree in trees], dtype=np.int64),
            nodes,
            cat_bits,
            cat_words,
            trees=None if views else trees,
        )
        block.forest = forest if forest is None or not views else forest.with_trees(block.trees)
        return block

    @classmethod
    def from_arrays(
        cls,
        offsets: np.ndarray,
        group: np.ndarray,
        nodes: dict[str, np.ndarray],
        cat_bits: np.ndarray | None = None,
        cat_words: np.ndarray | None = None,
        *,
        trees: list[DecisionTree] | None = None,
    ) -> NodeBlock:
        """A block from its concatenated arrays: ``nodes`` maps every name
        in :data:`NODE_ARRAYS` (and ``cat_offset``/``cat_count`` with
        ``cat_words``) to its array.  The trees are views into the arrays
        unless ``trees`` is given; ``forest`` is left for the caller."""
        block = cls(
            trees=trees, forest=None, offsets=offsets, group=group,
            **{name: nodes[name] for name in NODE_ARRAYS[:6]},
            local_left=nodes["left"], local_right=nodes["right"],
            cat_offset=nodes.get("cat_offset"), cat_count=nodes.get("cat_count"),
            cat_bits=cat_bits, cat_words=cat_words,
        )
        if trees is None:
            block.trees = block.tree_views()
        return block

    def tree_views(self) -> list[DecisionTree]:
        """One :class:`DecisionTree` per tree whose arrays are views into
        this block (read-only when the block's arrays are)."""
        words = [-1] * self.n_trees if self.cat_words is None else self.cat_words.tolist()
        pools = np.cumsum([0] + [max(n, 0) for n in words]).tolist()
        trees = []
        bounds = zip(self.offsets[:-1].tolist(), self.offsets[1:].tolist())
        for (a, b), g, n, p in zip(bounds, self.group.tolist(), words, pools):
            cats = {} if n < 0 else dict(
                cat_offset=self.cat_offset[a:b], cat_count=self.cat_count[a:b],
                cat_bits=self.cat_bits[p : p + n],
            )
            trees.append(DecisionTree.view(
                feature=self.feature[a:b], threshold=self.threshold[a:b],
                left=self.local_left[a:b], right=self.local_right[a:b], value=self.value[a:b],
                default_left=self.default_left[a:b], visit_count=self.visit_count[a:b],
                flip=self.flip[a:b], group=g, **cats,
            ))
        return trees

    @property
    def n_trees(self) -> int:
        return int(self.offsets.shape[0]) - 1

    @property
    def n_nodes(self) -> int:
        return int(self.feature.shape[0])

    @property
    def is_leaf(self) -> np.ndarray:
        return self.feature == LEAF

    def tree_index(self) -> np.ndarray:
        """Owning tree of every node."""
        return np.repeat(np.arange(self.n_trees, dtype=np.int64), np.diff(self.offsets))

    def global_children(self) -> tuple[np.ndarray, np.ndarray]:
        """``(left, right)`` as global node ids (``LEAF`` at leaves)."""
        base = self.offsets[self.tree_index()]
        children = (self.local_left, self.local_right)
        return tuple(np.where(c != LEAF, c + base, LEAF) for c in children)

    def walk(self, probabilities: bool = False) -> Levels:
        """One level-synchronous pass from every root (with node
        probabilities when asked); raises ``ValueError`` when a tree has
        nodes its root does not reach."""
        left, right = self.global_children()
        p = edge_probabilities(left, right, self.is_leaf, self.visit_count) if probabilities else ()
        levels = level_pass(left, right, self.offsets[:-1], *p)
        if (levels.depth < 0).any():
            raise ValueError("a tree has nodes its root does not reach")
        return levels

    def tree_depths(self) -> np.ndarray:
        """Depth of every tree (its deepest node's depth)."""
        return np.maximum.reduceat(self.walk().depth, self.offsets[:-1])

    def global_cat_offset(self) -> np.ndarray | None:
        """Bitset offsets into the whole ``cat_bits`` pool (-1 at numeric
        nodes); ``None`` when no tree has bitsets."""
        if self.cat_words is None:
            return None
        pools = np.cumsum(np.concatenate(([0], np.maximum(self.cat_words, 0))))
        return np.where(self.cat_offset >= 0, self.cat_offset + pools[self.tree_index()], -1)


@dataclass
class FlatForest(NodeBlock):
    """A node block with its derived arrays kept: conversion's working set.

    Attributes:
        tree_of: owning tree of every node.
        left, right: global child ids (``LEAF`` at leaves).
        p_left, p_right: edge probabilities.
        node_prob: node probabilities.
        levels: global node ids of each depth, over all trees.
        parent: global parent id (-1 at roots).
        depth: node depth (root = 0).
        position: heap position (root = 1).
    """

    tree_of: np.ndarray
    left: np.ndarray
    right: np.ndarray
    p_left: np.ndarray
    p_right: np.ndarray
    node_prob: np.ndarray
    levels: list[np.ndarray]
    parent: np.ndarray
    depth: np.ndarray
    position: np.ndarray

    @classmethod
    def build(cls, source: Forest | Sequence[DecisionTree] | FlatForest) -> FlatForest:
        """Flatten a forest (or a list of trees); a FlatForest passes through."""
        if isinstance(source, FlatForest):
            return source
        block = NodeBlock.from_trees(source)
        left, right = block.global_children()
        p_left, p_right = edge_probabilities(left, right, block.is_leaf, block.visit_count)
        levels = level_pass(left, right, block.offsets[:-1], p_left, p_right)
        return cls(
            **{f.name: getattr(block, f.name) for f in fields(NodeBlock)},
            tree_of=block.tree_index(), left=left, right=right, p_left=p_left,
            p_right=p_right, node_prob=levels.node_prob, levels=levels.levels,
            parent=levels.parent, depth=levels.depth, position=levels.position,
        )

    def swap_children(self, mask: np.ndarray) -> FlatForest:
        """Swap the children of every node in ``mask`` (with their subtrees).

        Swapped nodes invert their ``flip`` and ``default_left`` bits, so
        predictions are unchanged; edge probabilities swap with the
        children and heap positions are re-derived level by level.  Node
        probabilities, depths and parents do not change.  Returns new
        trees (and a new forest); the input is not modified.
        """
        left = np.where(mask, self.right, self.left)
        right = np.where(mask, self.left, self.right)
        flip = self.flip ^ mask
        default_left = self.default_left ^ mask
        position = self.position.copy()
        for nodes in self.levels[1:]:
            par = self.parent[nodes]
            position[nodes] = 2 * position[par] + (left[par] != nodes)
        local_left = np.where(mask, self.local_right, self.local_left)
        local_right = np.where(mask, self.local_left, self.local_right)
        # Each new tree owns its arrays, as a copy of the old one: trees
        # viewing these short-lived buffers measured ~0.25 MB more
        # resident growth on offline-higgs (heap fragmentation), though
        # nothing outlives the conversion.  A swap keeps every invariant
        # DecisionTree.validate checks.
        trees = []
        for tree, a, b in zip(self.trees, self.offsets[:-1], self.offsets[1:]):
            out = tree.copy()
            out.left[:], out.right[:] = local_left[a:b], local_right[a:b]
            out.flip[:], out.default_left[:] = flip[a:b], default_left[a:b]
            trees.append(out)
        return replace(
            self,
            trees=trees,
            forest=None if self.forest is None else self.forest.with_trees(trees),
            local_left=local_left,
            local_right=local_right,
            left=left,
            right=right,
            flip=flip,
            default_left=default_left,
            p_left=np.where(mask, self.p_right, self.p_left),
            p_right=np.where(mask, self.p_left, self.p_right),
            position=position,
        )
