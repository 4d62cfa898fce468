"""Forest-wide flat node arrays: conversion stage 1.

Format conversion (paper Algorithm 1, lines 5-7) works on the whole
forest at once rather than one tree at a time.  :class:`FlatForest`
concatenates every tree's node arrays; tree ``t``'s local node ``i`` is
global node ``offsets[t] + i``.  One level-synchronous pass, started from
every root at once, then fills in what the later stages read:

* **edge probabilities** (``p_left``/``p_right``) from the visit counts,
* **node probabilities**, the product of edge probabilities from the root,
* **parent**, **depth** and **heap position** (root = 1, children of ``p``
  at ``2p`` and ``2p + 1``), and the node ids of every level.

Node rearrangement (stage 2) swaps children with one mask and re-derives
heap positions level by level (:meth:`FlatForest.swap_children`);
tokenisation (stage 3) and the interleaved layout (stage 4) read the
positions directly.  The pass is :func:`repro.trees.tree.level_pass`,
which also backs the per-tree ``node_depths`` and
``node_probabilities``.

Heap positions are int64, so they are exact for depths below 63.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.trees.tree import LEAF, DecisionTree, edge_probabilities, level_pass

if TYPE_CHECKING:  # forest.py imports this module
    from repro.trees.forest import Forest

__all__ = ["FlatForest"]


@dataclass
class FlatForest:
    """Every tree of a forest in one set of global node arrays.

    Attributes:
        trees: the trees these arrays describe, in storage order.
        forest: the :class:`Forest` holding ``trees`` (``None`` when built
            from a bare tree list).
        offsets: ``(n_trees + 1,)``; tree ``t`` owns nodes
            ``offsets[t]:offsets[t + 1]``.
        tree_of: owning tree of every node.
        feature: attribute index per node (``LEAF`` at leaves).
        left, right: global child ids (``LEAF`` at leaves).
        flip, default_left: the trees' flag arrays, concatenated.
        p_left, p_right: edge probabilities.
        node_prob: node probabilities.
        levels: global node ids of each depth, over all trees.
        parent: global parent id (-1 at roots).
        depth: node depth (root = 0).
        position: heap position (root = 1).
    """

    trees: list[DecisionTree]
    forest: Forest | None
    offsets: np.ndarray
    tree_of: np.ndarray
    feature: np.ndarray
    left: np.ndarray
    right: np.ndarray
    flip: np.ndarray
    default_left: np.ndarray
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
        forest = None if isinstance(source, Sequence) else source
        trees = list(source if forest is None else forest.trees)
        sizes = np.array([tree.n_nodes for tree in trees], dtype=np.int64)
        offsets = np.zeros(sizes.shape[0] + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        tree_of = np.repeat(np.arange(sizes.shape[0], dtype=np.int64), sizes)
        base = offsets[tree_of]

        def cat(name: str) -> np.ndarray:
            return np.concatenate([getattr(tree, name) for tree in trees] or [np.empty(0, int)])

        def to_global(local: np.ndarray) -> np.ndarray:
            return np.where(local != LEAF, local + base, LEAF)

        feature = cat("feature")
        left, right = to_global(cat("left")), to_global(cat("right"))
        p_left, p_right = edge_probabilities(left, right, feature == LEAF, cat("visit_count"))
        levels = level_pass(left, right, offsets[:-1], p_left, p_right)
        return cls(
            trees=trees,
            forest=forest,
            offsets=offsets,
            tree_of=tree_of,
            feature=feature,
            left=left,
            right=right,
            flip=cat("flip"),
            default_left=cat("default_left"),
            p_left=p_left,
            p_right=p_right,
            node_prob=levels.node_prob,
            levels=levels.levels,
            parent=levels.parent,
            depth=levels.depth,
            position=levels.position,
        )

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    @property
    def is_leaf(self) -> np.ndarray:
        return self.feature == LEAF

    @property
    def slot(self) -> np.ndarray:
        """In-level slot: the heap position without its top bit."""
        return self.position - np.left_shift(1, self.depth.astype(np.int64))

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
        base = self.offsets[self.tree_of]
        local_left = np.where(left != LEAF, left - base, LEAF).astype(np.int32)
        local_right = np.where(right != LEAF, right - base, LEAF).astype(np.int32)
        # Each new tree owns its arrays, as a copy of the old one: slices
        # of the forest-wide buffers (or arrays shared with the input
        # forest) would keep those alive for the layout's lifetime.  A
        # swap keeps every invariant DecisionTree.validate checks.
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
            left=left,
            right=right,
            flip=flip,
            default_left=default_left,
            p_left=np.where(mask, self.p_right, self.p_left),
            p_right=np.where(mask, self.p_left, self.p_right),
            position=position,
        )
