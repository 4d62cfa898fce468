"""Probability-based node rearrangement (paper section 4.1).

For every decision node, if the left child's edge probability is lower
than the right child's, the two children (with their whole subtrees) are
swapped, so the *more probable* child always occupies the left heap slot.
Hot paths of different trees then fall on the same in-level slots and the
interleaved layout coalesces their accesses.

Swapping inverts the node's branch predicate; the tree records that in its
``flip`` bit so predictions are bit-for-bit unchanged (tests assert this).
The whole forest is rearranged at once: one mask over the flat node
arrays of :class:`~repro.trees.flat.FlatForest`.
"""

from __future__ import annotations

import numpy as np

from repro.trees.flat import FlatForest
from repro.trees.forest import Forest
from repro.trees.tree import DecisionTree

__all__ = ["rearrange_nodes_by_probability", "rearrange_forest_nodes", "count_swaps"]


def _hot_right(flat: FlatForest) -> np.ndarray:
    """Decision nodes whose right child is the more probable one."""
    return ~flat.is_leaf & (flat.p_left < flat.p_right)


def rearrange_forest_nodes(forest: Forest | FlatForest) -> Forest | FlatForest:
    """Swap every decision node's hotter child to the left.

    Given a :class:`Forest`, returns the rearranged forest.  Given a
    :class:`FlatForest` (conversion stage 1's output), returns the
    rearranged flat forest, whose ``forest`` is the rearranged forest;
    the conversion pipeline passes it on so later stages reuse its heap
    positions.  The input is never modified.
    """
    flat = FlatForest.build(forest)
    out = flat.swap_children(_hot_right(flat))
    return out if isinstance(forest, FlatForest) else out.forest


def rearrange_nodes_by_probability(tree: DecisionTree) -> DecisionTree:
    """A new tree with hot children swapped to the left (``tree`` is kept)."""
    flat = FlatForest.build([tree])
    return flat.swap_children(_hot_right(flat)).trees[0]


def count_swaps(tree: DecisionTree) -> int:
    """Number of nodes whose children would be swapped (diagnostics)."""
    p_left, p_right = tree.edge_probabilities()
    return int(((p_left < p_right) & ~tree.is_leaf).sum())
