"""Similarity-based tree rearrangement (paper section 4.2).

Computes the SimHash+LSH similarity order for a forest's trees and the
round-robin thread assignment applied on top of it.  Because similar trees
(which tend to have similar size/depth) end up adjacent in the order,
round-robin dealing spreads every size class evenly over threads, which is
what reduces the per-thread execution-time variance from ~49 % to ~13 %
(paper table 3).
"""

from __future__ import annotations

import numpy as np

from repro.hashing.lsh import lsh_collisions, order_trees_by_similarity
from repro.hashing.pairwise import pairwise_order
from repro.trees.flat import FlatForest
from repro.trees.forest import Forest

__all__ = ["similarity_tree_order", "round_robin_assignment"]


def similarity_tree_order(
    forest: Forest | FlatForest,
    t_nodes: int = 4,
    l_hash: int = 128,
    m_chunks: int = 64,
    method: str = "lsh",
) -> list[int]:
    """Order trees by structural similarity.

    Args:
        forest: the forest to order, or its flat arrays (conversion
            stage 1's output).
        t_nodes: nodes per token (paper default 4).
        l_hash: SimHash length in bits (paper default 128).
        m_chunks: LSH chunk count (paper default 64).
        method: ``"lsh"`` (SimHash+LSH, the paper's online method) or
            ``"pairwise"`` (the exact quadratic baseline).

    Returns:
        A permutation: position ``p`` of the result holds the original
        index of the tree to store ``p``-th.
    """
    if method not in ("lsh", "pairwise"):
        raise ValueError(f"unknown method {method!r}")
    flat = FlatForest.build(forest)
    if method == "pairwise":
        return pairwise_order(flat, t_nodes=t_nodes)
    table = lsh_collisions(flat, t_nodes=t_nodes, l_hash=l_hash, m_chunks=m_chunks)
    return order_trees_by_similarity(table)


def round_robin_assignment(n_trees: int, n_threads: int) -> list[np.ndarray]:
    """Deal layout positions ``0..n_trees-1`` over ``n_threads`` threads.

    Thread ``t`` receives positions ``t, t + n_threads, t + 2*n_threads,
    ...`` — FIL's assignment rule (paper section 2), which Tahoe keeps but
    applies *after* the similarity ordering.
    """
    if n_threads < 1:
        raise ValueError("n_threads must be >= 1")
    return [
        np.arange(t, n_trees, n_threads, dtype=np.int64) for t in range(n_threads)
    ]
