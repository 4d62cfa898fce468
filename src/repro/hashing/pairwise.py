"""Pairwise tree-similarity baseline.

The "traditional method" the paper compares against (section 4.2): every
pair of trees is compared directly, giving O(2^D_tree * N_trees^2) work.
The paper reports this takes up to 19 minutes for 3000 trees, versus
milliseconds for SimHash+LSH — section 7.4's ">37x" speedup for the
similarity-detection step is reproduced by
``benchmarks/bench_sec74_overhead.py`` using this implementation.

Similarity of a tree pair is the weighted Jaccard overlap of their token
multisets (same tokens as the SimHash pipeline, so both methods target the
same notion of similarity and their orders can be compared for agreement).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.hashing.lsh import order_trees_by_similarity
from repro.hashing.simhash import tokenize_forest
from repro.trees.flat import FlatForest
from repro.trees.tree import DecisionTree

__all__ = ["pairwise_similarity_matrix", "pairwise_order"]


def pairwise_similarity_matrix(
    trees: FlatForest | Sequence[DecisionTree], t_nodes: int = 4
) -> np.ndarray:
    """Weighted-Jaccard similarity for every tree pair.

    ``sim(a, b) = sum_t min(w_a[t], w_b[t]) / sum_t max(w_a[t], w_b[t])``
    over the union of token sets.  Quadratic in the number of trees by
    construction — this is the cost the paper's SimHash+LSH pipeline
    avoids.
    """
    tokens = tokenize_forest(trees, t_nodes=t_nodes)
    n = tokens.offsets.shape[0] - 1
    token_maps = [
        {tok.content: tok.weight for tok in tokens.of_tree(t)} for t in range(n)
    ]
    sim = np.zeros((n, n), dtype=np.float64)
    for a in range(n):
        sim[a, a] = 1.0
        for b in range(a + 1, n):
            wa, wb = token_maps[a], token_maps[b]
            union_keys = set(wa) | set(wb)
            num = 0.0
            den = 0.0
            for key in union_keys:
                va = wa.get(key, 0.0)
                vb = wb.get(key, 0.0)
                num += min(va, vb)
                den += max(va, vb)
            value = num / den if den > 0 else 0.0
            sim[a, b] = sim[b, a] = value
    return sim


def pairwise_order(
    trees: FlatForest | Sequence[DecisionTree], t_nodes: int = 4
) -> list[int]:
    """Tree order from the exact pairwise similarity matrix.

    Uses the same greedy chaining as the LSH path so the two methods
    differ only in how similarity was computed.
    """
    flat = FlatForest.build(trees)
    if flat.n_trees <= 1:
        return list(range(flat.n_trees))
    sim = pairwise_similarity_matrix(flat, t_nodes=t_nodes)
    return order_trees_by_similarity(sim)
