"""LSH bucketing and the similarity-based tree order (paper section 4.2).

Each tree's normalised SimHash checksum is divided into ``m_chunks`` equal
chunks; every chunk is Rabin–Karp hashed.  Two trees whose chunk hashes
collide at the same chunk position are similar; the number of colliding
chunk positions is the pair's collision count.  The final tree order
greedily chains trees by descending collision count (figure 3: "T2, T3,
T1, because T2 and T3 have the largest number of collisions, and T3 and T1
have the second largest").
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.hashing.rabin_karp import rabin_karp_rows
from repro.hashing.simhash import forest_checksums, normalize_checksum, tokenize_forest
from repro.trees.flat import FlatForest
from repro.trees.tree import DecisionTree

__all__ = ["CollisionTable", "lsh_collisions", "order_trees_by_similarity"]


@dataclass
class CollisionTable:
    """Pairwise collision counts plus the per-chunk hashes behind them.

    Attributes:
        counts: symmetric int32 matrix, ``counts[a, b]`` = number of chunk
            positions at which trees ``a`` and ``b`` collide.
        signatures: ``(n_trees, m_chunks)`` int64 chunk hashes.
    """

    counts: np.ndarray
    signatures: np.ndarray

    @property
    def n_trees(self) -> int:
        return self.counts.shape[0]

    @property
    def buckets(self) -> list[dict[int, list[int]]]:
        """Per chunk position, a mapping from chunk hash to the ascending
        list of tree indices that produced it."""
        out = []
        for column in self.signatures.T.tolist():
            bucket: dict[int, list[int]] = {}
            for tree_idx, h in enumerate(column):
                bucket.setdefault(h, []).append(tree_idx)
            out.append(bucket)
        return out

    def most_similar_pair(self) -> tuple[int, int]:
        """The tree pair with the most collisions (ties break lexicographically)."""
        n = self.n_trees
        if n < 2:
            raise ValueError("need at least two trees")
        masked = self.counts.copy()
        np.fill_diagonal(masked, -1)
        flat = int(np.argmax(masked))
        return flat // n, flat % n


def lsh_collisions(
    trees: FlatForest | Sequence[DecisionTree],
    t_nodes: int = 4,
    l_hash: int = 128,
    m_chunks: int = 64,
) -> CollisionTable:
    """Compute the pairwise collision table for a forest's trees.

    Paper defaults: ``t_nodes=4``, ``l_hash=128``, ``m_chunks=64``
    (section 7.1).  Every tree's normalised checksum is cut into
    ``m_chunks`` chunks, each Rabin–Karp hashed, and two trees collide
    at a chunk position when their hashes there are equal.
    """
    if m_chunks <= 0:
        raise ValueError("m_chunks must be positive")
    if l_hash % m_chunks != 0:
        raise ValueError(f"l_hash={l_hash} is not divisible by m_chunks={m_chunks}")
    checksums = forest_checksums(tokenize_forest(trees, t_nodes), l_hash)
    n = checksums.shape[0]
    chunks = normalize_checksum(checksums).reshape(n, m_chunks, l_hash // m_chunks)
    signatures = rabin_karp_rows(chunks)
    # One column per (chunk position, hash) bucket that holds two or more
    # trees; a tree pair's collision count is then the number of columns
    # both trees are in, i.e. one product of the 0/1 membership matrix
    # (exact in float32: every entry is a small integer).
    _, bucket = np.unique(signatures + (np.arange(m_chunks) << 32), return_inverse=True)
    bucket = bucket.reshape(n, m_chunks)
    shared = np.bincount(bucket.ravel()) > 1
    column = np.cumsum(shared) - 1
    rows, chunk = np.nonzero(shared[bucket])
    members = np.zeros((n, int(shared.sum())), dtype=np.float32)
    members[rows, column[bucket[rows, chunk]]] = 1.0
    counts = (members @ members.T).astype(np.int32)
    np.fill_diagonal(counts, 0)
    return CollisionTable(counts=counts, signatures=signatures)


def order_trees_by_similarity(
    collisions: CollisionTable | np.ndarray,
) -> list[int]:
    """Greedy similarity chain over the collision (or similarity) matrix.

    Starts from the most-similar pair and repeatedly appends the unplaced
    tree most similar to the chain's tail, so neighbours in the resulting
    order are structurally similar — which is what makes the interleaved
    adaptive format coalesce and what balances per-thread work after
    round-robin assignment.
    """
    counts = collisions.counts if isinstance(collisions, CollisionTable) else collisions
    counts = np.asarray(counts)
    n = counts.shape[0]
    if n == 0:
        return []
    if n == 1:
        return [0]
    masked = counts.astype(np.float64).copy()
    np.fill_diagonal(masked, -np.inf)
    flat = int(np.argmax(masked))
    a, b = flat // n, flat % n
    order = [a, b]
    placed = np.zeros(n, dtype=bool)
    placed[[a, b]] = True
    while len(order) < n:
        tail = order[-1]
        scores = np.where(placed, -np.inf, masked[tail])
        nxt = int(np.argmax(scores))
        order.append(nxt)
        placed[nxt] = True
    return order
