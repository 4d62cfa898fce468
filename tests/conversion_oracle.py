"""Per-tree reference implementation of conversion stages 1-3.

The library converts a whole forest at once over flat node arrays.  This
module keeps the straightforward formulation it replaced — one Python
walk per tree, per root-to-leaf path and per token — as an oracle for
the property tests: token sets and weights, SimHash checksums, LSH
chunk hashes, collision counts, buckets and node swaps must all come
out identical.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict

import numpy as np

from repro.trees.tree import LEAF, DecisionTree

MODULUS = 2_147_483_647
BASE = 257


def edge_probabilities(tree: DecisionTree) -> tuple[np.ndarray, np.ndarray]:
    p_left = np.zeros(tree.n_nodes, dtype=np.float64)
    p_right = np.zeros(tree.n_nodes, dtype=np.float64)
    for i in np.nonzero(~tree.is_leaf)[0]:
        total = tree.visit_count[i]
        if total <= 0:
            p_left[i] = p_right[i] = 0.5
        else:
            p_left[i] = tree.visit_count[tree.left[i]] / total
            p_right[i] = tree.visit_count[tree.right[i]] / total
    return p_left, p_right


def node_probabilities(tree: DecisionTree) -> np.ndarray:
    prob = np.zeros(tree.n_nodes, dtype=np.float64)
    prob[0] = 1.0
    p_left, p_right = edge_probabilities(tree)
    frontier = [0]
    while frontier:
        nxt = []
        for node in frontier:
            lo, hi = tree.left[node], tree.right[node]
            if lo != LEAF:
                prob[lo] = prob[node] * p_left[node]
                nxt.append(int(lo))
            if hi != LEAF:
                prob[hi] = prob[node] * p_right[node]
                nxt.append(int(hi))
        frontier = nxt
    return prob


def heap_positions(tree: DecisionTree) -> np.ndarray:
    pos = np.zeros(tree.n_nodes, dtype=np.int64)
    pos[0] = 1
    frontier = [0]
    while frontier:
        nxt = []
        for node in frontier:
            p = pos[node]
            lo, hi = tree.left[node], tree.right[node]
            if lo != LEAF:
                pos[lo] = 2 * p
                nxt.append(int(lo))
            if hi != LEAF:
                pos[hi] = 2 * p + 1
                nxt.append(int(hi))
        frontier = nxt
    return pos


def rearrange(tree: DecisionTree) -> DecisionTree:
    out = tree.copy()
    p_left, p_right = edge_probabilities(out)
    for node in range(out.n_nodes):
        if out.is_leaf[node]:
            continue
        if p_left[node] < p_right[node]:
            out.left[node], out.right[node] = out.right[node], out.left[node]
            out.flip[node] = ~out.flip[node]
            out.default_left[node] = ~out.default_left[node]
    return out


def tokenize(
    tree: DecisionTree, t_nodes: int, include_features: bool = False
) -> list[tuple[bytes, float]]:
    """Sorted ``(content, weight)`` pairs of every path's tokens."""
    positions = heap_positions(tree)
    node_prob = node_probabilities(tree)
    stride = t_nodes - 1
    merged: dict[bytes, float] = {}
    for path in tree.root_to_leaf_paths():
        start = 0
        while True:
            window = path[start : start + t_nodes]
            if not window:
                break
            parts = []
            for node in window:
                if include_features:
                    parts.append(f"{positions[node]}:{int(tree.feature[node])}")
                else:
                    parts.append(str(positions[node]))
            content = "|".join(parts).encode()
            weight = float(node_prob[window[-1]])
            if weight > merged.get(content, -1.0):
                merged[content] = weight
            if start + t_nodes >= len(path):
                break
            start += stride
    return sorted(merged.items())


def token_bits(content: bytes, l_hash: int) -> np.ndarray:
    digest = b""
    block = 0
    while len(digest) * 8 < l_hash:
        h = hashlib.sha1()
        h.update(content)
        if block:
            h.update(block.to_bytes(4, "little"))
        digest += h.digest()
        block += 1
    return np.unpackbits(np.frombuffer(digest, dtype=np.uint8))[:l_hash].astype(np.int8)


def checksum(tree: DecisionTree, t_nodes: int, l_hash: int) -> np.ndarray:
    acc = np.zeros(l_hash, dtype=np.float64)
    for content, weight in tokenize(tree, t_nodes):
        signs = token_bits(content, l_hash).astype(np.float64) * 2.0 - 1.0
        acc += weight * signs
    return acc


def rabin_karp(symbols) -> int:
    h = 0
    for s in symbols:
        h = (h * BASE + int(s) + 1) % MODULUS
    return h


def chunk_hashes(tree: DecisionTree, t_nodes: int, l_hash: int, m_chunks: int) -> list[int]:
    normalized = (checksum(tree, t_nodes, l_hash) >= 0).astype(np.uint8)
    width = l_hash // m_chunks
    return [rabin_karp(normalized[i * width : (i + 1) * width]) for i in range(m_chunks)]


def collisions(
    trees: list[DecisionTree], t_nodes: int, l_hash: int, m_chunks: int
) -> tuple[np.ndarray, list[dict[int, list[int]]]]:
    """``(counts, buckets)`` exactly as the per-tree LSH stage built them."""
    n = len(trees)
    signatures = [chunk_hashes(t, t_nodes, l_hash, m_chunks) for t in trees]
    counts = np.zeros((n, n), dtype=np.int32)
    buckets = []
    for chunk in range(m_chunks):
        bucket: dict[int, list[int]] = defaultdict(list)
        for tree_idx in range(n):
            bucket[signatures[tree_idx][chunk]].append(tree_idx)
        buckets.append(dict(bucket))
        for members in bucket.values():
            if len(members) < 2:
                continue
            arr = np.array(members)
            counts[np.ix_(arr, arr)] += 1
    np.fill_diagonal(counts, 0)
    return counts, buckets
