"""Tokenisation and SimHash (paper section 4.2, figure 3).

The pipeline, run over every tree of a forest at once:

1. **Tokenisation** — every root→leaf path is cut into tokens of
   ``t_nodes`` consecutive nodes (consecutive tokens overlap by one node,
   matching figure 3 where the 3-node path ``1-2-4`` yields tokens ``1-2``
   and ``2-4``).  A node contributes its *structural* identity: its heap
   position (root=1, children ``2i``/``2i+1``).  Figure 3's tokens are
   exactly such position pairs ("1-2", "2-4", ...), so trees with
   analogous topology produce identical tokens; the data-dependent part
   of similarity ("common paths") enters through the node-probability
   weights.  Attribute identity can optionally be mixed in via
   ``include_features`` for forests whose attribute usage matters more
   than shape.
2. **SimHash** — each token is hashed with SHA-1 to ``l_hash`` bits, each
   bit mapped to ±1, the vector weighted by the node probability of the
   token's last node, and all weighted vectors summed into the tree's
   *checksum*, token by token in content order.
3. The checksum is **normalised** to a 0/1 vector (negative → 0) before
   the LSH stage.

Windows start at depths ``0, s, 2s, ...`` with stride ``s = t_nodes - 1``,
so a token is fixed by its last node alone: it ends at a node of depth
``d`` (a multiple of ``s``, or a leaf) and starts at depth
``s * floor((d - 1) / s)``, and its nodes' heap positions are ``p >> k``
for the last node's position ``p``.  Tokens are therefore read off the
flat forest arrays (:class:`~repro.trees.flat.FlatForest`) without
walking any path, and each distinct token is hashed once per forest.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.trees.flat import FlatForest
from repro.trees.tree import DecisionTree

__all__ = [
    "ForestTokens",
    "Token",
    "forest_checksums",
    "normalize_checksum",
    "simhash_checksum",
    "token_bits",
    "tokenize_forest",
    "tokenize_tree",
]

#: Bits per SHA-1 digest.
_SHA1_BITS = 160


class Token:
    """One token: the structural content plus its SimHash weight.

    Attributes:
        content: hashable byte string describing the token's nodes.
        weight: node probability of the last node in the token.
    """

    __slots__ = ("content", "weight")

    def __init__(self, content: bytes, weight: float) -> None:
        self.content = content
        self.weight = weight

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.content!r}, weight={self.weight:.3f})"


@dataclass
class ForestTokens:
    """Every tree's distinct tokens, grouped by tree in content order.

    Attributes:
        contents: the forest's distinct token contents, sorted.
        offsets: ``(n_trees + 1,)``; tree ``t``'s tokens are rows
            ``offsets[t]:offsets[t + 1]``.
        key: per token row, its index into ``contents`` (ascending within
            a tree).
        weight: per token row, the node probability of its last node.
    """

    contents: list[bytes]
    offsets: np.ndarray
    key: np.ndarray
    weight: np.ndarray

    def of_tree(self, t: int) -> list[Token]:
        """Tree ``t``'s tokens, in content order."""
        a, b = self.offsets[t], self.offsets[t + 1]
        return [
            Token(self.contents[k], w)
            for k, w in zip(self.key[a:b].tolist(), self.weight[a:b].tolist())
        ]


def tokenize_forest(
    forest: FlatForest | Sequence[DecisionTree], t_nodes: int = 4, include_features: bool = False
) -> ForestTokens:
    """Tokens of every tree (see the module docstring for the scheme).

    Args:
        forest: flat forest or list of trees to tokenise.
        t_nodes: token length in nodes (paper default 4).
        include_features: also embed each node's attribute index in the
            token content (off by default — figure 3's tokens are purely
            positional).
    """
    if t_nodes < 2:
        raise ValueError("t_nodes must be >= 2")
    flat = FlatForest.build(forest)
    stride = t_nodes - 1
    depth = flat.depth.astype(np.int64)
    end = np.flatnonzero((depth >= 0) & (flat.is_leaf | ((depth > 0) & (depth % stride == 0))))
    length = depth[end] - np.maximum((depth[end] - 1) // stride, 0) * stride + 1
    # Column j holds the token's j-th node counted back from its last
    # node (-1 once past its first), so a row reversed is the token.
    shifts = np.arange(t_nodes, dtype=np.int64)
    inside = shifts[None, :] < length[:, None]
    rows = np.where(inside, flat.position[end][:, None] >> shifts[None, :], -1)
    if include_features:
        nodes = np.empty_like(rows)
        nodes[:, 0] = end
        for j in range(1, t_nodes):
            nodes[:, j] = flat.parent[nodes[:, j - 1]]
        features = np.where(inside, flat.feature[nodes], -1)
        rows = np.concatenate([rows, features], axis=1)
        distinct, inverse = np.unique(rows, axis=0, return_inverse=True)
    else:
        # The last node's position alone fixes a positional token.
        _, first, inverse = np.unique(rows[:, 0], return_index=True, return_inverse=True)
        distinct = rows[first]
    contents = []
    for row in distinct.tolist():
        positions = [p for p in row[:t_nodes] if p >= 0][::-1]
        if include_features:
            parts = [f"{p}:{f}" for p, f in zip(positions, row[t_nodes:][: len(positions)][::-1])]
        else:
            parts = map(str, positions)
        contents.append("|".join(parts).encode())
    order = sorted(range(len(contents)), key=contents.__getitem__)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    key = rank[inverse.ravel()]
    tree = flat.tree_of[end]
    sort = np.argsort(tree * len(order) + key)
    offsets = np.zeros(flat.n_trees + 1, dtype=np.int64)
    np.cumsum(np.bincount(tree, minlength=flat.n_trees), out=offsets[1:])
    return ForestTokens(
        contents=[contents[i] for i in order],
        offsets=offsets,
        key=key[sort],
        weight=flat.node_prob[end][sort],
    )


def tokenize_tree(
    tree: DecisionTree, t_nodes: int = 4, include_features: bool = False
) -> list[Token]:
    """One tree's tokens, sorted by content (see :func:`tokenize_forest`)."""
    return tokenize_forest([tree], t_nodes, include_features).of_tree(0)


def _digest(content: bytes, blocks: int) -> bytes:
    """``blocks`` SHA-1 digests: of ``content``, then of ``content || i``."""
    out = hashlib.sha1(content).digest()
    for block in range(1, blocks):
        out += hashlib.sha1(content + block.to_bytes(4, "little")).digest()
    return out


def token_bits(content: bytes, l_hash: int) -> np.ndarray:
    """SHA-1 hash of the token content, expanded to ``l_hash`` bits.

    SHA-1 yields 160 bits; longer strings are produced by counter-mode
    re-hashing (SHA-1 of ``content || block_index``), as is standard for
    fixed-length expansion.
    """
    if l_hash <= 0:
        raise ValueError("l_hash must be positive")
    digest = _digest(content, -(-l_hash // _SHA1_BITS))
    return np.unpackbits(np.frombuffer(digest, dtype=np.uint8))[:l_hash].astype(np.int8)


def forest_checksums(tokens: ForestTokens, l_hash: int = 128) -> np.ndarray:
    """``(n_trees, l_hash)`` SimHash checksums: per tree, the weighted ±1
    sum over its tokens in content order.

    Each distinct content is hashed once.  The sum runs token rank by
    token rank over all trees at once, so every tree adds its tokens in
    the same order as a sequential per-tree loop (bit-identical floats).
    """
    if l_hash <= 0:
        raise ValueError("l_hash must be positive")
    blocks = -(-l_hash // _SHA1_BITS)
    digests = b"".join(_digest(content, blocks) for content in tokens.contents)
    bits = np.unpackbits(
        np.frombuffer(digests, dtype=np.uint8).reshape(len(tokens.contents), -1), axis=1
    )
    signs = bits[:, :l_hash].astype(np.float64) * 2.0 - 1.0
    counts = np.diff(tokens.offsets)
    by_count = np.argsort(-counts, kind="stable")
    live = np.searchsorted(-counts[by_count], -np.arange(counts.max(initial=0)))
    acc = np.zeros((counts.shape[0], l_hash), dtype=np.float64)
    for rank, n_live in enumerate(live.tolist()):
        rows = tokens.offsets[by_count[:n_live]] + rank
        acc[:n_live] += tokens.weight[rows, None] * signs[tokens.key[rows]]
    checksums = np.empty_like(acc)
    checksums[by_count] = acc
    return checksums


def simhash_checksum(tree: DecisionTree, t_nodes: int = 4, l_hash: int = 128) -> np.ndarray:
    """SimHash checksum of a tree: the weighted ±1 sum over all tokens.

    Paper defaults: ``t_nodes=4``, ``l_hash=128`` (section 7.1).
    Returns a float64 vector of length ``l_hash``.
    """
    return forest_checksums(tokenize_forest([tree], t_nodes), l_hash)[0]


def normalize_checksum(checksum: np.ndarray) -> np.ndarray:
    """Regularise a checksum to 0/1 per the paper: negative → 0, else 1."""
    return (np.asarray(checksum) >= 0).astype(np.uint8)
