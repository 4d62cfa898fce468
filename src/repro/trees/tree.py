"""Array-based binary decision tree.

A tree is stored in parallel numpy arrays indexed by node id.  Node 0 is the
root.  Leaves have ``feature == -1`` and child pointers ``-1``.  Every
decision node stores:

* ``feature`` — attribute index tested at the node (``x[feature] < threshold``
  goes left),
* ``threshold`` — split value,
* ``default_left`` — the default path taken when the attribute is missing
  (NaN), matching the paper's "default path" ``D``,
* ``visit_count`` — how many training samples passed through the node; the
  paper's *edge probability* of the left edge at node ``i`` is
  ``visit_count[left[i]] / visit_count[i]``, and the *node probability* is
  ``visit_count[i] / visit_count[0]``,
* ``flip`` — set when probability-based node rearrangement (paper section
  4.1) swapped the node's children: the branch predicate inverts, i.e. a
  sample goes left when ``x[feature] >= threshold``.  The real engine
  stores this bit in the node record; we store it as a parallel array.

Categorical splits (LightGBM's ``decision_type & 1`` nodes) are stored as
bitsets: a node with ``cat_offset[i] >= 0`` tests membership of
``int(x[feature])`` in the set whose ``cat_count[i]`` uint32 words start
at ``cat_bits[cat_offset[i]]``.  Membership routes left before the flip
bit; NaN follows the default path; negative or out-of-range codes are
non-members.  Numeric nodes keep ``cat_offset[i] == -1``, and purely
numeric trees keep ``cat_offset is None`` so the hot paths stay
branch-free.

Multiclass ensembles tag each tree with the class (``group``) its leaf
values contribute to; single-output trees keep the default group 0.

The layout is intentionally decoupled from any on-GPU storage format —
:mod:`repro.formats` flattens trees into reorg / adaptive layouts.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "DecisionTree", "LEAF", "Levels", "check_structure", "edge_probabilities", "level_pass"
]

#: Sentinel used in ``feature``/``left``/``right`` for leaves.
LEAF = -1


def edge_probabilities(
    left: np.ndarray, right: np.ndarray, is_leaf: np.ndarray, visit_count: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(p_left, p_right)`` per node from visit counts.

    ``p_left[i] = visit_count[left[i]] / visit_count[i]`` at decision
    nodes; leaves get 0 and never-visited decision nodes 0.5/0.5.
    ``left``/``right`` index ``visit_count`` directly.
    """
    p_left = np.zeros(is_leaf.shape[0], dtype=np.float64)
    p_right = np.zeros(is_leaf.shape[0], dtype=np.float64)
    idx = np.flatnonzero(~is_leaf)
    total = visit_count[idx]
    visited = total > 0
    safe = np.where(visited, total, 1)
    p_left[idx] = np.where(visited, visit_count[left[idx]] / safe, 0.5)
    p_right[idx] = np.where(visited, visit_count[right[idx]] / safe, 0.5)
    return p_left, p_right


class Levels(NamedTuple):
    """Output of :func:`level_pass`: each level's node ids, and per node
    its parent (-1 at roots), depth (-1 when unreachable), heap position
    (root = 1, children of ``p`` at ``2p``/``2p + 1``) and probability."""

    levels: list[np.ndarray]
    parent: np.ndarray
    depth: np.ndarray
    position: np.ndarray
    node_prob: np.ndarray | None

    @property
    def slot(self) -> np.ndarray:
        """In-level slot: the heap position without its top bit."""
        return self.position - np.left_shift(1, self.depth.astype(np.int64))


def level_pass(
    left: np.ndarray,
    right: np.ndarray,
    roots: np.ndarray | Sequence[int],
    p_left: np.ndarray | None = None,
    p_right: np.ndarray | None = None,
) -> Levels:
    """Walk every tree level by level from ``roots`` at once.

    Each level lists its nodes' children in ``(left, right)`` order.
    Node probabilities are computed only when edge probabilities are
    given.
    """
    n = left.shape[0]
    parent = np.full(n, -1, dtype=np.int64)
    depth = np.full(n, -1, dtype=np.int32)
    position = np.zeros(n, dtype=np.int64)
    node_prob = None if p_left is None else np.zeros(n, dtype=np.float64)
    frontier = np.asarray(roots, dtype=np.int64)
    depth[frontier] = 0
    position[frontier] = 1
    if node_prob is not None:
        node_prob[frontier] = 1.0
    levels = []
    while frontier.size:
        if len(levels) > n:
            raise ValueError("child pointers form a cycle")
        levels.append(frontier)
        kids = np.stack([left[frontier], right[frontier]], axis=1).ravel()
        slot = np.flatnonzero(kids != LEAF)  # 2 * (index in frontier) + is_right
        kids = kids[slot].astype(np.int64)
        par = frontier[slot >> 1]
        is_right = slot & 1
        parent[kids] = par
        depth[kids] = len(levels)
        position[kids] = 2 * position[par] + is_right
        if node_prob is not None:
            node_prob[kids] = node_prob[par] * np.where(is_right, p_right[par], p_left[par])
        frontier = kids
    return Levels(levels, parent, depth, position, node_prob)


def check_structure(
    offsets: np.ndarray,
    feature: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    cat_offset: np.ndarray | None = None,
    cat_count: np.ndarray | None = None,
    cat_words: np.ndarray | None = None,
    checks: list | None = None,
) -> None:
    """Check the tree invariants of a block of trees in one pass.

    Tree ``t`` owns nodes ``offsets[t]:offsets[t + 1]``, with tree-local
    children.  Leaves have no children or bitsets; decision nodes split
    on a feature >= 0 and both their children lie inside their tree;
    every node but the roots has exactly one parent; a bitset has at
    least one word and ends inside its tree's pool of ``cat_words[t]``
    words.  ``checks`` adds ``(mask, problem)`` pairs tested last.
    Raises ``ValueError`` naming the first bad node.
    """
    sizes = np.diff(offsets)
    tree_of = np.repeat(np.arange(sizes.shape[0]), sizes)
    base = offsets[tree_of]
    local = np.arange(feature.shape[0]) - base
    leaf, inner = feature == LEAF, feature != LEAF
    # As unsigned, a negative child is out of range too.
    size = sizes[tree_of].astype(np.uint64)
    outside = (left.astype(np.uint64) >= size) | (right.astype(np.uint64) >= size)
    inside = inner & ~outside
    parents = np.bincount(
        np.concatenate([(left + base)[inside], (right + base)[inside]]), minlength=base.shape[0]
    )
    parents[offsets[:-1]] += 1  # a root counts as its own parent
    problems = [
        (leaf & ((left != LEAF) | (right != LEAF)), "is a leaf with children"),
        (inner & outside, "has an out-of-range child"),
        (inner & ((left == local) | (right == local)), "is its own child"),
        (inner & (feature < 0), "is a decision node with a negative feature index"),
    ]
    if cat_words is not None:
        cat = cat_offset >= 0
        problems += [
            (cat & leaf, "is a leaf carrying a categorical bitset"),
            (cat & (cat_count < 1), "is a categorical node without bitset words"),
            (cat & (cat_offset + cat_count > cat_words[tree_of]), "has a bitset past its pool"),
        ]
    problems += [(parents != 1, "is not reached from exactly one parent"), *(checks or [])]
    for mask, problem in problems:
        bad = np.flatnonzero(mask)
        if bad.size:
            tree = int(tree_of[bad[0]])
            raise ValueError(f"tree {tree} node {int(bad[0] - offsets[tree])} {problem}")


@dataclass
class DecisionTree:
    """A binary decision tree over float features.

    All arrays share length ``n_nodes``.  Construction validates structural
    invariants (single root, acyclic child pointers, leaves consistent).
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    default_left: np.ndarray
    visit_count: np.ndarray
    flip: np.ndarray | None = None
    group: int = 0
    cat_offset: np.ndarray | None = None
    cat_count: np.ndarray | None = None
    cat_bits: np.ndarray | None = None
    validate_on_init: bool = field(default=True, repr=False)

    def __post_init__(self) -> None:
        self.feature = np.asarray(self.feature, dtype=np.int32)
        self.threshold = np.asarray(self.threshold, dtype=np.float32)
        self.left = np.asarray(self.left, dtype=np.int32)
        self.right = np.asarray(self.right, dtype=np.int32)
        self.value = np.asarray(self.value, dtype=np.float32)
        self.default_left = np.asarray(self.default_left, dtype=bool)
        self.visit_count = np.asarray(self.visit_count, dtype=np.int64)
        if self.flip is None:
            self.flip = np.zeros(self.feature.shape[0], dtype=bool)
        else:
            self.flip = np.asarray(self.flip, dtype=bool)
        self.group = int(self.group)
        if self.cat_offset is not None:
            self.cat_offset = np.asarray(self.cat_offset, dtype=np.int64)
            self.cat_count = np.asarray(self.cat_count, dtype=np.int32)
            self.cat_bits = np.asarray(
                self.cat_bits if self.cat_bits is not None else [], dtype=np.uint32
            )
        if self.validate_on_init:
            self.validate()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return int(self.feature.shape[0])

    @property
    def is_leaf(self) -> np.ndarray:
        """Boolean mask of leaf nodes."""
        return self.feature == LEAF

    @property
    def n_leaves(self) -> int:
        return int(np.count_nonzero(self.is_leaf))

    @property
    def has_categorical(self) -> bool:
        """True when any node tests bitset membership."""
        return self.cat_offset is not None and bool((self.cat_offset >= 0).any())

    def cat_member(self, nodes: np.ndarray, vals: np.ndarray) -> np.ndarray:
        """Bitset membership of ``int(vals)`` at categorical ``nodes``.

        NaN, negative, and out-of-range codes are non-members (LightGBM's
        routing: only codes present in the stored set go left).
        """
        nodes = np.asarray(nodes)
        vals = np.asarray(vals, dtype=np.float64)
        code = np.where(np.isfinite(vals) & (vals >= 0), vals, -1.0).astype(np.int64)
        word = code >> 5
        valid = (code >= 0) & (word < self.cat_count[nodes].astype(np.int64))
        slot = self.cat_offset[nodes] + np.where(valid, word, 0)
        bits = self.cat_bits[slot].astype(np.int64)
        return valid & (((bits >> (code & 31)) & 1) == 1)

    def depth(self) -> int:
        """Depth of the tree: number of edges on the longest root→leaf path."""
        depths = self.node_depths()
        return int(depths.max()) if depths.size else 0

    def node_depths(self) -> np.ndarray:
        """Depth of every node (root = 0)."""
        return level_pass(self.left, self.right, [0]).depth

    def parents(self) -> np.ndarray:
        """Parent index of every node (root gets -1)."""
        return level_pass(self.left, self.right, [0]).parent.astype(np.int32)

    # ------------------------------------------------------------------
    # Probabilities (paper section 2)
    # ------------------------------------------------------------------
    def edge_probabilities(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(p_left, p_right)`` per node.

        ``p_left[i]`` is the probability that a sample at decision node
        ``i`` takes the left edge, estimated from training visit counts.
        Leaves get 0.  Nodes never visited during training get 0.5/0.5.
        """
        return edge_probabilities(self.left, self.right, self.is_leaf, self.visit_count)

    def node_probabilities(self) -> np.ndarray:
        """Probability that each node is visited (root = 1.0).

        Computed as the product of edge probabilities from the root, which
        by construction equals ``visit_count[i] / visit_count[0]`` when
        counts are consistent.
        """
        return level_pass(self.left, self.right, [0], *self.edge_probabilities()).node_prob

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Vectorised prediction for a batch of samples.

        NaN attribute values follow the node's default path, matching the
        paper's missing-value semantics.
        """
        X = np.asarray(X, dtype=np.float32)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        node = np.zeros(X.shape[0], dtype=np.int32)
        active = ~self.is_leaf[node]
        while np.any(active):
            cur = node[active]
            feat = self.feature[cur]
            vals = X[np.nonzero(active)[0], feat]
            missing = np.isnan(vals)
            go_left = (vals < self.threshold[cur]) ^ self.flip[cur]
            if self.cat_offset is not None:
                cat = self.cat_offset[cur] >= 0
                if cat.any():
                    member = self.cat_member(cur[cat], vals[cat])
                    go_left[cat] = member ^ self.flip[cur[cat]]
            go_left = np.where(missing, self.default_left[cur], go_left)
            nxt = np.where(go_left, self.left[cur], self.right[cur])
            node[active] = nxt
            active = ~self.is_leaf[node]
        return self.value[node]

    def decision_path(self, x: np.ndarray) -> list[int]:
        """Node ids on the root→leaf path taken by a single sample."""
        x = np.asarray(x, dtype=np.float32)
        path = [0]
        node = 0
        while self.feature[node] != LEAF:
            v = x[self.feature[node]]
            if np.isnan(v):
                go_left = bool(self.default_left[node])
            elif self.cat_offset is not None and self.cat_offset[node] >= 0:
                member = bool(self.cat_member(np.array([node]), np.array([v]))[0])
                go_left = member ^ bool(self.flip[node])
            else:
                go_left = bool(v < self.threshold[node]) ^ bool(self.flip[node])
            node = int(self.left[node] if go_left else self.right[node])
            path.append(node)
        return path

    # ------------------------------------------------------------------
    # Traversal helpers used by formats / hashing
    # ------------------------------------------------------------------
    def level_order(self) -> list[list[int]]:
        """Node ids grouped by depth (BFS levels), children in (left, right) order."""
        return [level.tolist() for level in level_pass(self.left, self.right, [0]).levels]

    def root_to_leaf_paths(self) -> list[list[int]]:
        """All root→leaf paths as lists of node ids (preorder of leaves)."""
        paths: list[list[int]] = []
        stack: list[tuple[int, list[int]]] = [(0, [0])]
        while stack:
            node, path = stack.pop()
            if self.feature[node] == LEAF:
                paths.append(path)
                continue
            # Push right first so left paths are emitted first.
            stack.append((int(self.right[node]), path + [int(self.right[node])]))
            stack.append((int(self.left[node]), path + [int(self.left[node])]))
        return paths

    def copy(self) -> "DecisionTree":
        return DecisionTree(
            feature=self.feature.copy(),
            threshold=self.threshold.copy(),
            left=self.left.copy(),
            right=self.right.copy(),
            value=self.value.copy(),
            default_left=self.default_left.copy(),
            visit_count=self.visit_count.copy(),
            flip=self.flip.copy(),
            group=self.group,
            cat_offset=None if self.cat_offset is None else self.cat_offset.copy(),
            cat_count=None if self.cat_count is None else self.cat_count.copy(),
            cat_bits=None if self.cat_bits is None else self.cat_bits.copy(),
            validate_on_init=False,
        )

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raise ValueError on violation."""
        n = self.n_nodes
        if n == 0:
            raise ValueError("tree must have at least one node")
        lengths = {
            "threshold": self.threshold.shape[0],
            "left": self.left.shape[0],
            "right": self.right.shape[0],
            "value": self.value.shape[0],
            "default_left": self.default_left.shape[0],
            "visit_count": self.visit_count.shape[0],
            "flip": self.flip.shape[0],
        }
        if self.cat_offset is not None:
            lengths["cat_offset"] = self.cat_offset.shape[0]
            lengths["cat_count"] = self.cat_count.shape[0]
        for name, length in lengths.items():
            if length != n:
                raise ValueError(f"array {name} has length {length}, expected {n}")
        if self.group < 0:
            raise ValueError(f"tree group must be >= 0, got {self.group}")
        cats = {}
        if self.cat_offset is not None:
            cats = dict(
                cat_offset=self.cat_offset,
                cat_count=self.cat_count,
                cat_words=np.array([self.cat_bits.shape[0]]),
            )
        check_structure(np.array([0, n]), self.feature, self.left, self.right, **cats)

    @classmethod
    def view(cls, **arrays) -> "DecisionTree":
        """A tree over arrays that already hold the right dtypes (slices of
        a validated node block), built without coercion or validation."""
        tree = cls.__new__(cls)
        tree.__dict__.update(arrays, validate_on_init=False)
        return tree

    @staticmethod
    def single_leaf(value: float, visit_count: int = 1) -> "DecisionTree":
        """A degenerate one-node tree (useful for tests and trivial fits)."""
        return DecisionTree(
            feature=np.array([LEAF], dtype=np.int32),
            threshold=np.array([0.0], dtype=np.float32),
            left=np.array([LEAF], dtype=np.int32),
            right=np.array([LEAF], dtype=np.int32),
            value=np.array([value], dtype=np.float32),
            default_left=np.array([True]),
            visit_count=np.array([visit_count], dtype=np.int64),
        )
