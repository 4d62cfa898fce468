"""Forest (decision-tree ensemble) container.

The paper uses "ensemble" and "forest" interchangeably; so do we.  A
:class:`Forest` owns a list of :class:`DecisionTree` plus the aggregation
rule that combines per-tree outputs into a final prediction:

* random forests average tree outputs (``aggregation="mean"``),
* GBDTs sum them on top of a base score (``aggregation="sum"``), with a
  sigmoid link for classification.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.trees.flat import NodeBlock
from repro.trees.tree import DecisionTree

__all__ = ["Forest"]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


@dataclass
class Forest:
    """A decision-tree ensemble.

    Attributes:
        trees: member trees, in storage order.  Tahoe's tree rearrangement
            permutes this list (prediction is invariant to the order).
        n_attributes: width of input samples; every tree's feature indices
            must be < this.
        task: ``"classification"`` or ``"regression"``.
        aggregation: ``"mean"`` (random forest) or ``"sum"`` (GBDT).
        base_score: additive offset applied before the link function
            (GBDT's initial prediction; 0 for random forests).
        learning_rate: shrinkage applied to each tree's output under
            ``"sum"`` aggregation.
        n_classes: output groups.  1 for binary/regression forests (the
            historical single-margin path); multiclass ensembles set
            ``n_classes=K`` and tag each tree with its class via
            ``DecisionTree.group``, making margins ``(n, K)``.
        name: provenance label (usually the dataset name).
    """

    trees: list[DecisionTree]
    n_attributes: int
    task: str = "classification"
    aggregation: str = "mean"
    base_score: float = 0.0
    learning_rate: float = 1.0
    name: str = "forest"
    n_classes: int = 1
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.trees:
            raise ValueError("a forest needs at least one tree")
        if self.aggregation not in ("mean", "sum"):
            raise ValueError(f"unknown aggregation {self.aggregation!r}")
        if self.task not in ("classification", "regression"):
            raise ValueError(f"unknown task {self.task!r}")
        if self.n_classes < 1:
            raise ValueError(f"n_classes must be >= 1, got {self.n_classes}")
        # One pass over the whole forest; the first bad tree is reported.
        ends = np.cumsum([tree.n_nodes for tree in self.trees])
        features = np.concatenate([tree.feature for tree in self.trees])
        wide = np.flatnonzero(features >= self.n_attributes)[:1]
        t_wide = int(np.searchsorted(ends, wide[0], side="right")) if wide.size else self.n_trees
        over = np.array([tree.group for tree in self.trees]) >= self.n_classes
        t_group = int(np.argmax(over)) if over.any() else self.n_trees
        if t_wide < self.n_trees and t_wide <= t_group:
            raise ValueError(
                f"tree {t_wide} references attribute {int(self.trees[t_wide].feature.max())} "
                f">= n_attributes={self.n_attributes}"
            )
        if t_group < self.n_trees:
            group = self.trees[t_group].group
            raise ValueError(f"tree {t_group} has group {group} >= n_classes={self.n_classes}")

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    @property
    def n_nodes(self) -> int:
        """Total node count across all trees."""
        return sum(tree.n_nodes for tree in self.trees)

    def max_depth(self) -> int:
        return int(self.tree_depths().max())

    def mean_depth(self) -> float:
        return float(np.mean(self.tree_depths()))

    def tree_depths(self) -> np.ndarray:
        """Depth of every tree, from one pass over the whole forest."""
        return NodeBlock.from_trees(self).tree_depths()

    @property
    def tree_class(self) -> np.ndarray:
        """Per-tree output group, in storage order."""
        return np.array([tree.group for tree in self.trees], dtype=np.int32)

    def trees_per_class(self) -> np.ndarray:
        """Tree count per output group (the "mean" divisor per class)."""
        return np.bincount(self.tree_class, minlength=self.n_classes).astype(np.int64)

    @property
    def has_categorical(self) -> bool:
        """True when any tree carries bitset (categorical) splits."""
        return any(tree.cat_offset is not None for tree in self.trees)

    def distinct_attributes(self) -> np.ndarray:
        """Sorted attribute indices actually referenced by any tree."""
        used = [tree.feature[tree.feature >= 0] for tree in self.trees]
        if not used:
            return np.array([], dtype=np.int32)
        return np.unique(np.concatenate(used)).astype(np.int32)

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def raw_margin(self, X: np.ndarray) -> np.ndarray:
        """Aggregate tree outputs before any link function.

        Shape ``(n,)`` for single-output forests, ``(n, n_classes)`` for
        multiclass (column ``k`` aggregates the trees with ``group == k``).
        """
        X = np.asarray(X, dtype=np.float32)
        if self.n_classes == 1:
            acc = np.zeros(X.shape[0], dtype=np.float64)
            for tree in self.trees:
                acc += tree.predict(X)
            if self.aggregation == "mean":
                return acc / self.n_trees
            return self.base_score + self.learning_rate * acc
        acc = np.zeros((X.shape[0], self.n_classes), dtype=np.float64)
        for tree in self.trees:
            acc[:, tree.group] += tree.predict(X)
        if self.aggregation == "mean":
            return acc / np.maximum(self.trees_per_class(), 1)
        return self.base_score + self.learning_rate * acc

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Final prediction: probabilities for classification, values for
        regression.  Multiclass classification returns ``(n, n_classes)``
        probabilities (softmax over summed margins for boosted models,
        per-class mean votes for random forests)."""
        margin = self.raw_margin(X)
        if self.task == "classification" and self.aggregation == "sum":
            if self.n_classes > 1:
                if self.metadata.get("multiclass_link") == "ovr":
                    return _sigmoid(margin)
                return _softmax(margin)
            return _sigmoid(margin)
        return margin

    def predict_class(self, X: np.ndarray) -> np.ndarray:
        """Hard labels for classification forests."""
        if self.task != "classification":
            raise ValueError("predict_class is only valid for classification")
        if self.n_classes > 1:
            return np.argmax(self.predict(X), axis=1).astype(np.int32)
        return (self.predict(X) > 0.5).astype(np.int32)

    # ------------------------------------------------------------------
    # Structure manipulation
    # ------------------------------------------------------------------
    def reordered(self, order: list[int] | np.ndarray) -> "Forest":
        """Return a forest with trees permuted by ``order``.

        Prediction is invariant under this permutation; it only changes
        memory layout and thread assignment downstream.
        """
        order = list(order)
        if sorted(order) != list(range(self.n_trees)):
            raise ValueError("order must be a permutation of tree indices")
        return Forest(
            trees=[self.trees[i] for i in order],
            n_attributes=self.n_attributes,
            task=self.task,
            aggregation=self.aggregation,
            base_score=self.base_score,
            learning_rate=self.learning_rate,
            name=self.name,
            n_classes=self.n_classes,
            metadata=dict(self.metadata),
        )

    def with_trees(self, trees: list[DecisionTree]) -> "Forest":
        """Return a copy of this forest with ``trees`` substituted."""
        return Forest(
            trees=trees,
            n_attributes=self.n_attributes,
            task=self.task,
            aggregation=self.aggregation,
            base_score=self.base_score,
            learning_rate=self.learning_rate,
            name=self.name,
            n_classes=self.n_classes,
            metadata=dict(self.metadata),
        )

    def copy(self) -> "Forest":
        return self.with_trees([tree.copy() for tree in self.trees])

    def fingerprint(self) -> str:
        """Content hash of everything that shapes a converted layout.

        Covers structure, parameters *and* visit counts (edge
        probabilities drive node rearrangement, so two forests differing
        only in counts convert differently).  A packed artifact's header
        records it as the provenance of its layout.
        """
        h = hashlib.blake2b(digest_size=16)
        h.update(
            f"{self.n_attributes}|{self.task}|{self.aggregation}|"
            f"{self.base_score!r}|{self.learning_rate!r}|{self.n_trees}".encode()
        )
        # New capabilities fold in only when present, so fingerprints of
        # pre-existing single-class numeric forests are unchanged (packed
        # artifacts' provenance stays valid across the upgrade).
        if self.n_classes > 1:
            h.update(f"|classes={self.n_classes}".encode())
        for tree in self.trees:
            for arr in (
                tree.feature,
                tree.threshold,
                tree.left,
                tree.right,
                tree.value,
                tree.default_left,
                tree.visit_count,
            ):
                h.update(np.ascontiguousarray(arr).tobytes())
            if tree.group:
                h.update(f"|group={tree.group}".encode())
            if tree.cat_offset is not None:
                for arr in (tree.cat_offset, tree.cat_count, tree.cat_bits):
                    h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()
