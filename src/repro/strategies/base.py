"""Shared strategy infrastructure."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpusim.counters import TrafficCounters
from repro.gpusim.engine_sim import ExecutionBreakdown
from repro.gpusim.specs import GPUSpec
from repro.trees.forest import Forest

__all__ = [
    "StrategyNotApplicable",
    "StrategyResult",
    "finalize_predictions",
    "coefficient_of_variation",
    "add_coalesced_staging",
]


class StrategyNotApplicable(Exception):
    """Raised when a strategy cannot run on the given forest/GPU.

    The canonical case is shared-forest with a forest larger than shared
    memory (the paper omits those bars in figure 5 for the same reason).
    """


@dataclass
class StrategyResult:
    """Outcome of running one strategy on one batch.

    Attributes:
        strategy: strategy name.
        predictions: final per-sample predictions (post aggregation/link).
        breakdown: simulated execution time decomposition.
        counters: raw traffic counters.
        per_thread_steps: work per simulated thread (imbalance analysis).
        n_blocks / threads_per_block: launch geometry used.
        batch_size: samples processed.
    """

    strategy: str
    predictions: np.ndarray
    breakdown: ExecutionBreakdown
    counters: TrafficCounters
    per_thread_steps: np.ndarray
    n_blocks: int
    threads_per_block: int
    batch_size: int
    level_stats: object | None = None

    @property
    def time(self) -> float:
        """Simulated batch time in seconds."""
        return self.breakdown.total

    @property
    def throughput(self) -> float:
        """Samples per second."""
        return self.batch_size / self.time if self.time > 0 else float("inf")

    @property
    def load_cv(self) -> float:
        """Coefficient of variation of per-thread work."""
        return coefficient_of_variation(self.per_thread_steps)


def finalize_predictions(forest: Forest, leaf_sum: np.ndarray) -> np.ndarray:
    """Apply the forest's aggregation and link to raw leaf-value sums.

    ``leaf_sum`` is ``(n,)`` for single-output forests (the historical
    path, bit-for-bit unchanged) or ``(n, n_classes)`` for multiclass —
    column ``k`` holding the summed leaves of the ``group == k`` trees.
    Multiclass "mean" divides each column by its own class's tree count;
    multiclass boosted classification applies softmax instead of the
    sigmoid link.
    """
    leaf_sum = np.asarray(leaf_sum)
    multiclass = leaf_sum.ndim == 2 and forest.n_classes > 1
    if forest.aggregation == "mean":
        if multiclass:
            margin = leaf_sum / np.maximum(forest.trees_per_class(), 1)
        else:
            margin = leaf_sum / forest.n_trees
    else:
        margin = forest.base_score + forest.learning_rate * leaf_sum
    if forest.task == "classification" and forest.aggregation == "sum":
        if multiclass:
            if forest.metadata.get("multiclass_link") == "ovr":
                # One-vs-all heads: an independent sigmoid per class.
                return 1.0 / (1.0 + np.exp(-margin))
            shifted = margin - margin.max(axis=1, keepdims=True)
            e = np.exp(shifted)
            return e / e.sum(axis=1, keepdims=True)
        return 1.0 / (1.0 + np.exp(-margin))
    return margin


def coefficient_of_variation(values: np.ndarray) -> float:
    """std / mean (0 when empty or the mean is 0)."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return 0.0
    mean = values.mean()
    if mean == 0:
        return 0.0
    return float(values.std() / mean)


def add_coalesced_staging(
    counters: TrafficCounters,
    n_bytes: int,
    spec: GPUSpec,
    source: str,
    to_shared: bool = True,
) -> None:
    """Charge a bulk, fully-coalesced copy (sample/forest staging).

    Bulk copies are issued as back-to-back full-warp loads, so every
    transaction is fully utilised.

    Args:
        counters: destination counter set.
        n_bytes: bytes copied.
        spec: GPU model.
        source: ``"sample"`` or ``"forest"`` — which global-traffic class
            the read is charged to.
        to_shared: also charge the shared-memory write of the staged copy.
    """
    if n_bytes <= 0:
        return
    tx = (n_bytes + spec.transaction_bytes - 1) // spec.transaction_bytes
    fetched = ((n_bytes + 31) // 32) * 32  # all touched sectors are useful
    target = counters.sample_global if source == "sample" else counters.forest_global
    target.add(n_bytes, fetched, tx, tx * spec.warp_size)
    if to_shared:
        counters.shared_write.add(n_bytes, n_bytes, tx, tx * spec.warp_size)
