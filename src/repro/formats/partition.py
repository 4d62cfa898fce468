"""Forest partitioning for the splitting-shared-forest strategy.

Splits a laid-out forest into parts that each fit one block's shared
memory (paper section 5.1).  Lives in :mod:`repro.formats` because both
the strategy (to execute) and the performance models (to predict part
count and per-part balance) need it.

Partitioning is *work-balanced*: a first greedy pass finds the minimal
part count the byte capacity allows, and a second pass re-cuts the
layout order into contiguous segments of roughly equal expected
traversal work (expected node visits per sample, from the trees' node
probabilities).  Every part's block walks the whole batch through its
trees, so the heaviest part gates the kernel — bytes-only packing can
easily produce a 4x work spread between parts when deep and shallow
trees mix.
"""

from __future__ import annotations

import numpy as np

from repro.formats.layout import ForestLayout

__all__ = [
    "PartitionError",
    "partition_trees",
    "cached_partition",
    "cached_part_bytes",
    "tree_work",
]


class PartitionError(Exception):
    """A single tree exceeds the shared-memory capacity."""


def tree_work(layout: ForestLayout) -> np.ndarray:
    """Expected node visits per sample for each layout tree.

    The sum of a tree's node probabilities is exactly the expected length
    of one root-to-leaf walk under the training distribution.
    """
    cached = layout.metadata.get("_tree_work")
    if cached is None:
        offsets, node_prob = layout.block.offsets, layout.block.walk(True).node_prob
        bounds = zip(offsets[:-1], offsets[1:])
        cached = np.array([float(node_prob[a:b].sum()) for a, b in bounds])
        layout.metadata["_tree_work"] = cached
    return cached


def _slot_profiles(layout: ForestLayout) -> list[np.ndarray]:
    """Per layout tree, the heap slots it uses on each of its levels."""
    block = layout.block
    walk = block.walk()
    depths = np.maximum.reduceat(walk.depth, block.offsets[:-1])
    profiles = np.zeros((block.n_trees, int(depths.max()) + 1), dtype=np.int64)
    np.maximum.at(profiles, (block.tree_index(), walk.depth), walk.slot + 1)
    return [profiles[t, : d + 1] for t, d in enumerate(depths.tolist())]


def _segment_bytes(trial: np.ndarray, count: int, node_size: int) -> int:
    return int(trial.sum()) * count * node_size


def _merge_profile(cur: np.ndarray, profile: np.ndarray) -> np.ndarray:
    width = max(cur.shape[0], profile.shape[0])
    trial = np.zeros(width, dtype=np.int64)
    trial[: cur.shape[0]] = cur
    trial[: profile.shape[0]] = np.maximum(trial[: profile.shape[0]], profile)
    return trial


def _greedy(
    profiles: list[np.ndarray],
    node_size: int,
    capacity: int,
    work: np.ndarray | None = None,
    work_target: float = float("inf"),
) -> list[list[int]]:
    """Contiguous greedy packing under a byte capacity and a work target."""
    parts: list[list[int]] = []
    current: list[int] = []
    cur_max = np.zeros(0, dtype=np.int64)
    cur_work = 0.0
    for pos, profile in enumerate(profiles):
        solo_bytes = _segment_bytes(profile, 1, node_size)
        if solo_bytes > capacity:
            raise PartitionError(
                f"tree at position {pos} needs {solo_bytes} B alone "
                f"(> {capacity} B of shared memory)"
            )
        trial = _merge_profile(cur_max, profile)
        trial_bytes = _segment_bytes(trial, len(current) + 1, node_size)
        w = float(work[pos]) if work is not None else 0.0
        over_work = current and cur_work + w > work_target and cur_work > 0
        if current and (trial_bytes > capacity or over_work):
            parts.append(current)
            current, cur_max, cur_work = [pos], profile.copy(), w
        else:
            current.append(pos)
            cur_max = trial
            cur_work += w
    if current:
        parts.append(current)
    return parts


def partition_trees(
    layout: ForestLayout, capacity: int, max_parts: int | None = None
) -> list[list[int]]:
    """Split layout tree positions into work-balanced capacity-bounded parts.

    Contiguous in layout order, so similarity-adjacent trees stay in the
    same part (which keeps each part's shared-memory image hot-path
    coherent).  Uses the exact interleaved-layout size formula: a part
    holding trees T occupies ``sum_l max_slots(l) * |T| * node_size``
    bytes.

    ``max_parts`` caps the part count (e.g. at the GPU's concurrent-block
    limit — beyond it extra parts serialise into waves).  Within the cap,
    a binary search on the per-part work budget finds the most balanced
    contiguous partition the byte capacity allows.

    Raises:
        PartitionError: if any single tree exceeds the capacity.
    """
    node_size = layout.node_size
    profiles = _slot_profiles(layout)
    # Pass 1: minimal part count under the byte capacity alone.
    base = _greedy(profiles, node_size, capacity)
    p_min = len(base)
    if p_min <= 1:
        return base
    work = tree_work(layout)
    # Always allow up to twice the byte-minimal part count: splitting a
    # byte-full part of many shallow trees is the only way to balance it,
    # and the wave cost of extra blocks is priced by the time model.
    if max_parts is None:
        max_parts = 2 * p_min
    max_parts = max(max_parts, 2 * p_min)

    def max_work(parts):
        return max(float(work[p].sum()) for p in parts)

    # Binary search the smallest per-part work budget whose greedy cut
    # stays within max_parts.
    lo, hi = float(work.max()), float(work.sum())
    best = base
    for _ in range(24):
        mid = 0.5 * (lo + hi)
        trial = _greedy(profiles, node_size, capacity, work=work, work_target=mid)
        if len(trial) <= max_parts:
            if max_work(trial) < max_work(best) or (
                max_work(trial) == max_work(best) and len(trial) < len(best)
            ):
                best = trial
            hi = mid
        else:
            lo = mid
    return best


def cached_partition(
    layout: ForestLayout, capacity: int, max_parts: int | None = None
) -> list[list[int]]:
    """Partition with memoisation on the layout (keyed by arguments).

    A :class:`PartitionError` is memoised too and re-raised on every
    later call with the same key, so a forest whose trees never fit is
    not re-profiled on each call.
    """
    cache = layout.metadata.setdefault("_partitions", {})
    key = (capacity, max_parts)
    if key not in cache:
        try:
            cache[key] = partition_trees(layout, capacity, max_parts)
        except PartitionError as exc:
            cache[key] = exc
    cached = cache[key]
    if isinstance(cached, PartitionError):
        # Drop the previous raise's frames so they never pile up.
        raise cached.with_traceback(None)
    return cached


def cached_part_bytes(layout: ForestLayout, capacity: int) -> np.ndarray:
    """Shared-memory bytes each part of ``cached_partition(layout,
    capacity)`` stages.

    Each part's size comes from the same interleaved-layout formula the
    partitioner cuts by, so it equals the byte size of the part's own
    interleaved layout.  Memoised beside the partition, so a caller
    ranking strategies per batch pays for it once.

    Raises:
        PartitionError: as :func:`cached_partition`.
    """
    parts = cached_partition(layout, capacity)
    cache = layout.metadata.setdefault("_part_bytes", {})
    if capacity not in cache:
        profiles = _slot_profiles(layout)
        sizes = []
        for part in parts:
            merged = np.zeros(0, dtype=np.int64)
            for pos in part:
                merged = _merge_profile(merged, profiles[pos])
            sizes.append(_segment_bytes(merged, len(part), layout.node_size))
        cache[capacity] = np.array(sizes, dtype=np.int64)
    return cache[capacity]
