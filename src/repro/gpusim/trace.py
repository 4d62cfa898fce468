"""Lockstep traversal trace engine.

Simulates SIMT execution of forest traversal at warp granularity and
produces exact memory-access traces.  Two thread-to-work mappings cover
all four inference strategies (paper sections 2 and 5):

* :func:`trace_tree_parallel` — FIL's shared-data mapping: the threads of
  a block split the *trees* round-robin and every thread walks its trees
  for the same sample; samples stream one after another.  At a given
  lockstep instruction, warp lanes sit at the same level of *different*
  trees — the access pattern whose (un)coalescing figure 2(a) plots.
* :func:`trace_sample_parallel` — the direct / shared-forest / splitting
  mappings: every thread owns one *sample* and the block's threads walk
  the same tree together; warp lanes sit at the same level of the same
  tree for 32 different samples.

Both return a :class:`TraceResult` with per-traffic-class counters, the
per-thread work vector (for load-imbalance CV), and the per-sample sum of
leaf values (so the simulated kernel's predictions can be checked against
the reference predictor bit-for-bit).

Address spaces are disjoint: the forest lives at byte 0, samples at
``SAMPLE_BASE``, outputs at ``OUTPUT_BASE`` — matching distinct
allocations on a real device.

Hot-path structure: both mappings lay their work out as *warp rows*
of ``warp_size`` lanes — tree-parallel ordered by round, then sample,
then thread warp (warps with no tree in a round are left out);
sample-parallel by tree, then sample warp — and cut that one row list
into tiles of at most :data:`TILE_SLOTS` lanes.  Each tile runs through
:func:`_traverse_chunk`, a single lockstep loop that:

* compacts finished *warp rows* out of the live tile after every level,
  so each level touches only warps with a live lane;
* records each level's ``(addr, alive)`` rows in an
  :class:`_AccessBuffer` and flushes them once per tile through the
  counts-only kernels (:func:`~repro.gpusim.memory.coalesced_totals`,
  :func:`~repro.gpusim.memory.bank_conflict_totals`), or through the
  per-row kernels when figure 2(a) level statistics are wanted;
* writes a lane's step count once, at its leaf, and accumulates leaf
  values through a single ``np.bincount`` per tile.

Every output is independent of the tile size;
``tests/test_kernel_equivalence.py`` pins all of them to the original
per-level implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.formats.layout import ForestLayout
from repro.gpusim.counters import LevelStats, TrafficCounters
from repro.gpusim.memory import (
    adjacent_lane_distances,
    bank_conflict_totals,
    coalesced_totals,
    transactions_per_row,
)
from repro.gpusim.specs import GPUSpec
from repro.obs.trace import span

__all__ = [
    "FlatForest",
    "TraceResult",
    "flatten_layout",
    "trace_tree_parallel",
    "trace_sample_parallel",
    "SAMPLE_BASE",
    "OUTPUT_BASE",
]

SAMPLE_BASE = np.int64(1) << 40
OUTPUT_BASE = np.int64(1) << 41

_ATT_BYTES = 4  # float32 attributes (the paper's S_att)

#: Lane slots per traversal tile (warp rows x warp size).  Both mappings
#: cut their stacked row list into tiles of this many slots; the value
#: only trades per-tile Python overhead against cache-resident level
#: arrays and never changes an output.
TILE_SLOTS = 1 << 15


@dataclass
class FlatForest:
    """A layout's trees concatenated into flat arrays for vectorised
    traversal.

    ``offsets[p]`` is the flat index of layout-tree ``p``'s root; child
    pointers stay tree-local, so the flat index of a node is always
    ``offsets[p] + local_id``.  ``child[2 * i + go_left]`` is node ``i``'s
    right (``go_left`` 0) or left (1) child, so one gather takes a branch.
    """

    offsets: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    child: np.ndarray
    value: np.ndarray
    default_left: np.ndarray
    flip: np.ndarray
    is_leaf: np.ndarray
    address: np.ndarray
    n_attributes: int
    node_size: int
    #: Per-node output group (the owning tree's class); all zeros and
    #: ``n_groups == 1`` for single-output forests.
    group: np.ndarray | None = None
    n_groups: int = 1
    #: Categorical bitset columns; ``None`` for purely numeric forests so
    #: the traversal hot path stays branch-free.
    cat_offset: np.ndarray | None = None
    cat_count: np.ndarray | None = None
    cat_bits: np.ndarray | None = None


def flatten_layout(layout: ForestLayout) -> FlatForest:
    """Build (and cache on the layout) the flat traversal arrays: views
    of the layout's node block, plus the interleaved child pairs and the
    forest-wide bitset offsets derived from it."""
    cached = layout.metadata.get("_flat")
    if cached is not None:
        return cached
    block, forest = layout.block, layout.forest
    cat_offset = block.global_cat_offset()
    flat = FlatForest(
        offsets=block.offsets,
        feature=block.feature,
        threshold=block.threshold,
        child=np.stack([block.local_right, block.local_left], axis=1).reshape(-1),
        value=block.value,
        default_left=block.default_left,
        flip=block.flip,
        is_leaf=block.is_leaf,
        address=layout.address,
        n_attributes=forest.n_attributes,
        node_size=layout.node_size,
        group=block.group[block.tree_index()] if forest.n_classes > 1 else None,
        n_groups=forest.n_classes,
        cat_offset=cat_offset,
        cat_count=None if cat_offset is None else block.cat_count,
        cat_bits=block.cat_bits,
    )
    layout.metadata["_flat"] = flat
    return flat


@dataclass
class TraceResult:
    """Outcome of tracing one block-sized piece of work.

    Attributes:
        leaf_sum: per-sample sum of leaf values over the traversed trees
            (raw margins; the strategy applies the forest's aggregation).
        per_thread_steps: node visits per simulated thread — the
            load-imbalance signal (figure 2c / table 3).
        counters: traffic per memory class.
        level_stats: per-level coalescing stats when requested.
        node_visits: total node fetches issued.
    """

    leaf_sum: np.ndarray
    per_thread_steps: np.ndarray
    counters: TrafficCounters
    level_stats: LevelStats | None
    node_visits: int


class _AccessBuffer:
    """Per-tile buffer of warp-row accesses, flushed in one batch.

    The lockstep loop appends each level's ``(addr, alive)`` warp rows
    (plus the level id when level stats are wanted); :meth:`flush_node`
    and :meth:`flush_sample` then run the memory-model kernel exactly
    once over the concatenation.  Rows are warp-shaped, so concatenating
    levels never mixes lanes across rows, and every per-row quantity the
    kernels see is independent of the batching.
    """

    __slots__ = ("_addr", "_active", "_levels", "_track_levels")

    def __init__(self, track_levels: bool) -> None:
        self._addr: list[np.ndarray] = []
        self._active: list[np.ndarray] = []
        self._levels: list[np.ndarray] = []
        self._track_levels = track_levels

    def append(self, addr: np.ndarray, active: np.ndarray, level: int) -> None:
        self._addr.append(addr)
        self._active.append(active)
        if self._track_levels:
            self._levels.append(np.full(addr.shape[0], level, dtype=np.int64))

    def flush_node(
        self,
        counters: TrafficCounters,
        level_stats: LevelStats | None,
        node_space: str,
        spec: GPUSpec,
        node_size: int,
    ) -> None:
        """Charge all buffered node fetches to the right traffic class."""
        if not self._addr:
            return
        addr = np.concatenate(self._addr)
        active = np.concatenate(self._active)
        if node_space == "shared":
            counters.shared_read.add(*bank_conflict_totals(addr, active, node_size))
        elif node_space != "global":
            raise ValueError(f"unknown node_space {node_space!r}")
        elif level_stats is None:
            counters.forest_global.add(
                *coalesced_totals(addr, active, spec.transaction_bytes, node_size)
            )
        else:
            # Figure 2(a) needs the per-row counts, binned by level.
            tx, sectors, req = transactions_per_row(
                addr, active, spec.transaction_bytes, node_size
            )
            fetched_rows = sectors * 32
            counters.forest_global.add(
                int(req.sum()), int(fetched_rows.sum()), int(tx.sum()), int(active.sum())
            )
            lev = np.concatenate(self._levels)
            mask = lev < level_stats.max_levels
            if mask.any():
                lv = lev[mask]
                cap = level_stats.max_levels
                dist, pairs = adjacent_lane_distances(addr[mask], active[mask])
                level_stats.distance_sum += np.bincount(
                    lv, weights=dist, minlength=cap
                )
                level_stats.pair_count += np.bincount(
                    lv, weights=pairs, minlength=cap
                ).astype(np.int64)
                level_stats.requested += np.bincount(
                    lv, weights=req[mask], minlength=cap
                ).astype(np.int64)
                level_stats.fetched += np.bincount(
                    lv, weights=fetched_rows[mask], minlength=cap
                ).astype(np.int64)

    def flush_sample(
        self, counters: TrafficCounters, sample_space: str, spec: GPUSpec
    ) -> None:
        """Charge all buffered attribute fetches."""
        if not self._addr:
            return
        addr = np.concatenate(self._addr)
        active = np.concatenate(self._active)
        if sample_space == "global":
            counters.sample_global.add(
                *coalesced_totals(
                    addr, active, spec.transaction_bytes, _ATT_BYTES, base=SAMPLE_BASE
                )
            )
        elif sample_space == "shared":
            counters.shared_read.add(*bank_conflict_totals(addr, active, _ATT_BYTES))
        else:
            raise ValueError(f"unknown sample_space {sample_space!r}")


def _traverse_chunk(
    flat: FlatForest,
    X_flat: np.ndarray,
    sample: np.ndarray,
    tree: np.ndarray,
    shared_row: np.ndarray | None,
    counters: TrafficCounters,
    level_stats: LevelStats | None,
    spec: GPUSpec,
    node_space: str,
    sample_space: str,
    leaf_sum: np.ndarray,
) -> np.ndarray:
    """Lockstep-traverse one tile of warp rows; returns its step counts.

    Args:
        X_flat: the sample matrix raveled in C order.
        sample: (rows, warp) sample row index per lane.
        tree: (rows, warp) layout tree position per lane (-1 = idle).
        shared_row: (rows, warp) shared-memory row per lane when samples
            are read from shared memory (None otherwise).
        leaf_sum: per-sample (times group) accumulator.

    Returns:
        (rows, warp) node visits per lane: ``level + 1`` of the level at
        which the lane reached its leaf, 0 for idle lanes.

    Warp rows whose lanes have all finished are compacted out of the
    live tile; all memory accounting is buffered per level and flushed
    once per tile (see :class:`_AccessBuffer`).
    """
    rows, lanes = tree.shape
    n_att = max(flat.n_attributes, 1)
    alive = tree >= 0
    base = flat.offsets[np.maximum(tree, 0)]
    cur = np.zeros((rows, lanes), dtype=np.int32)
    # Flat X index of each lane's sample row; adding the feature gives the
    # attribute's index, and times _ATT_BYTES its offset in global memory.
    x_row = sample * n_att
    s_row = None if shared_row is None else shared_row * n_att
    steps = np.zeros((rows, lanes), dtype=np.int64)
    row_ids = np.arange(rows, dtype=np.int64)
    node_buf = _AccessBuffer(track_levels=level_stats is not None)
    samp_buf = _AccessBuffer(track_levels=False)
    leaf_idx_parts: list[np.ndarray] = []
    leaf_val_parts: list[np.ndarray] = []
    level = 0
    while True:
        # Compact finished warp rows out of the live state.
        live = alive.any(axis=1)
        if not live.all():
            keep = np.flatnonzero(live)
            alive = alive[keep]
            cur = cur[keep]
            base = base[keep]
            x_row = x_row[keep]
            row_ids = row_ids[keep]
            if s_row is not None:
                s_row = s_row[keep]
        if alive.shape[0] == 0:
            break
        if level > 64:
            raise RuntimeError("traversal exceeded 64 levels; corrupt tree?")
        idx = base + cur
        node_buf.append(flat.address[idx], alive, level)
        leaf_here = alive & flat.is_leaf[idx]
        if leaf_here.any():
            pos = np.flatnonzero(leaf_here)
            r, lane = np.divmod(pos, lanes)
            steps.reshape(-1)[row_ids[r] * lanes + lane] = level + 1
            leaf_node = idx.reshape(-1)[pos]
            leaf_sample = x_row.reshape(-1)[pos] // n_att
            if flat.n_groups > 1:
                # Composite (sample, class) index into the flat (n*K,)
                # accumulator — one bincount covers the grouped reduction.
                leaf_sample = leaf_sample * flat.n_groups + flat.group[leaf_node]
            leaf_idx_parts.append(leaf_sample)
            leaf_val_parts.append(flat.value[leaf_node].astype(np.float64))
        decide = alive & ~leaf_here
        if decide.any():
            # Selections are arithmetic (times a 0/1 mask): np.where with
            # an unpredictable mask costs several times more per lane.
            feat = flat.feature[idx] * decide
            x_idx = x_row + feat
            if s_row is not None:
                s_addr = (s_row + feat) * _ATT_BYTES
            else:
                s_addr = SAMPLE_BASE + x_idx * _ATT_BYTES
            samp_buf.append(s_addr, decide, level)
            vals = X_flat[x_idx]
            go_left = (vals < flat.threshold[idx]) ^ flat.flip[idx]
            if flat.cat_offset is not None:
                cat = decide & (flat.cat_offset[idx] >= 0)
                if cat.any():
                    cidx = idx[cat]
                    v = vals[cat].astype(np.float64)
                    code = np.where(
                        np.isfinite(v) & (v >= 0), v, -1.0
                    ).astype(np.int64)
                    word = code >> 5
                    valid = (code >= 0) & (
                        word < flat.cat_count[cidx].astype(np.int64)
                    )
                    slot = flat.cat_offset[cidx] + np.where(valid, word, 0)
                    bits = flat.cat_bits[slot].astype(np.int64)
                    member = valid & (((bits >> (code & 31)) & 1) == 1)
                    go_left[cat] = member ^ flat.flip[cidx]
            missing = np.isnan(vals)
            if missing.any():
                go_left = np.where(missing, flat.default_left[idx], go_left)
            # Finished lanes restart at their root; they stay masked.
            cur = flat.child[2 * idx + go_left] * decide
        alive = decide
        level += 1
    node_buf.flush_node(counters, level_stats, node_space, spec, flat.node_size)
    samp_buf.flush_sample(counters, sample_space, spec)
    if leaf_idx_parts:
        leaf_sum += np.bincount(
            np.concatenate(leaf_idx_parts),
            weights=np.concatenate(leaf_val_parts),
            minlength=leaf_sum.shape[0],
        )
    return steps


def _trace_tiles(
    flat: FlatForest,
    X: np.ndarray,
    n_rows: int,
    tile_rows,
    per_thread_steps: np.ndarray,
    counters: TrafficCounters,
    level_stats: LevelStats | None,
    spec: GPUSpec,
    node_space: str,
    sample_space: str,
    leaf_sum: np.ndarray,
) -> int:
    """Run ``n_rows`` warp rows through :func:`_traverse_chunk` in tiles
    of at most :data:`TILE_SLOTS` lanes; returns the node visits.

    ``tile_rows(r0, r1)`` builds warp rows ``r0..r1-1`` as ``(sample,
    tree, shared_row, thread_warp)``: the first three (rows, warp)
    matrices as :func:`_traverse_chunk` takes them, and the index of
    each row's warp in the ``(warps, warp)`` matrix ``per_thread_steps``
    that its lanes' steps are added to.

    Raises:
        ValueError: if ``X`` is not a matrix of ``flat.n_attributes``
            columns; the flat ``sample * n_att + feat`` gather would
            otherwise read other samples' attributes.
    """
    if X.ndim != 2 or X.shape[1] != flat.n_attributes:
        raise ValueError(
            f"X must be (n, {flat.n_attributes}) for this forest, got shape {X.shape}"
        )
    X_flat = np.ascontiguousarray(X).reshape(-1)
    per_tile = max(1, TILE_SLOTS // spec.warp_size)
    visits = 0
    for r0 in range(0, n_rows, per_tile):
        sample, tree, shared_row, thread_warp = tile_rows(r0, min(n_rows, r0 + per_tile))
        steps = _traverse_chunk(
            flat, X_flat, sample, tree, shared_row,
            counters, level_stats, spec, node_space, sample_space, leaf_sum,
        )
        visits += int(steps.sum())
        np.add.at(per_thread_steps, thread_warp, steps)
    return visits


def trace_tree_parallel(
    layout: ForestLayout,
    X: np.ndarray,
    sample_rows: np.ndarray,
    assignments: list[np.ndarray],
    spec: GPUSpec,
    node_space: str = "global",
    sample_space: str = "shared",
    shared_batch_rows: np.ndarray | None = None,
    collect_level_stats: bool = False,
    max_levels: int = 32,
) -> TraceResult:
    """Trace FIL's shared-data mapping for one thread block.

    Args:
        layout: forest layout (reorg or adaptive).
        X: full sample matrix (float32).
        sample_rows: row indices of the samples this block processes.
        assignments: per-thread arrays of layout tree positions (from
            :func:`repro.formats.tree_rearrange.round_robin_assignment`).
        spec: GPU model.
        node_space / sample_space: where nodes / samples are read from.
        shared_batch_rows: shared-memory row slot of each sample when
            samples are staged in shared memory (defaults to position in
            the batch).
        collect_level_stats: gather figure 2(a) per-level statistics.
        max_levels: level-stats capacity.

    The number of threads is ``len(assignments)`` (padded to a warp
    multiple); in round ``k`` thread ``t`` walks its ``k``-th tree.  The
    warp rows of every round are stacked into one row list, ordered by
    round, then sample, then thread warp; warps whose threads have no
    tree in a round are left out.
    """
    flat = flatten_layout(layout)
    warp = spec.warp_size
    n_threads = len(assignments)
    pad_threads = ((n_threads + warp - 1) // warp) * warp
    n_warps = pad_threads // warp
    n_rounds = max((a.shape[0] for a in assignments), default=0)
    counters = TrafficCounters()
    level_stats = LevelStats(max_levels) if collect_level_stats else None
    leaf_sum = np.zeros(X.shape[0] * flat.n_groups, dtype=np.float64)
    per_thread_steps = np.zeros((n_warps, warp), dtype=np.int64)
    sample_rows = np.asarray(sample_rows, dtype=np.int64)
    n = sample_rows.shape[0]
    if shared_batch_rows is None:
        shared_batch_rows = np.arange(n, dtype=np.int64)
    shared_batch_rows = np.asarray(shared_batch_rows, dtype=np.int64)
    # (round, warp, lane) tree positions, and the warps with work per round.
    assign = np.full((n_rounds, pad_threads), -1, dtype=np.int64)
    for t, assigned in enumerate(assignments):
        assign[: assigned.shape[0], t] = assigned
    assign = assign.reshape(n_rounds, n_warps, warp)
    busy = (assign >= 0).any(axis=2)
    pair_round, pair_warp = np.nonzero(busy)
    per_round = busy.sum(axis=1)
    pair_start = np.concatenate(([0], np.cumsum(per_round)))
    row_start = pair_start * n
    shared = sample_space == "shared"

    def tile_rows(r0: int, r1: int):
        r = np.arange(r0, r1, dtype=np.int64)
        k = np.searchsorted(row_start, r, side="right") - 1
        s, j = np.divmod(r - row_start[k], per_round[k])
        pair = pair_start[k] + j
        tree = assign[pair_round[pair], pair_warp[pair]]
        sample = np.repeat(sample_rows[s][:, None], warp, axis=1)
        srow = np.repeat(shared_batch_rows[s][:, None], warp, axis=1) if shared else None
        return sample, tree, srow, pair_warp[pair]

    with span(
        "gpusim.trace_tree_parallel",
        category="kernel",
        samples=n,
        threads=n_threads,
        rounds=n_rounds,
    ) as sp:
        visits = _trace_tiles(
            flat, X, int(row_start[-1]), tile_rows, per_thread_steps,
            counters, level_stats, spec, node_space, sample_space, leaf_sum,
        )
        sp.set(node_visits=visits)
    if flat.n_groups > 1:
        leaf_sum = leaf_sum.reshape(X.shape[0], flat.n_groups)
    return TraceResult(
        leaf_sum=leaf_sum,
        per_thread_steps=per_thread_steps.reshape(-1)[:n_threads],
        counters=counters,
        level_stats=level_stats,
        node_visits=visits,
    )


def trace_sample_parallel(
    layout: ForestLayout,
    X: np.ndarray,
    sample_rows: np.ndarray,
    tree_positions: np.ndarray,
    spec: GPUSpec,
    node_space: str = "global",
    sample_space: str = "global",
    collect_level_stats: bool = False,
    max_levels: int = 32,
) -> TraceResult:
    """Trace the one-sample-per-thread mapping.

    Every thread owns one sample from ``sample_rows`` and walks every tree
    in ``tree_positions`` (the block's tree set — the whole forest for the
    direct and shared-forest strategies, one part for splitting).  The
    warp rows of every tree are stacked into one row list, ordered by
    tree, then sample warp.
    """
    flat = flatten_layout(layout)
    sample_rows = np.asarray(sample_rows, dtype=np.int64)
    n = sample_rows.shape[0]
    warp = spec.warp_size
    pad = ((n + warp - 1) // warp) * warp
    padded = np.full(pad, -1, dtype=np.int64)
    padded[:n] = sample_rows
    grid = padded.reshape(-1, warp)
    valid = grid >= 0
    # Padding lanes read sample row 0 but stay idle (tree -1), so
    # leaf_sum is exact and pad threads take no steps.
    grid = np.maximum(grid, 0)
    n_warps = grid.shape[0]
    counters = TrafficCounters()
    level_stats = LevelStats(max_levels) if collect_level_stats else None
    leaf_sum = np.zeros(X.shape[0] * flat.n_groups, dtype=np.float64)
    per_thread_steps = np.zeros((n_warps, warp), dtype=np.int64)
    tree_positions = np.asarray(tree_positions, dtype=np.int64)
    shared = sample_space == "shared"

    def tile_rows(r0: int, r1: int):
        p, w = np.divmod(np.arange(r0, r1, dtype=np.int64), n_warps)
        tree = np.where(valid[w], tree_positions[p][:, None], np.int64(-1))
        sample = grid[w]
        return sample, tree, sample if shared else None, w

    with span(
        "gpusim.trace_sample_parallel",
        category="kernel",
        samples=n,
        trees=int(tree_positions.shape[0]),
    ) as sp:
        visits = _trace_tiles(
            flat, X, tree_positions.shape[0] * n_warps, tile_rows, per_thread_steps,
            counters, level_stats, spec, node_space, sample_space, leaf_sum,
        )
        sp.set(node_visits=visits)
    if flat.n_groups > 1:
        leaf_sum = leaf_sum.reshape(X.shape[0], flat.n_groups)
    return TraceResult(
        leaf_sum=leaf_sum,
        per_thread_steps=per_thread_steps.reshape(-1)[:n],
        counters=counters,
        level_stats=level_stats,
        node_visits=visits,
    )
