"""Equations 1–7: predicted batch time per strategy.

Each ``predict_*`` mirrors the corresponding model of paper section 6.1:
the same T_SMEM / T_GMEM / T_B_REDU / T_G_REDU decomposition (equation 1)
with the same traffic terms, evaluated with microbenchmarked hardware
parameters.  Two documented refinements keep the models predictive on the
simulator (both are information the engine legitimately has):

* bandwidth terms are scaled by the launch-size utilisation curves the
  microbenchmarks measured (the paper's single-point measurement is the
  main source of its three mispredictions; ours mispredicts for the same
  reason when utilisation estimates are off), and
* the shared-data model multiplies its traversal term by the expected
  load-imbalance stretch computed from the layout's tree depths (the
  paper instead assumes "little load imbalance ... because of
  similarity-based tree rearrangement", which holds for Tahoe layouts —
  for those the stretch is close to 1 and the term is a no-op).

The paper's "half bandwidth" rule for forest reads (assumption 1) is
generalised to the measured per-layout ``COA_rate`` that Algorithm 1
lists among its forest inputs (0.5 when no probe has run).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.formats.layout import ForestLayout
from repro.formats.tree_rearrange import round_robin_assignment
from repro.perfmodel.notation import (
    ForestParams,
    HardwareParams,
    SampleParams,
    cached_tree_depths,
)

__all__ = [
    "TERMS",
    "PredictedTime",
    "choose_shared_data_tpb",
    "predict_shared_data",
    "predict_direct",
    "predict_shared_forest",
    "predict_splitting_shared_forest",
    "SplitGeometry",
    "splitting_geometry",
    "predict_explain_direct",
    "predict_explain_shared_paths",
    "expected_imbalance",
    "cached_part_work",
]

_WARP = 32
_TPB_CAP = 256


def _tree_parallel_tpb(n_trees: int, target_rounds: int = 4) -> int:
    """Balance-oriented block-size candidate for the shared-data model.

    Sized so each thread gets at least ``target_rounds`` trees when the
    forest allows it: with too few round-robin rounds, the +-1-tree
    remainder dominates per-thread load variance no matter how trees are
    ordered.  One of the candidates ``choose_shared_data_tpb`` evaluates.
    """
    tpb = min(_TPB_CAP, max(_WARP, n_trees // target_rounds))
    return (tpb // _WARP) * _WARP


#: The equation-1 terms a prediction sums, plus ``t_chain``.
TERMS = ("t_smem", "t_gmem", "t_block_reduce", "t_global_reduce", "t_launch", "t_chain")


@dataclass
class PredictedTime:
    """Model output for one strategy on one batch (seconds, per batch).

    ``t_chain`` is the latency roofline's dependent-load time.  Where it
    binds, it is already folded into ``t_smem`` / ``t_gmem``, so it is
    not part of ``total``; it is kept so calibration can tell a latency
    residual from a bandwidth one.
    """

    strategy: str
    t_smem: float
    t_gmem: float
    t_block_reduce: float
    t_global_reduce: float
    t_launch: float
    applicable: bool = True
    note: str = ""
    t_chain: float = 0.0

    def terms(self) -> dict[str, float]:
        """The predicted time per :data:`TERMS` entry."""
        return {name: float(getattr(self, name)) for name in TERMS}

    @property
    def total(self) -> float:
        if not self.applicable:
            return math.inf
        return (
            self.t_smem + self.t_gmem + self.t_block_reduce + self.t_global_reduce + self.t_launch
        )


def _attr_read_time(
    sample: SampleParams, fp: ForestParams, hw: HardwareParams, util: float
) -> float:
    """Per-sample time for uncoalesced attribute reads from global.

    The first touch of each sample row comes from DRAM; every later read
    of the row (one per tree level) is L2-resident thanks to temporal
    locality.
    """
    walk = fp.d_tree * fp.n_trees
    total = walk * fp.s_att
    first = min(total, sample.s_sample)
    return first / (hw.bw_r_gmem_ncoa * util) + (total - first) / (
        hw.bw_r_gmem_ncoa_hot * util
    )


def expected_imbalance(layout: ForestLayout, threads_per_block: int) -> float:
    """Expected max/mean per-thread work under round-robin assignment.

    Per-tree work per sample is proportional to (depth + 1); the layout
    fixes the assignment, so the stretch is deterministic, and it is
    memoised on the layout per block size.
    """
    cache = layout.metadata.setdefault("_imbalance", {})
    if threads_per_block not in cache:
        work = cached_tree_depths(layout) + 1.0
        assignment = round_robin_assignment(layout.forest.n_trees, threads_per_block)
        per_thread = np.array([work[a].sum() for a in assignment])
        mean = per_thread.mean()
        cache[threads_per_block] = 1.0 if mean <= 0 else max(1.0, float(per_thread.max() / mean))
    return cache[threads_per_block]


def cached_part_work(layout: ForestLayout, capacity: int) -> np.ndarray:
    """Per-walk work (depth + 1, summed over its trees) of each part of
    ``cached_partition(layout, capacity)``.

    Memoised on the layout per capacity, beside the partition and its
    part bytes, so ranking strategies per batch pays for it once.

    Raises:
        PartitionError: as :func:`~repro.formats.partition.cached_partition`.
    """
    from repro.formats.partition import cached_partition

    partition = cached_partition(layout, capacity)
    cache = layout.metadata.setdefault("_part_work", {})
    if capacity not in cache:
        work = cached_tree_depths(layout) + 1.0
        cache[capacity] = np.array([work[p].sum() for p in partition])
    return cache[capacity]


def choose_shared_data_tpb(
    sample: SampleParams,
    fp: ForestParams,
    hw: HardwareParams,
    layout: ForestLayout | None = None,
) -> int:
    """Model-guided block size for the shared-data strategy.

    A narrow block (many round-robin rounds) balances per-thread work but
    lengthens each thread's dependent-load chain; a wide block does the
    opposite.  Which wins depends on whether the launch is bandwidth- or
    latency-bound, so the engine evaluates its own model at a few warp
    multiples and keeps the fastest (Algorithm 1 line 14's "set the
    number of threads", made quantitative).
    """
    candidates = {_tree_parallel_tpb(fp.n_trees)}
    wide = min(_TPB_CAP, ((min(fp.n_trees, _TPB_CAP) + _WARP - 1) // _WARP) * _WARP)
    candidates.update({wide, max(_WARP, wide // 2), max(_WARP, wide // 4)})
    best_tpb, best_time = None, math.inf
    for tpb in sorted(candidates):
        t = predict_shared_data(sample, fp, hw, layout=layout, tpb=tpb).total
        if t < best_time:
            best_tpb, best_time = tpb, t
    return best_tpb


def predict_shared_data(
    sample: SampleParams,
    fp: ForestParams,
    hw: HardwareParams,
    layout: ForestLayout | None = None,
    tpb: int | None = None,
) -> PredictedTime:
    """Equation 4: samples in shared memory, block reduction per sample."""
    n = sample.n_batch
    if tpb is None:
        tpb = choose_shared_data_tpb(sample, fp, hw, layout)
    active = min(tpb, fp.n_trees)
    sample_fits = sample.s_sample <= hw.shared_capacity
    s_cap = max(1, hw.shared_capacity // sample.s_sample)
    if sample_fits:
        # Mirror the strategy's occupancy-maximising stage size.
        k_star = max(
            1,
            min(
                32,
                hw.resident_threads_per_sm // max(tpb, 1),
                hw.shared_capacity // sample.s_sample,
            ),
        )
        smem_cap = max(1, hw.shared_capacity // (sample.s_sample * k_star))
        spread = max(1, math.ceil(n / (hw.sm_count * k_star)))
        s_cap = max(1, min(s_cap, smem_cap, spread))
    n_blocks = max(1, math.ceil(n / s_cap))
    util = hw.gmem_utilization(n_blocks * active)
    smem_util = hw.smem_utilization(n_blocks)
    walk = fp.d_tree * fp.n_trees
    if sample_fits:
        t_smem_s = (
            sample.s_sample / (hw.bw_w_smem * smem_util)
            + walk * fp.s_att / (hw.bw_r_smem * smem_util)
        )
        t_gmem_s = sample.s_sample / (hw.bw_r_gmem_coa * util)
    else:
        t_smem_s = 0.0
        t_gmem_s = walk * fp.s_att / (hw.bw_r_gmem_ncoa * util)
    # Forest reads at the layout's measured coalescing rate (paper
    # assumption 1 hard-codes 1/2; Algorithm 1 supplies COA_rate), served
    # from L2 when the laid-out image fits.
    bw_forest = (
        hw.bw_r_gmem_coa_hot if fp.s_forest <= hw.l2_capacity else hw.bw_r_gmem_coa
    )
    t_gmem_s += walk * fp.s_node / (bw_forest * util * fp.coa_rate)
    stretch = expected_imbalance(layout, tpb) if layout is not None else 1.0
    block_smem = s_cap * sample.s_sample if sample_fits else 0
    resident = hw.concurrent_blocks(tpb, block_smem)
    reduce_concurrency = max(1, min(n_blocks, resident))
    t_reduce = n * hw.b_rate * tpb / reduce_concurrency
    # Latency roofline: the busiest thread walks ceil(trees/active) trees
    # per sample for its block's share of the batch.
    rounds = math.ceil(fp.n_trees / active)
    chain = (n / reduce_concurrency) * rounds * fp.d_tree
    t_bandwidth = n * (t_smem_s + t_gmem_s) * stretch
    t_chain = chain * hw.memory_latency
    scale = max(t_bandwidth, t_chain) / t_bandwidth if t_bandwidth > 0 else 1.0
    return PredictedTime(
        strategy="shared_data",
        t_smem=n * t_smem_s * stretch * scale,
        t_gmem=n * t_gmem_s * stretch * scale,
        t_block_reduce=t_reduce,
        t_global_reduce=0.0,
        t_launch=hw.launch_latency,
        t_chain=t_chain,
    )


def predict_direct(
    sample: SampleParams, fp: ForestParams, hw: HardwareParams
) -> PredictedTime:
    """Equation 5: everything in global memory, reduction-free."""
    n = sample.n_batch
    util = hw.gmem_utilization(n)
    walk = fp.d_tree * fp.n_trees
    bw_forest = (
        hw.bw_r_gmem_coa_hot if fp.s_forest <= hw.l2_capacity else hw.bw_r_gmem_coa
    )
    # Forest reads at the rate the sample-parallel walk coalesces to:
    # a warp's lanes share the upper levels' cache lines of each tree.
    t_gmem_s = (
        walk * fp.s_node / (bw_forest * util * fp.coa_rate_direct)
        + _attr_read_time(sample, fp, hw, util)
    )
    n_blocks = max(1, math.ceil(n / _TPB_CAP))
    waves = math.ceil(n_blocks / hw.concurrent_blocks(_TPB_CAP))
    t_chain = walk * waves * hw.memory_latency
    t_gmem = max(n * t_gmem_s, t_chain)
    return PredictedTime(
        strategy="direct",
        t_smem=0.0,
        t_gmem=t_gmem,
        t_block_reduce=0.0,
        t_global_reduce=0.0,
        t_launch=hw.launch_latency,
        t_chain=t_chain,
    )


def predict_shared_forest(
    sample: SampleParams, fp: ForestParams, hw: HardwareParams
) -> PredictedTime:
    """Equation 6: whole forest in shared memory, reduction-free."""
    n = sample.n_batch
    if fp.s_forest > hw.shared_capacity:
        return PredictedTime(
            strategy="shared_forest",
            t_smem=0.0,
            t_gmem=0.0,
            t_block_reduce=0.0,
            t_global_reduce=0.0,
            t_launch=0.0,
            applicable=False,
            note=f"forest {fp.s_forest} B > shared {hw.shared_capacity} B",
        )
    tpb = _TPB_CAP
    n_blocks = max(1, math.ceil(n / tpb))
    util = hw.gmem_utilization(n)
    smem_util = hw.smem_utilization(n_blocks)
    walk = fp.d_tree * fp.n_trees
    t_smem_s = walk * fp.s_node / (hw.bw_r_smem * smem_util)
    t_gmem_s = _attr_read_time(sample, fp, hw, util)
    waves = math.ceil(n_blocks / hw.concurrent_blocks(tpb, fp.s_forest))
    t_chain = walk * waves * hw.memory_latency
    t_bandwidth = n * (t_smem_s + t_gmem_s)
    scale = max(t_bandwidth, t_chain) / t_bandwidth if t_bandwidth > 0 else 1.0
    return PredictedTime(
        strategy="shared_forest",
        t_smem=n * t_smem_s * scale,
        t_gmem=n * t_gmem_s * scale,
        t_block_reduce=0.0,
        t_global_reduce=0.0,
        t_launch=hw.launch_latency,
        t_chain=t_chain,
    )


def _explain_attr_read_time(ps, hw: HardwareParams, util: float) -> float:
    """Per-sample attribute-gather time for the explain kernel.

    Every edge test reads one attribute value (uncoalesced, like the
    direct strategy's gathers); after the row's first touch the reads
    are L2-resident.
    """
    total = ps.n_edges * 4
    first = min(total, ps.n_features * 4)
    return first / (hw.bw_r_gmem_ncoa * util) + (total - first) / (
        hw.bw_r_gmem_ncoa_hot * util
    )


def predict_explain_direct(n_batch: int, ps, hw: HardwareParams) -> PredictedTime:
    """Explain analogue of equation 5: path image streamed from global.

    Sample-per-thread warps process the path image in lockstep, so each
    edge record is fetched once per warp (broadcast) — the per-sample
    record traffic is the image divided across the warp.  Attribute
    gathers and the dense attribution write-back pay full per-sample
    cost, and the O(d²) recurrences enter through the latency roofline.
    """
    n = n_batch
    util = hw.gmem_utilization(n)
    rec_bytes = ps.n_edges * ps.EDGE_BYTES
    bw_rec = (
        hw.bw_r_gmem_coa_hot if ps.image_bytes <= hw.l2_capacity else hw.bw_r_gmem_coa
    )
    t_gmem_s = (
        (rec_bytes / _WARP) / (bw_rec * util)
        + _explain_attr_read_time(ps, hw, util)
        + ps.n_features * ps.n_classes * 8 / (hw.bw_r_gmem_coa * util)
    )
    n_blocks = max(1, math.ceil(n / _TPB_CAP))
    waves = math.ceil(n_blocks / hw.concurrent_blocks(_TPB_CAP))
    steps = ps.n_edges + 2 * ps.unique_depth_squares
    t_chain = steps * waves * hw.memory_latency
    return PredictedTime(
        strategy="explain_direct",
        t_smem=0.0,
        t_gmem=max(n * t_gmem_s, t_chain),
        t_block_reduce=0.0,
        t_global_reduce=0.0,
        t_launch=hw.launch_latency,
        t_chain=t_chain,
    )


def predict_explain_shared_paths(n_batch: int, ps, hw: HardwareParams) -> PredictedTime:
    """Explain analogue of equation 6: path image staged to shared memory.

    One coalesced staging pass per block amortises the image over the
    block's samples; edge-record reads are then served at shared-memory
    bandwidth.  Inapplicable when the image exceeds shared capacity.
    """
    n = n_batch
    if ps.image_bytes > hw.shared_capacity:
        return PredictedTime(
            strategy="explain_shared_paths",
            t_smem=0.0,
            t_gmem=0.0,
            t_block_reduce=0.0,
            t_global_reduce=0.0,
            t_launch=0.0,
            applicable=False,
            note=f"path image {ps.image_bytes} B > shared {hw.shared_capacity} B",
        )
    tpb = _TPB_CAP
    n_blocks = max(1, math.ceil(n / tpb))
    util = hw.gmem_utilization(n)
    smem_util = hw.smem_utilization(n_blocks)
    t_smem_s = ps.n_edges * ps.EDGE_BYTES / (hw.bw_r_smem * smem_util)
    t_gmem_s = _explain_attr_read_time(ps, hw, util) + ps.n_features * ps.n_classes * 8 / (
        hw.bw_r_gmem_coa * util
    )
    t_stage_gmem = n_blocks * ps.image_bytes / (hw.bw_r_gmem_coa * util)
    t_stage_smem = n_blocks * ps.image_bytes / (hw.bw_w_smem * smem_util)
    waves = math.ceil(n_blocks / hw.concurrent_blocks(tpb, ps.image_bytes))
    steps = ps.n_edges + 2 * ps.unique_depth_squares
    t_chain = steps * waves * hw.memory_latency
    t_bandwidth = n * (t_smem_s + t_gmem_s)
    scale = max(t_bandwidth, t_chain) / t_bandwidth if t_bandwidth > 0 else 1.0
    return PredictedTime(
        strategy="explain_shared_paths",
        t_smem=n * t_smem_s * scale + t_stage_smem,
        t_gmem=n * t_gmem_s * scale + t_stage_gmem,
        t_block_reduce=0.0,
        t_global_reduce=0.0,
        t_launch=hw.launch_latency,
        t_chain=t_chain,
    )


@dataclass(frozen=True)
class SplitGeometry:
    """How the splitting strategy lays a forest over thread blocks.

    Attributes:
        parts: part-blocks ``P``.
        stretch: the heaviest part's expected work over the mean part's.
        waves: rounds of resident blocks needed to run all ``P``.
    """

    parts: int
    stretch: float
    waves: int


def splitting_geometry(
    fp: ForestParams,
    hw: HardwareParams,
    layout: ForestLayout | None = None,
    tpb: int = _TPB_CAP,
) -> SplitGeometry:
    """Part count, part imbalance and wave count of the splitting strategy.

    With a layout available, the actual greedy partition supplies the
    part count and the per-part work imbalance (parts with more trees
    gate the kernel), and residency follows the bytes the parts really
    stage, as the strategy sizes it.  Otherwise P is estimated as
    ``ceil(S_forest / capacity)`` with every part filling shared memory.
    """
    parts = max(1, math.ceil(fp.s_forest / hw.shared_capacity))
    stretch = 1.0
    block_smem = hw.shared_capacity
    if layout is not None:
        from repro.formats.partition import (
            PartitionError,
            cached_part_bytes,
            cached_partition,
        )

        try:
            partition = cached_partition(layout, hw.shared_capacity)
            part_bytes = cached_part_bytes(layout, hw.shared_capacity)
            part_work = cached_part_work(layout, hw.shared_capacity)
        except PartitionError:
            partition = None
        if partition:
            parts = len(partition)
            block_smem = min(hw.shared_capacity, max(int(part_bytes.sum()) // parts, 1))
            mean = part_work.mean()
            if mean > 0:
                stretch = max(1.0, float(part_work.max() / mean))
    waves = math.ceil(parts / hw.concurrent_blocks(tpb, block_smem))
    return SplitGeometry(parts=parts, stretch=stretch, waves=waves)


def predict_splitting_shared_forest(
    sample: SampleParams,
    fp: ForestParams,
    hw: HardwareParams,
    layout: ForestLayout | None = None,
) -> PredictedTime:
    """Equation 7: forest split over P blocks, one global reduction/batch.

    P, the part imbalance and the wave count come from
    :func:`splitting_geometry`.
    """
    n = sample.n_batch
    tpb = _TPB_CAP
    geometry = splitting_geometry(fp, hw, layout, tpb)
    p_parts, part_stretch = geometry.parts, geometry.stretch
    n_threads = p_parts * tpb
    util = hw.gmem_utilization(max(n_threads, min(n, n_threads)))
    smem_util = hw.smem_utilization(p_parts)
    walk = fp.d_tree * fp.n_trees
    t_smem_s = walk * fp.s_node / (hw.bw_r_smem * smem_util)
    t_gmem_s = _attr_read_time(sample, fp, hw, util)
    # Staging the parts — read from global (coalesced), write to shared —
    # happens once per batch: the 1/N_batch amortisation of equation 7.
    t_g_redu = hw.g_rate * p_parts
    # Each part-block's threads loop over the batch: chain per thread is
    # (samples per thread) x walk over that part's trees.  Small batches
    # leave a +-1-sample remainder across the block's threads; the busiest
    # thread sets the pace.
    samples_per_thread = math.ceil(n / tpb)
    remainder_stretch = samples_per_thread * tpb / n if n else 1.0
    chain = (
        samples_per_thread
        * fp.d_tree
        * (fp.n_trees / p_parts)
        * geometry.waves
        * part_stretch
    )
    t_chain = chain * hw.memory_latency
    t_flat = n * (t_smem_s + t_gmem_s)
    t_bandwidth = t_flat * remainder_stretch * part_stretch
    # scale maps the un-stretched per-sample terms onto the roofline total.
    scale = max(t_bandwidth, t_chain) / t_flat if t_flat > 0 else 1.0
    return PredictedTime(
        strategy="splitting_shared_forest",
        t_smem=n * t_smem_s * scale + fp.s_forest / (hw.bw_w_smem * smem_util),
        t_gmem=n * t_gmem_s * scale + fp.s_forest / (hw.bw_r_gmem_coa * util),
        t_block_reduce=0.0,
        t_global_reduce=t_g_redu,
        t_launch=hw.launch_latency,
        t_chain=t_chain,
        note=f"P={p_parts}",
    )
