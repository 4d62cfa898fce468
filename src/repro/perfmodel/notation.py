"""Model notation (paper table 1).

Three parameter groups feed the performance models: sample parameters,
forest parameters, and hardware parameters.  ``workload_params`` extracts
the first two from a laid-out forest and a batch description, mirroring
the "online part" of Algorithm 1 (line 5: "collect those sample and
forest parameters listed in Table 1").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.formats.layout import ForestLayout

__all__ = ["SampleParams", "ForestParams", "HardwareParams", "workload_params"]

_ATT_BYTES = 4


@dataclass(frozen=True)
class SampleParams:
    """Sample-side quantities.

    Attributes:
        s_sample: bytes of one sample (``S_sample``).
        n_batch: samples per batch (``N_batch``).
    """

    s_sample: int
    n_batch: int


@dataclass(frozen=True)
class ForestParams:
    """Forest-side quantities.

    Attributes:
        d_tree: average tree depth (``D_tree``) — the expected number of
            node visits on a root→leaf walk.
        n_trees: trees in the forest (``N_trees``).
        s_node: bytes per stored node (``S_node``).
        s_att: bytes per attribute value (``S_att``).
        n_nodes: average allocated nodes per tree (``N_nodes``),
            including layout holes — what actually gets staged to shared
            memory.
        s_forest: total laid-out forest bytes (``S_forest``).
        coa_rate: measured coalescing rate of forest reads under this
            layout (requested / fetched bytes).  Algorithm 1 line 2 lists
            ``COA_rate`` among the trained-forest inputs; the engine
            probes it on the first batch with shared-data's tree-parallel
            walk.  Defaults to the paper's assumption 1 ("half of the
            bandwidth"), i.e. 0.5.
        coa_rate_direct: the same rate under the direct strategy's
            sample-parallel walk, measured by the same probe.  A warp
            whose lanes walk one tree together shares the upper levels'
            cache lines, so this rate is far higher than ``coa_rate``
            on deep forests.  Defaults to 0.5 as well.
    """

    d_tree: float
    n_trees: int
    s_node: int
    s_att: int
    n_nodes: float
    s_forest: int
    coa_rate: float = 0.5
    coa_rate_direct: float = 0.5


@dataclass(frozen=True)
class HardwareParams:
    """Hardware quantities measured by the offline microbenchmarks.

    Attributes:
        bw_r_smem / bw_w_smem: shared-memory read/write bandwidth, B/s.
        bw_r_gmem_coa: global read bandwidth under fully coalesced
            accesses, B/s.
        bw_r_gmem_ncoa: global read bandwidth under fully random
            accesses, B/s.
        bw_r_gmem_coa_hot / bw_r_gmem_ncoa_hot: the same two patterns when
            the working set is L2-resident (measured with a second-pass
            microbenchmark).
        l2_capacity: L2 size in bytes (device query).
        num_threads: threads per block the engine launches.
        num_thrd_blocks: concurrently resident thread blocks.
        sm_count: streaming multiprocessors (device query).
        resident_threads_per_sm: occupancy thread budget per SM (device
            query); drives the block-residency calculus below.
        b_rate: block-reduction seconds per thread (``B_rate``).
        g_rate: global-reduction seconds per block (``G_rate``).
        shared_capacity: usable shared memory per block, bytes.
        launch_latency: per-kernel launch cost, seconds.
        memory_latency: global load-to-use latency (pointer-chase
            microbenchmark), seconds.
        bw_knee_threads: resident threads needed to reach peak global
            bandwidth (measured from the bandwidth-vs-threads curve).
        bw_floor: fraction of peak global bandwidth a single warp sees.
        smem_block_fraction: fraction of aggregate shared bandwidth one
            resident block sees (1 / number of SMs, as measured).
    """

    bw_r_smem: float
    bw_w_smem: float
    bw_r_gmem_coa: float
    bw_r_gmem_ncoa: float
    bw_r_gmem_coa_hot: float
    bw_r_gmem_ncoa_hot: float
    l2_capacity: int
    num_threads: int
    num_thrd_blocks: int
    sm_count: int
    resident_threads_per_sm: int
    b_rate: float
    g_rate: float
    shared_capacity: int
    launch_latency: float
    memory_latency: float
    bw_knee_threads: float
    bw_floor: float
    smem_block_fraction: float

    def concurrent_blocks(self, threads_per_block: int, shared_bytes: int = 0) -> int:
        """Resident-block capacity for a block shape (mirrors the device's
        occupancy rules: 32 block slots, thread budget, shared-memory
        pool per SM)."""
        per_sm = min(32, self.resident_threads_per_sm // max(threads_per_block, 1))
        if shared_bytes > 0:
            per_sm = min(per_sm, max(1, self.shared_capacity // shared_bytes))
        return self.sm_count * max(1, per_sm)

    def gmem_utilization(self, n_threads: int) -> float:
        """Effective global-bandwidth fraction for a launch size."""
        if n_threads <= 0:
            return self.bw_floor
        return min(1.0, max(self.bw_floor, n_threads / self.bw_knee_threads))

    def smem_utilization(self, n_blocks: int) -> float:
        """Effective shared-bandwidth fraction for a launch size."""
        return min(1.0, max(n_blocks, 1) * self.smem_block_fraction)


def cached_tree_depths(layout: ForestLayout) -> np.ndarray:
    """Per-tree depths from the layout's node block, memoised."""
    depths = layout.metadata.get("_tree_depths")
    if depths is None:
        depths = layout.block.tree_depths().astype(np.float64)
        layout.metadata["_tree_depths"] = depths
    return depths


def workload_params(layout: ForestLayout, n_batch: int) -> tuple[SampleParams, ForestParams]:
    """Collect Table 1's sample and forest parameters for a layout."""
    forest = layout.forest
    depths = cached_tree_depths(layout)
    sample = SampleParams(
        s_sample=forest.n_attributes * _ATT_BYTES,
        n_batch=int(n_batch),
    )
    fp = ForestParams(
        d_tree=float(depths.mean() + 1.0),  # visits per walk = depth + 1 nodes
        n_trees=forest.n_trees,
        s_node=layout.node_size,
        s_att=_ATT_BYTES,
        n_nodes=layout.total_bytes / (forest.n_trees * layout.node_size),
        s_forest=layout.total_bytes,
        coa_rate=float(layout.metadata.get("coa_rate", 0.5)),
        coa_rate_direct=float(layout.metadata.get("coa_rate_direct", 0.5)),
    )
    return sample, fp
