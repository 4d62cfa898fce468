"""Structure analysis: how much can Tahoe help *this* forest?

Profiles several forests with :mod:`repro.trees.analysis` and relates the
scores to what the engine actually does with each: hot-path skew drives
node rearrangement, work dispersion drives tree rearrangement, and the
forest-size-to-shared-memory ratio drives strategy choice.

Run with::

    python examples/structure_analysis.py
"""

from __future__ import annotations

from repro import GPU_SPECS, TahoeEngine
from repro.core import TahoeConfig, convert_forest
from repro.trees import train_forest_for_spec
from repro.trees.analysis import structure_profile


def profile(name: str, scale: float, tree_scale: float) -> None:
    workload = train_forest_for_spec(name, scale=scale, tree_scale=tree_scale, seed=6)
    forest = workload.forest
    info = structure_profile(forest)
    layout = convert_forest(forest, TahoeConfig())[0]
    spec = GPU_SPECS["P100"].scaled(compute=1 / 16)
    engine = TahoeEngine(forest, spec)
    strategy = engine.select_strategy_name(workload.split.n_test)
    print(f"\n=== {name} ===")
    print(
        f"  {info['n_trees']} trees, {info['n_nodes']} nodes, depths "
        f"{info['depth_min']}-{info['depth_max']} (mean {info['depth_mean']:.1f})"
    )
    hist = " ".join(f"d{d}:{c}" for d, c in info["depth_histogram"].items())
    print(f"  depth histogram: {hist}")
    print(
        f"  hot-path skew: {info['hot_path_skew']:.2f} "
        f"-> node rearrangement benefit: {info['node_rearrangement_benefit']}"
    )
    print(
        f"  work dispersion: {info['work_dispersion']:.2f} "
        f"-> tree rearrangement benefit: {info['tree_rearrangement_benefit']}"
    )
    print(
        f"  adaptive layout: {layout.total_bytes} B "
        f"(shared capacity {spec.shared_mem_per_block} B) "
        f"-> engine picks: {strategy}"
    )


def main() -> None:
    profile("Higgs", scale=0.008, tree_scale=0.05)   # many trees, mixed depth
    profile("covtype", scale=0.005, tree_scale=0.1)  # shallow trees
    profile("letter", scale=0.3, tree_scale=0.2)     # tiny forest, fits shared


if __name__ == "__main__":
    main()
