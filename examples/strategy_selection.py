"""Strategy selection: watch the performance models pick different
strategies as the workload changes.

Reproduces the insight of paper section 5.2 interactively: "No single
strategy can perform best in all datasets with different batch sizes,
datasets, and forests."  The script sweeps batch sizes on two contrasting
forests and prints, for each, what the models predict for every strategy
and which one the engine executes.

Run with::

    python examples/strategy_selection.py
"""

from __future__ import annotations

from repro import GPU_SPECS
from repro.core import TahoeConfig, convert_forest
from repro.perfmodel import measure_hardware_parameters, rank_strategies
from repro.trees import train_forest_for_spec


def sweep(dataset: str, scale: float, tree_scale: float) -> None:
    workload = train_forest_for_spec(dataset, scale=scale, tree_scale=tree_scale, seed=1)
    forest = workload.forest
    layout = convert_forest(forest, TahoeConfig())[0]
    spec = GPU_SPECS["P100"]
    hw = measure_hardware_parameters(spec)
    print(
        f"\n=== {dataset}: {forest.n_trees} trees, mean depth "
        f"{forest.mean_depth():.1f}, layout {layout.total_bytes} B "
        f"(shared capacity {spec.shared_mem_per_block} B) ==="
    )
    header = f"{'batch':>8} | " + " | ".join(
        f"{name:>24}" for name in
        ("shared_data", "direct", "shared_forest", "splitting_shared_forest")
    )
    print(header)
    for batch in (100, 1000, 10_000, 100_000):
        ranked = rank_strategies(layout, batch, spec, hw)
        by_name = {c.name: c for c in ranked}
        winner = ranked[0].name
        cells = []
        for name in ("shared_data", "direct", "shared_forest", "splitting_shared_forest"):
            t = by_name[name].predicted_time
            label = "N/A" if t == float("inf") else f"{t * 1e3:.3f} ms"
            if name == winner:
                label = f"*{label}*"
            cells.append(f"{label:>24}")
        print(f"{batch:>8} | " + " | ".join(cells))
    print("(* = selected; predictions are per batch on a simulated P100)")


def main() -> None:
    # A big ensemble of small trees: splitting-shared-forest territory at
    # scale, shared-data at small batches.
    sweep("Higgs", scale=0.004, tree_scale=0.05)
    # A small forest of small trees: fits in shared memory outright.
    sweep("letter", scale=0.3, tree_scale=0.2)


if __name__ == "__main__":
    main()
