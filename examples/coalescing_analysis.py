"""Coalescing analysis: reproduce the paper's motivating figure 2(a).

Runs the same forest under FIL's reorg format and Tahoe's adaptive
format, collecting the per-tree-level memory statistics the paper plots:
the mean byte distance between addresses issued by adjacent warp lanes,
and the load efficiency (requested / fetched bytes) of forest reads.

Run with::

    python examples/coalescing_analysis.py
"""

from __future__ import annotations

import numpy as np

from repro import GPU_SPECS
from repro.core import TahoeConfig, convert_forest
from repro.formats import build_reorg_layout, round_robin_assignment
from repro.gpusim import trace_tree_parallel
from repro.trees import train_forest_for_spec


def analyse(layout, X, spec, label: str) -> None:
    assignment = round_robin_assignment(layout.forest.n_trees, 32)
    trace = trace_tree_parallel(
        layout, X, np.arange(X.shape[0]), assignment, spec,
        collect_level_stats=True,
    )
    distances = trace.level_stats.mean_distance()
    efficiency = trace.level_stats.efficiency()
    valid = ~np.isnan(distances)
    print(f"\n--- {label} ---")
    print(f"{'level':>5} {'adjacent-lane distance':>24} {'load efficiency':>16}")
    for level in np.nonzero(valid)[0]:
        bar = "#" * int(efficiency[level] * 40)
        print(
            f"{level:>5} {distances[level]:>22.0f} B "
            f"{efficiency[level]:>15.1%} {bar}"
        )
    overall = trace.counters.forest_global.load_efficiency
    print(f"overall forest-read efficiency: {overall:.1%}")


def main() -> None:
    # The paper's motivating setup: a Higgs forest of 120 trees.
    workload = train_forest_for_spec(
        "Higgs", scale=0.004, tree_scale=0.04, max_depth=10, seed=3
    )
    forest = workload.forest
    X = workload.split.test.X[:300]
    spec = GPU_SPECS["P100"]
    print(
        f"forest: {forest.n_trees} trees, depths "
        f"{forest.tree_depths().min()}-{forest.tree_depths().max()}"
    )
    analyse(build_reorg_layout(forest), X, spec, "FIL reorg format")
    analyse(
        convert_forest(forest, TahoeConfig(variable_width=False))[0], X, spec,
        "Tahoe adaptive format (fixed-width records, coalescing isolated)",
    )
    print(
        "\npaper (figure 2a): under the reorg format the adjacent-lane\n"
        "distance grows with depth and efficiency collapses to ~13.7%;\n"
        "the adaptive format keeps hot paths adjacent much deeper."
    )


if __name__ == "__main__":
    main()
