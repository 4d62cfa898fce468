"""Figure 8 — contribution of the three techniques (paper section 7.2).

The paper applies (a) probability-based node rearrangement, (b)
similarity-based tree rearrangement, and (c) performance-model-guided
strategy selection cumulatively, attributing the speedup difference at
each step to that technique.  Observed patterns: (1) node rearrangement
contributes most for shallow-tree forests (datasets 5, 7, 10, 15 —
allstate, covtype, year, letter); (2) tree rearrangement contributes
most for many-tree forests (2, 3, 11, 14 — Higgs, SUSY, hepmass, aloi).
"""

from __future__ import annotations

import numpy as np

import common
from repro.core import FILEngine, TahoeConfig, convert_forest
from repro.strategies import SharedDataStrategy
from repro.core.fil import fil_block_size
from repro.core import TahoeEngine

SHALLOW_SETS = ["allstate", "covtype", "year", "letter"]
MANY_TREE_SETS = ["Higgs", "SUSY", "hepmass", "aloi"]


def run_fig8(datasets=None):
    """Cumulative speedup over FIL as each technique is enabled."""
    if datasets is None:
        datasets = common.DATASET_ORDER
    spec = common.bench_spec("P100")
    out = {}
    for name in datasets:
        forest = common.workload(name).forest
        X = common.inference_X(name, 1200)
        fil_time = FILEngine(forest, spec).predict(X).total_time
        tpb = fil_block_size(forest.n_trees, spec)

        def shared_data_time(layout):
            return SharedDataStrategy(threads_per_block=tpb).run(layout, X, spec).time

        # Stage a: node rearrangement only (same strategy, same tpb as FIL).
        t_a = shared_data_time(
            convert_forest(forest, TahoeConfig(tree_rearrangement=False))[0]
        )
        # Stage b: + tree rearrangement.
        t_b = shared_data_time(convert_forest(forest, TahoeConfig())[0])
        # Stage c: + model-guided strategy selection (the full engine).
        t_c = TahoeEngine(forest, spec).predict(X).total_time
        s_a, s_b, s_c = fil_time / t_a, fil_time / t_b, fil_time / t_c
        contrib = np.array([s_a - 1.0, s_b - s_a, s_c - s_b])
        contrib = np.maximum(contrib, 0.0)
        total = contrib.sum() if contrib.sum() > 0 else 1.0
        out[name] = {
            "speedups": (s_a, s_b, s_c),
            "shares": tuple(contrib / total),
        }
    return out


def test_fig8_technique_breakdown(benchmark):
    data = benchmark.pedantic(run_fig8, rounds=1, iterations=1)
    rows = []
    for name in common.DATASET_ORDER:
        s_a, s_b, s_c = data[name]["speedups"]
        p_a, p_b, p_c = data[name]["shares"]
        rows.append([name, s_a, s_b, s_c, f"{p_a:.0%}", f"{p_b:.0%}", f"{p_c:.0%}"])
    report = common.format_table(
        "Figure 8: cumulative speedup over FIL and per-technique share (P100)",
        ["dataset", "(a) node rearr.", "(a)+(b) tree rearr.", "(a)+(b)+(c) selection",
         "share a", "share b", "share c"],
        rows,
    )
    node_share_shallow = np.mean([data[n]["shares"][0] for n in SHALLOW_SETS])
    node_share_rest = np.mean(
        [data[n]["shares"][0] for n in common.DATASET_ORDER if n not in SHALLOW_SETS]
    )
    tree_share_many = np.mean([data[n]["shares"][1] for n in MANY_TREE_SETS])
    tree_share_rest = np.mean(
        [data[n]["shares"][1] for n in common.DATASET_ORDER if n not in MANY_TREE_SETS]
    )
    report += (
        f"\nnode-rearrangement share: shallow-tree forests {node_share_shallow:.0%} "
        f"vs others {node_share_rest:.0%} (paper: larger for shallow)\n"
        f"tree-rearrangement share: many-tree forests {tree_share_many:.0%} "
        f"vs others {tree_share_rest:.0%} (paper: larger for many-tree)\n"
    )
    common.write_result("fig8_breakdown", report)
    common.write_bench_report(
        "fig8_breakdown",
        {
            name: {
                "speedup_cumulative": list(data[name]["speedups"]),
                "technique_shares": list(data[name]["shares"]),
            }
            for name in common.DATASET_ORDER
        },
        scenario="fig8/all_datasets/P100",
    )
    # Full pipeline must beat FIL everywhere on average.
    final = [data[n]["speedups"][2] for n in common.DATASET_ORDER]
    assert np.exp(np.mean(np.log(final))) > 1.0
