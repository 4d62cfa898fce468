"""Section 7.4 — overhead analysis.

The paper quantifies Tahoe's conversion costs:

* the whole CPU part takes 28-57x one inference; its five stages take
  8-12x, 1-4x, 6-13x, 1-5x and 11-15x one inference respectively,
* SimHash+LSH similarity detection beats pairwise comparison by >37x
  (19 minutes for 3 000 trees with pairwise),
* the performance-model evaluation (~90 flops) costs an order of
  magnitude less than one inference,
* the adaptive format is 23.6% smaller than the original.
"""

from __future__ import annotations

from functools import partial

import numpy as np

import common
from repro.core import TahoeEngine
from repro.formats import build_reorg_layout, similarity_tree_order
from repro.formats.node_rearrange import rearrange_forest_nodes
from repro.perfmodel import measure_hardware_parameters, rank_strategies


def run_conversion_overhead(dataset="Higgs"):
    forest = common.workload(dataset).forest
    spec = common.bench_spec("P100")
    engine = TahoeEngine(forest, spec)
    stats = engine.conversion_stats
    return {
        "stages": {
            "fetch probabilities": stats.t_fetch_probabilities,
            "node rearrangement": stats.t_node_rearrangement,
            "similarity detection": stats.t_similarity_detection,
            "format conversion": stats.t_format_conversion,
            "copy to GPU": stats.t_copy_to_gpu,
        },
        "total": stats.total,
        "report": engine.build_report(dataset=dataset),
    }


def run_similarity_comparison(dataset="aloi", repeats=3):
    """SimHash+LSH vs pairwise comparison wall-clock (median and IQR)."""
    forest = rearrange_forest_nodes(common.workload(dataset).forest)
    out = {"n_trees": forest.n_trees, "repeats": repeats}
    for method in ("lsh", "pairwise"):
        out[method] = common.measure(partial(similarity_tree_order, forest, method=method), repeats)
    return out


def run_model_evaluation_cost(dataset="Higgs", repeats=200):
    """One ``rank_strategies`` call's wall-clock (median and IQR)."""
    layout = common.adaptive_layout(dataset)
    spec = common.bench_spec("P100")
    hw = measure_hardware_parameters(spec)
    rank_strategies(layout, 1000, spec, hw)  # warm caches
    return common.measure(lambda: rank_strategies(layout, 1000, spec, hw), repeats)


def run_memory_saving():
    savings = []
    for name in common.DATASET_ORDER:
        forest = common.workload(name).forest
        reorg = build_reorg_layout(forest).total_bytes
        adaptive = common.adaptive_layout(name).total_bytes
        savings.append((name, 1 - adaptive / reorg))
    return savings


def test_sec74_conversion_stages(benchmark):
    data = benchmark.pedantic(run_conversion_overhead, rounds=1, iterations=1)
    rows = [[stage, f"{seconds*1e3:.2f} ms"] for stage, seconds in data["stages"].items()]
    rows.append(["total", f"{data['total']*1e3:.2f} ms"])
    report = common.format_table(
        "Section 7.4: conversion (CPU part) wall-clock by stage — Higgs forest",
        ["stage", "time"],
        rows,
    )
    report += (
        "paper: stages cost 8-12x / 1-4x / 6-13x / 1-5x / 11-15x one\n"
        "inference; the whole CPU part 28-57x and is hidden behind GPU work.\n"
        "(absolute times are not comparable across the CPU/simulator divide;\n"
        "the reproducible claims are the stage structure and the LSH-vs-\n"
        "pairwise ratio below.)\n"
    )
    common.write_result("sec74_conversion_stages", report)
    common.write_bench_report("sec74_conversion_stages", data["report"])
    assert data["total"] > 0
    assert all(v >= 0 for v in data["stages"].values())


def test_sec74_similarity_speedup(benchmark):
    data = benchmark.pedantic(run_similarity_comparison, rounds=1, iterations=1)
    lsh, pairwise = data["lsh"], data["pairwise"]
    speedup = pairwise.median / lsh.median
    report = common.format_table(
        f"Section 7.4: similarity detection on {data['n_trees']} trees "
        f"(median of {data['repeats']} runs)",
        ["method", "wall-clock (s)", "IQR (s)"],
        [
            ["SimHash + LSH", lsh.median, lsh.iqr],
            ["pairwise comparison", pairwise.median, pairwise.iqr],
        ],
    )
    report += f"\nspeedup: {speedup:.1f}x (paper: >37x for the similarity part)\n"
    common.write_result("sec74_similarity_speedup", report)
    assert speedup > 5.0


def test_sec74_model_evaluation_negligible(benchmark):
    timing = benchmark.pedantic(run_model_evaluation_cost, rounds=1, iterations=1)
    per_eval = timing.median
    layout = common.adaptive_layout("Higgs")
    spec = common.bench_spec("P100")
    from repro.strategies import SharedDataStrategy

    X = common.inference_X("Higgs", 600)
    inference = SharedDataStrategy().run(layout, X, spec)
    per_sample = inference.time / X.shape[0]
    report = common.format_table(
        "Section 7.4: performance-model evaluation cost",
        ["quantity", "seconds"],
        [
            ["model evaluation (all four strategies, host wall-clock median)", per_eval],
            ["  its IQR", timing.iqr],
            ["one simulated inference (per sample)", per_sample],
            ["model evaluations per batch", 1],
        ],
    )
    report += (
        "paper: 90 flops, 0.17-0.92 ns — an order of magnitude below one\n"
        "inference; here the model runs once per batch, so its cost per\n"
        "sample is vanishing either way.\n"
    )
    common.write_result("sec74_model_cost", report)
    assert per_eval < 0.05  # a once-per-batch cost of tens of ms at most


def test_sec74_memory_saving(benchmark):
    savings = benchmark.pedantic(run_memory_saving, rounds=1, iterations=1)
    rows = [[name, f"{s:.1%}"] for name, s in savings]
    mean = float(np.mean([s for _, s in savings]))
    report = common.format_table(
        "Section 7.4: adaptive-format memory saving vs reorg",
        ["dataset", "saving"],
        rows,
    )
    report += f"\nmean saving: {mean:.1%} (paper: 23.6%)\n"
    common.write_result("sec74_memory_saving", report)
    assert mean > 0.15
    assert all(s >= 0 for _, s in savings)
