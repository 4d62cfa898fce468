"""Ablations of Tahoe's design choices (DESIGN.md section 6).

Beyond the paper's own breakdown (figure 8), these ablate:

* the similarity parameters T_nodes / L_hash / M (the paper settles on
  4 / 128 / 64 in section 7.1 after a sensitivity sweep),
* variable-width vs fixed-width attribute indices (time, not just space),
* model-guided selection vs an oracle (exhaustive measurement) and vs
  each fixed strategy,
* LSH ordering vs exact pairwise ordering (quality, not just speed).
"""

from __future__ import annotations

import numpy as np

import common
from repro.core import TahoeConfig, TahoeEngine, convert_forest
from repro.formats import similarity_tree_order
from repro.formats.node_rearrange import rearrange_forest_nodes
from repro.perfmodel import validate_selection
from repro.strategies import SharedDataStrategy


def run_similarity_parameters(dataset="Higgs"):
    """Balance quality of the similarity order across T_nodes/L_hash/M."""
    forest = rearrange_forest_nodes(common.workload(dataset).forest)
    work = forest.tree_depths().astype(float) + 1.0

    def balance_cv(order, n_threads=32):
        per = np.array(
            [work[np.asarray(order)[t::n_threads]].sum() for t in range(n_threads)]
        )
        return float(per.std() / per.mean())

    out = {}
    for t_nodes in (2, 4, 6, 8):
        order = similarity_tree_order(forest, t_nodes=t_nodes)
        out[("t_nodes", t_nodes)] = balance_cv(order)
    for l_hash in (32, 128, 256):
        order = similarity_tree_order(forest, l_hash=l_hash, m_chunks=16)
        out[("l_hash", l_hash)] = balance_cv(order)
    for m in (16, 64):
        order = similarity_tree_order(forest, m_chunks=m)
        out[("m_chunks", m)] = balance_cv(order)
    rng = np.random.default_rng(0)
    out[("random", 0)] = float(
        np.mean([balance_cv(rng.permutation(forest.n_trees)) for _ in range(20)])
    )
    return out


def run_variable_width(dataset="Higgs"):
    """Does the narrower record actually buy simulated time?"""
    forest = common.workload(dataset).forest
    spec = common.bench_spec("P100")
    X = common.inference_X(dataset, 900)
    narrow = convert_forest(forest, TahoeConfig())[0]
    wide = convert_forest(forest, TahoeConfig(variable_width=False))[0]
    t_narrow = SharedDataStrategy().run(narrow, X, spec).time
    t_wide = SharedDataStrategy().run(wide, X, spec).time
    return {
        "narrow_time": t_narrow,
        "wide_time": t_wide,
        "narrow_bytes": narrow.total_bytes,
        "wide_bytes": wide.total_bytes,
    }


#: The second batch the selector is checked at, beside figure 5's.
SELECTION_SMALL_BATCH = 256


def run_selection_vs_oracle(datasets=common.DATASET_ORDER):
    """Model-guided selection vs exhaustive (oracle) strategy choice.

    Each forest first runs once through TahoeEngine at the figure 5
    batch, which probes its layout's coalescing rates as figure 5 does;
    ``validate_selection`` then measures every strategy on that layout
    and asks the models for their pick, at the figure 5 batch (the whole
    inference split) and at SELECTION_SMALL_BATCH rows.
    """
    spec = common.bench_spec("P100")
    rows = []
    for name in datasets:
        X = common.inference_X(name)
        engine = TahoeEngine(common.workload(name).forest, spec)
        engine.predict(X)
        batches = [X.shape[0], SELECTION_SMALL_BATCH]
        report = validate_selection(engine.layout, X, spec, batches)
        for batch, case in zip(batches, report.cases):
            rows.append(
                {
                    "dataset": name,
                    "batch": batch,
                    "picked": case.predicted,
                    "oracle": case.best,
                    "penalty": case.penalty,
                }
            )
    return rows


def test_ablation_similarity_parameters(benchmark):
    data = benchmark.pedantic(run_similarity_parameters, rounds=1, iterations=1)
    rows = [[f"{k[0]}={k[1]}" if k[0] != "random" else "random order", v]
            for k, v in data.items()]
    report = common.format_table(
        "Ablation: per-thread balance CV of the similarity order (lower is better)",
        ["configuration", "balance CV"],
        rows,
    )
    report += "paper: T_nodes in [4,6], L_hash >= 128, M >= 64 suffice (section 7.1)\n"
    common.write_result("ablation_similarity_parameters", report)
    common.write_bench_report(
        "ablation_similarity_parameters",
        {f"{k[0]}_{k[1]}": v for k, v in data.items()},
        scenario="ablation/similarity_parameters",
    )
    # The paper-default configuration must beat a random order.
    assert data[("t_nodes", 4)] < data[("random", 0)]


def test_ablation_variable_width(benchmark):
    data = benchmark.pedantic(run_variable_width, rounds=1, iterations=1)
    report = common.format_table(
        "Ablation: variable-width vs fixed-width attribute index (Higgs)",
        ["record", "layout bytes", "shared-data time (s)"],
        [
            ["variable width", data["narrow_bytes"], data["narrow_time"]],
            ["fixed 4-byte", data["wide_bytes"], data["wide_time"]],
        ],
    )
    common.write_result("ablation_variable_width", report)
    common.write_bench_report(
        "ablation_variable_width", dict(data), scenario="ablation/variable_width"
    )
    assert data["narrow_bytes"] < data["wide_bytes"]
    assert data["narrow_time"] <= data["wide_time"] * 1.02


def _geomean(values) -> float:
    return float(np.exp(np.mean(np.log(values))))


def test_ablation_selection_vs_oracle(benchmark):
    rows = benchmark.pedantic(run_selection_vs_oracle, rounds=1, iterations=1)
    report = common.format_table(
        "Ablation: model-guided selection vs oracle (P100)",
        ["dataset", "batch", "picked", "oracle", "penalty vs oracle"],
        [
            [r["dataset"], r["batch"], r["picked"], r["oracle"], f"{r['penalty']:.2f}x"]
            for r in rows
        ],
    )
    small = [r["penalty"] for r in rows if r["batch"] == SELECTION_SMALL_BATCH]
    fig5 = [r["penalty"] for r in rows if r["batch"] != SELECTION_SMALL_BATCH]
    report += (
        f"geomean penalty: {_geomean(fig5):.3f}x at the figure 5 batch, "
        f"{_geomean(small):.3f}x at {SELECTION_SMALL_BATCH} rows "
        f"(mispicks {sum(p > 1 for p in fig5)}/{len(fig5)} and "
        f"{sum(p > 1 for p in small)}/{len(small)})\n"
    )
    report += "paper: mispredictions still land within ~5% of hand-picked optimum\n"
    common.write_result("ablation_selection_vs_oracle", report)
    common.write_bench_report(
        "ablation_selection_vs_oracle",
        {f"{r['dataset']}@{r['batch']}": {"penalty": r["penalty"]} for r in rows},
        scenario="ablation/selection_vs_oracle",
    )
    assert all(r["penalty"] <= 1.6 for r in rows)
    assert _geomean(fig5) <= 1.05 and _geomean(small) <= 1.05
