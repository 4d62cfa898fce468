"""Figure 7 — Tahoe vs FIL on 15 datasets x 3 GPUs (paper section 7.2).

The paper's headline numbers, geometric-mean speedup of Tahoe over FIL:

================  =====  =====  =====
regime             K80    P100   V100
================  =====  =====  =====
high parallelism  5.31x  3.67x  4.05x
low parallelism   2.34x  1.52x  1.45x
================  =====  =====  =====

with maxima up to 9.58x / 8.77x / 10.14x (high) and 5.08x / 3.82x /
3.17x (low).  Three observations must hold in shape: (1) high-
parallelism speedups exceed low-parallelism ones, (2) K80 gains most at
low parallelism, (3) every speedup is >= ~1.
"""

from __future__ import annotations

import common
from repro.core import FILEngine, TahoeEngine
from repro.core.metrics import geometric_mean

PAPER_MEAN = {
    ("K80", "high"): 5.31, ("P100", "high"): 3.67, ("V100", "high"): 4.05,
    ("K80", "low"): 2.34, ("P100", "low"): 1.52, ("V100", "low"): 1.45,
}

GPUS = ["K80", "P100", "V100"]
HIGH_LIMIT = 1800


def run_fig7():
    results = {}
    for gpu in GPUS:
        spec = common.bench_spec(gpu)
        for name in common.DATASET_ORDER:
            forest = common.workload(name).forest
            X_high = common.inference_X(name, HIGH_LIMIT)
            X_low = common.inference_X(name, common.LOW_TOTAL)
            fil = FILEngine(forest, spec)
            tahoe = TahoeEngine(forest, spec)
            fil_high = fil.predict(X_high).total_time
            tahoe_high_r = tahoe.predict(X_high)
            fil_low = fil.predict(X_low, batch_size=common.LOW_BATCH).total_time
            tahoe_low_r = tahoe.predict(X_low, batch_size=common.LOW_BATCH)
            results[(gpu, name)] = {
                "high": fil_high / tahoe_high_r.total_time,
                "low": fil_low / tahoe_low_r.total_time,
                "high_strategy": tahoe_high_r.strategies_used[0],
                "low_strategy": tahoe_low_r.strategies_used[0],
                "tahoe_high_throughput": tahoe_high_r.throughput,
            }
    return results


def test_fig7_overall_speedup(benchmark):
    results = benchmark.pedantic(run_fig7, rounds=1, iterations=1)
    rows = []
    for name in common.DATASET_ORDER:
        row = [name]
        for gpu in GPUS:
            r = results[(gpu, name)]
            row += [r["high"], r["low"]]
        row.append(results[("P100", name)]["high_strategy"])
        rows.append(row)
    summary_rows = []
    means = {}
    for gpu in GPUS:
        for regime in ("high", "low"):
            vals = [results[(gpu, n)][regime] for n in common.DATASET_ORDER]
            means[(gpu, regime)] = geometric_mean(vals)
            summary_rows.append(
                [gpu, regime, means[(gpu, regime)], max(vals),
                 PAPER_MEAN[(gpu, regime)]]
            )
    report = common.format_table(
        "Figure 7: Tahoe speedup over FIL per dataset",
        ["dataset", "K80 high", "K80 low", "P100 high", "P100 low",
         "V100 high", "V100 low", "strategy (P100 high)"],
        rows,
    )
    report += common.format_table(
        "Figure 7 summary: geometric-mean speedups",
        ["GPU", "regime", "mean (measured)", "max (measured)", "mean (paper)"],
        summary_rows,
    )
    common.write_result("fig7_overall", report)
    common.write_bench_report(
        "fig7_overall",
        {
            "speedup": {
                gpu: {
                    name: {
                        "high": results[(gpu, name)]["high"],
                        "low": results[(gpu, name)]["low"],
                    }
                    for name in common.DATASET_ORDER
                }
                for gpu in GPUS
            },
            "geomean_speedup": {
                f"{gpu}_{regime}": means[(gpu, regime)]
                for gpu in GPUS
                for regime in ("high", "low")
            },
        },
        scenario="fig7/all_datasets/3gpus",
    )
    # Shape assertions.
    for gpu in GPUS:
        assert means[(gpu, "high")] > 1.0, f"no high-parallelism win on {gpu}"
        assert means[(gpu, "low")] > 1.0, f"no low-parallelism win on {gpu}"
        assert means[(gpu, "high")] > means[(gpu, "low")] * 0.9, (
            f"{gpu}: high-parallelism speedup should not trail low"
        )
    # K80 gains the most at low parallelism (paper observation 2).
    assert means[("K80", "low")] >= max(
        means[("P100", "low")], means[("V100", "low")]
    ) * 0.85
