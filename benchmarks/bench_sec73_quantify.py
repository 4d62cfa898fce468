"""Section 7.3 quantifications — coalescing, reduction removal, model accuracy.

Three measurements from the paper's performance-breakdown subsection:

* **Memory coalescence**: with Tahoe, shared-memory load efficiency rises
  from ~28-30% to ~46-51% and global read throughput roughly triples on
  each GPU.
* **Reduction removal**: across 45 high-parallelism cases (15 datasets x
  3 GPUs) Tahoe removes the block-wise reduction in 27; across the 45
  low-parallelism cases, in 13 (keeping shared-data otherwise).
* **Performance-model accuracy**: in 87 of 90 cases the models order the
  strategies correctly; the three misses are near-optimal.
"""

from __future__ import annotations

import numpy as np

import common
from repro.core import TahoeConfig, TahoeEngine, convert_forest
from repro.formats import build_reorg_layout
from repro.perfmodel import measure_hardware_parameters, rank_strategies
from repro.strategies import ALL_STRATEGIES, StrategyNotApplicable

GPUS = ["K80", "P100", "V100"]


def run_coalescing(datasets=("Higgs", "SUSY", "covtype", "year", "aloi", "letter")):
    """Forest-read load efficiency and effective read throughput.

    Isolates the *format* effect the paper quantifies: both sides run the
    shared-data algorithm with FIL's launch geometry; only the layout
    (reorg vs adaptive) differs.
    """
    from repro.core.fil import fil_block_size
    from repro.strategies import SharedDataStrategy

    out = {}
    for gpu in GPUS:
        spec = common.bench_spec(gpu)
        fil_eff, tahoe_eff, fil_bw, tahoe_bw, traffic_saving = [], [], [], [], []
        for name in datasets:
            forest = common.workload(name).forest
            X = common.inference_X(name, 600)
            strategy = SharedDataStrategy(
                threads_per_block=fil_block_size(forest.n_trees, spec)
            )
            fil_r = strategy.run(build_reorg_layout(forest), X, spec)
            # Fixed-width adaptive isolates pure coalescing (the paper's
            # efficiency metric); the narrow records additionally shrink
            # requested bytes, which would confound the ratio.
            iso_r = strategy.run(
                convert_forest(forest, TahoeConfig(variable_width=False))[0], X, spec
            )
            full_r = strategy.run(convert_forest(forest, TahoeConfig())[0], X, spec)
            for r, effs, bws in ((fil_r, fil_eff, fil_bw), (iso_r, tahoe_eff, tahoe_bw)):
                c = r.counters.forest_global
                effs.append(c.load_efficiency)
                t = max(r.breakdown.t_global, 1e-12)
                bws.append(c.requested_bytes / t)
            traffic_saving.append(
                1
                - full_r.counters.forest_global.fetched_bytes
                / fil_r.counters.forest_global.fetched_bytes
            )
        out[gpu] = {
            "fil_eff": float(np.mean(fil_eff)),
            "tahoe_eff": float(np.mean(tahoe_eff)),
            "fil_bw": float(np.mean(fil_bw)),
            "tahoe_bw": float(np.mean(tahoe_bw)),
            "traffic_saving": float(np.mean(traffic_saving)),
        }
    return out


def run_reduction_removal():
    """Count cases where Tahoe picks a reduction-free strategy."""
    removed = {"high": 0, "low": 0}
    total = {"high": 0, "low": 0}
    details = []
    for gpu in GPUS:
        spec = common.bench_spec(gpu)
        for name in common.DATASET_ORDER:
            forest = common.workload(name).forest
            engine = TahoeEngine(forest, spec)
            for regime, limit, batch in (
                ("high", 1200, None), ("low", common.LOW_TOTAL, common.LOW_BATCH),
            ):
                X = common.inference_X(name, limit)
                result = engine.predict(X, batch_size=batch)
                strategy = result.strategies_used[0]
                total[regime] += 1
                if strategy != "shared_data":
                    removed[regime] += 1
                details.append([gpu, name, regime, strategy])
    return {"removed": removed, "total": total, "details": details}


def run_model_accuracy():
    """How often the model's top choice is measured (near-)fastest."""
    cases = []
    for gpu in GPUS:
        spec = common.bench_spec(gpu)
        hw = measure_hardware_parameters(spec)
        for name in common.DATASET_ORDER:
            layout = common.adaptive_layout(name)
            for regime, limit, batch in (("high", 1200, 1200), ("low", 600, 100)):
                X = common.inference_X(name, limit)
                measured = {}
                for cls in ALL_STRATEGIES:
                    try:
                        measured[cls.name] = cls().run(
                            layout, X, spec, sample_rows=np.arange(min(batch, X.shape[0]))
                        ).time
                    except StrategyNotApplicable:
                        pass
                predicted = rank_strategies(layout, min(batch, X.shape[0]), spec, hw)
                top = next(c.name for c in predicted if c.name in measured)
                best = min(measured, key=measured.get)
                cases.append(
                    {
                        "gpu": gpu, "dataset": name, "regime": regime,
                        "predicted": top, "best": best,
                        "penalty": measured[top] / measured[best],
                    }
                )
    return cases


def test_sec73_memory_coalescence(benchmark):
    data = benchmark.pedantic(run_coalescing, rounds=1, iterations=1)
    rows = []
    for gpu in GPUS:
        d = data[gpu]
        rows.append(
            [gpu, f"{d['fil_eff']:.1%}", f"{d['tahoe_eff']:.1%}",
             f"{d['fil_bw']/1e9:.1f}", f"{d['tahoe_bw']/1e9:.1f}",
             f"{d['tahoe_bw']/d['fil_bw']:.2f}x", f"{d['traffic_saving']:.1%}"]
        )
    report = common.format_table(
        "Section 7.3: forest-read coalescing, FIL (reorg) vs Tahoe (adaptive)",
        ["GPU", "FIL efficiency", "Tahoe efficiency",
         "FIL eff. read GB/s", "Tahoe eff. read GB/s", "throughput gain",
         "fetched-traffic saving (full adaptive)"],
        rows,
    )
    report += (
        "paper: efficiency 28-30% -> 46-51%; global read throughput "
        "62->175 GB/s (K80), 99->314 (P100), 112->379 (V100)\n"
    )
    common.write_result("sec73_coalescing", report)
    common.write_bench_report(
        "sec73_coalescing",
        {gpu: dict(data[gpu]) for gpu in GPUS},
        scenario="sec73/coalescing/3gpus",
    )
    for gpu in GPUS:
        assert data[gpu]["tahoe_eff"] > data[gpu]["fil_eff"]
        assert data[gpu]["tahoe_bw"] > data[gpu]["fil_bw"]


def test_sec73_reduction_removal(benchmark):
    data = benchmark.pedantic(run_reduction_removal, rounds=1, iterations=1)
    rows = [[g, n, r, s] for g, n, r, s in data["details"]]
    report = common.format_table(
        "Section 7.3: strategy chosen per case",
        ["GPU", "dataset", "regime", "strategy"],
        rows,
    )
    report += (
        f"\nblock reduction removed: high {data['removed']['high']}/"
        f"{data['total']['high']} (paper 27/45), low {data['removed']['low']}/"
        f"{data['total']['low']} (paper 13/45)\n"
    )
    common.write_result("sec73_reduction_removal", report)
    common.write_bench_report(
        "sec73_reduction_removal",
        {"removed": dict(data["removed"]), "total": dict(data["total"])},
        scenario="sec73/reduction_removal/3gpus",
    )
    # Paper shape: reduction removed more often at high parallelism, and
    # neither never nor always.
    assert data["removed"]["high"] >= data["removed"]["low"]
    assert 0 < data["removed"]["high"] < data["total"]["high"]


def test_sec73_model_accuracy(benchmark):
    cases = benchmark.pedantic(run_model_accuracy, rounds=1, iterations=1)
    exact = sum(c["predicted"] == c["best"] for c in cases)
    near = sum(c["penalty"] <= 1.25 for c in cases)
    rows = [
        [c["gpu"], c["dataset"], c["regime"], c["predicted"], c["best"],
         f"{c['penalty']:.2f}x"]
        for c in cases
        if c["predicted"] != c["best"]
    ]
    report = common.format_table(
        "Section 7.3: performance-model mispredictions (correct cases omitted)",
        ["GPU", "dataset", "regime", "predicted", "measured best", "penalty"],
        rows,
    )
    report += (
        f"\nexactly correct: {exact}/{len(cases)} (paper 87/90); "
        f"within 25% of optimal: {near}/{len(cases)}\n"
    )
    common.write_result("sec73_model_accuracy", report)
    common.write_bench_report(
        "sec73_model_accuracy",
        {
            "exact_matches": exact,
            "near_matches": near,
            "cases": len(cases),
            "exact_fraction": exact / len(cases),
            "near_fraction": near / len(cases),
        },
        scenario="sec73/model_accuracy/3gpus",
    )
    assert exact / len(cases) >= 0.6
    assert near / len(cases) >= 0.85
