"""Cold-start benchmark: packed ``.tahoe`` artifacts vs online conversion.

The deployment question behind :mod:`repro.modelstore`: how long from
"model file on disk" to "engine ready to serve"?  The cold path loads
forest JSON and runs Tahoe's full conversion pipeline (probability
fetch, node rearrangement, similarity detection, format build, GPU
copy); the packed path loads a ``.tahoe`` artifact whose layout was
converted once at pack time and adopts it with zero conversion work.

For each dataset this measures wall-clock engine-ready time for both
paths through :func:`common.measure` (median and IQR over ``repeats``),
with the packed path also split into its two steps, ``load_packed`` and
``make_engine``.  It verifies the packed engine's predictions are
**bit-identical** to the cold engine's, and that the packed path's
:class:`~repro.core.base.ConversionStats` report zero time in every
conversion stage (``source="artifact"``).

Writes ``results/coldstart.txt`` and the machine-readable
``results/BENCH_coldstart.json``.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

import common
from repro.core import TahoeEngine
from repro.modelstore import load_packed, pack_forest
from repro.perfmodel import measure_hardware_parameters
from repro.trees.io import load_forest, save_forest

DEFAULT_DATASETS = ("letter", "covtype", "Higgs")

_CONVERSION_STAGES = (
    "t_fetch_probabilities",
    "t_node_rearrangement",
    "t_similarity_detection",
    "t_format_conversion",
    "t_copy_to_gpu",
)


def run_coldstart(datasets=DEFAULT_DATASETS, repeats: int = 9, gpu: str = "P100"):
    """Cold vs packed engine-ready time per dataset."""
    spec = common.bench_spec(gpu)
    # Hardware microbenchmarks are a per-platform offline step in both
    # deployment stories; measure once so neither path carries them.
    hardware = measure_hardware_parameters(spec)
    work_dir = common._CACHE_DIR / "coldstart"
    work_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for name in datasets:
        forest = common.workload(name).forest
        X = common.inference_X(name, 256)
        json_path = work_dir / f"{name}.json"
        tahoe_path = work_dir / f"{name}.tahoe"
        save_forest(forest, json_path)

        t0 = time.perf_counter()
        packed = pack_forest(load_forest(json_path), spec, tahoe_path)
        pack_s = time.perf_counter() - t0

        def cold():
            return TahoeEngine(load_forest(json_path), spec, hardware=hardware)

        def make_engine(packed):
            return packed.make_engine(spec, hardware=hardware)

        cold_t = common.measure(cold, repeats)
        load_t = common.measure(lambda: load_packed(tahoe_path), repeats)
        engine_t = common.measure(make_engine, repeats, setup=lambda: load_packed(tahoe_path))
        packed_t = common.measure(lambda: make_engine(load_packed(tahoe_path)), repeats)
        cold_engine, packed_engine = cold(), make_engine(load_packed(tahoe_path))

        stats = packed_engine.conversion_stats
        residual = sum(getattr(stats, stage) for stage in _CONVERSION_STAGES)
        identical = bool(
            np.array_equal(
                cold_engine.predict(X).predictions,
                packed_engine.predict(X).predictions,
            )
        )
        rows.append(
            {
                "dataset": name,
                "trees": forest.n_trees,
                "nodes": forest.n_nodes,
                "json_bytes": json_path.stat().st_size,
                "tahoe_bytes": tahoe_path.stat().st_size,
                "pack_s": pack_s,
                "cold_ready_s": cold_t.median,
                "cold_ready_s_iqr": cold_t.iqr,
                "cold_convert_s": cold_engine.conversion_stats.total,
                "load_packed_s": load_t.median,
                "load_packed_s_iqr": load_t.iqr,
                "make_engine_s": engine_t.median,
                "make_engine_s_iqr": engine_t.iqr,
                "packed_ready_s": packed_t.median,
                "packed_ready_s_iqr": packed_t.iqr,
                "packed_conversion_s": residual,
                "packed_source": stats.source,
                "speedup": cold_t.median / packed_t.median,
                "bit_identical": identical,
            }
        )
    return {"gpu": spec.name, "repeats": repeats, "rows": rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument("--datasets", nargs="*", default=None)
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--gpu", default="P100")
    args = parser.parse_args(argv)
    datasets = tuple(args.datasets) if args.datasets else DEFAULT_DATASETS
    repeats = args.repeats
    if args.quick:
        datasets = ("letter",)
        repeats = 3
    result = run_coldstart(datasets, repeats=repeats, gpu=args.gpu)
    result["quick"] = bool(args.quick)
    table = common.format_table(
        "Cold start: JSON+convert vs packed .tahoe artifact "
        f"(wall ms, median ± IQR of {repeats} repeats)",
        [
            "dataset", "trees", "cold ms", "convert ms", "load_packed ms", "make_engine ms",
            "packed ms", "speedup", "bit-identical",
        ],
        [
            [
                r["dataset"],
                r["trees"],
                f"{r['cold_ready_s'] * 1e3:.2f} ± {r['cold_ready_s_iqr'] * 1e3:.2f}",
                r["cold_convert_s"] * 1e3,
                f"{r['load_packed_s'] * 1e3:.2f} ± {r['load_packed_s_iqr'] * 1e3:.2f}",
                f"{r['make_engine_s'] * 1e3:.2f} ± {r['make_engine_s_iqr'] * 1e3:.2f}",
                f"{r['packed_ready_s'] * 1e3:.2f} ± {r['packed_ready_s_iqr'] * 1e3:.2f}",
                f"{r['speedup']:.1f}x",
                r["bit_identical"],
            ]
            for r in result["rows"]
        ],
    )
    common.write_result("coldstart", table)
    common.write_bench_report("coldstart", result)
    bad = [
        r["dataset"]
        for r in result["rows"]
        if not r["bit_identical"]
        or r["packed_conversion_s"] != 0.0
        or r["packed_source"] != "artifact"
    ]
    if bad:
        print(f"FAIL: packed path not conversion-free/bit-identical on {bad}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
