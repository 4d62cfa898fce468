"""Packed node-encoding sweep: bytes on disk, bytes moved, bit-identity.

The quantified version of the paper's section 4.3 width argument: a
node record only needs enough bits for the forest's attribute ids, so
shrinking the word shrinks every node fetch.  For each fig-5 forest this
benchmark builds the adaptive layout at every feasible packed width
(32/16/8-bit words, f32 thresholds — the lossless family), runs the
same inference batch through :class:`~repro.core.TahoeEngine` for each,
and records:

* ``node_bytes`` / ``total_bytes`` — the node-record and forest-array
  footprint per encoding (the ≥ 20 % reduction claim),
* simulated forest traffic — global-memory bytes fetched and
  transactions for node fetches, straight from the gpusim counters,
* simulated predict time, and the wall clock of the simulated run
  (median and IQR over repeated calls, through ``common.measure``),
* the section-6 encoding ranking
  (:func:`~repro.perfmodel.rank_node_encodings`) next to the measured
  numbers, so the selector's predicted-bytes-moved ordering can be
  checked against what the simulator actually moved.

Every packed run must be bit-identical to the 32-bit baseline (f32
thresholds are stored exactly); on the first dataset the same check
runs across all three engines (Tahoe, FIL reorg, native wall-clock).
The script exits non-zero if bit-identity breaks or the best packed
encoding saves less than 20 % of node-array bytes vs the 32-bit word.

Usage::

    python benchmarks/bench_formats.py            # full mode
    python benchmarks/bench_formats.py --quick    # CI mode
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np

import common
from repro.core import TahoeConfig, TahoeEngine
from repro.core.fil import FILEngine
from repro.core.native import NativeEngine
from repro.formats.encoding import WIDTH_BITS, max_attribute_index
from repro.perfmodel import rank_node_encodings

GPU = "P100"
QUICK_DATASETS = ["letter", "ijcnn1"]
FULL_DATASETS = ["HOCK", "cifar10", "ijcnn1", "phishing", "letter"]
#: Node-array shrink the packed family must deliver on at least one
#: forest (best packed width vs the 32-bit word), per the issue gate.
REDUCTION_GATE = 0.20
#: Timed predict calls per encoding (median and IQR).
QUICK_REPEATS, FULL_REPEATS = 3, 5


def _forest_traffic(result) -> dict:
    """Aggregate node-fetch traffic over all simulated batches."""
    requested = fetched = transactions = 0
    for batch in result.batches:
        fg = batch.counters.forest_global
        requested += fg.requested_bytes
        fetched += fg.fetched_bytes
        transactions += fg.transactions
    return {
        "requested_bytes": int(requested),
        "fetched_bytes": int(fetched),
        "transactions": int(transactions),
    }


def _run_tahoe(forest, spec, X, config, repeats) -> tuple[dict, np.ndarray]:
    engine = TahoeEngine(forest, spec, config=config)
    # The first call also probes the layout's coalescing rates; the wall
    # clock is the median of the calls after it.
    result = engine.predict(X)
    wall = common.measure(lambda: engine.predict(X), repeats)
    layout = engine.layout
    row = {
        "encoding": layout.record.encoding_label,
        "node_bytes": int(layout.record.node_bytes),
        "total_bytes": int(layout.total_bytes),
        "simulated_time": float(result.total_time),
        "wall_s": wall.median,
        "wall_s_iqr": wall.iqr,
        "strategies": sorted(set(result.strategies_used)),
        "traffic": _forest_traffic(result),
    }
    return row, result.predictions


def sweep_dataset(name: str, spec, limit: int | None, repeats: int) -> dict:
    """Baseline + every feasible packed width on one fig-5 forest."""
    trained = common.workload(name)
    forest = trained.forest
    X = common.inference_X(name, limit)
    max_fid = max_attribute_index(forest)
    widths = [w for w in sorted(WIDTH_BITS, reverse=True) if max_fid < (1 << (w - 3))]

    baseline_row, baseline_preds = _run_tahoe(forest, spec, X, TahoeConfig(), repeats)
    encodings = {}
    mismatches = []
    for bits in widths:
        row, preds = _run_tahoe(
            forest, spec, X, TahoeConfig(node_width=bits, threshold_mode="f32"), repeats
        )
        row["bit_identical"] = bool(np.array_equal(preds, baseline_preds))
        if not row["bit_identical"]:
            mismatches.append(row["encoding"])
        encodings[f"w{bits}"] = row

    w32 = encodings["w32"]
    best = min(encodings.values(), key=lambda r: r["node_bytes"])
    node_reduction = 1.0 - best["node_bytes"] / w32["node_bytes"]
    fetched_reduction = 1.0 - (
        best["traffic"]["fetched_bytes"] / w32["traffic"]["fetched_bytes"]
    )
    ranking = [
        c.to_record()
        for c in rank_node_encodings(
            TahoeEngine(forest, spec).layout, X.shape[0], spec
        )
    ]
    return {
        "dataset": name,
        "n_trees": forest.n_trees,
        "n_samples": int(X.shape[0]),
        "max_attribute_index": int(max_fid),
        "baseline": baseline_row,
        "encodings": encodings,
        "ranking": ranking,
        "best_packed": best["encoding"],
        "node_bytes_reduction_vs_w32": float(node_reduction),
        "fetched_bytes_reduction_vs_w32": float(fetched_reduction),
        "mismatches": mismatches,
    }


def cross_engine_identity(name: str, spec, limit: int | None) -> dict:
    """w8/f32 must match each engine's own unpacked baseline bit-exactly."""
    forest = common.workload(name).forest
    X = common.inference_X(name, limit)
    packed = TahoeConfig(node_width="auto", threshold_mode="f32")
    out = {}
    for label, factory in (
        ("tahoe", lambda cfg: TahoeEngine(forest, spec, config=cfg)),
        ("fil", lambda cfg: FILEngine(forest, spec, config=cfg)),
        ("native", lambda cfg: NativeEngine(forest, spec, config=cfg)),
    ):
        base = factory(TahoeConfig()).predict(X).predictions
        engine = factory(packed)
        got = engine.predict(X).predictions
        out[label] = {
            "encoding": engine.layout.record.encoding_label,
            "bit_identical": bool(np.array_equal(got, base)),
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    args = parser.parse_args(argv)

    spec = common.bench_spec(GPU)
    datasets = QUICK_DATASETS if args.quick else FULL_DATASETS
    limit = 256 if args.quick else 1024
    repeats = QUICK_REPEATS if args.quick else FULL_REPEATS

    sweeps = {}
    for name in datasets:
        sweeps[name] = sweep_dataset(name, spec, limit, repeats)
        s = sweeps[name]
        print(
            f"  {name}: best {s['best_packed']} "
            f"node bytes {-100 * s['node_bytes_reduction_vs_w32']:+.1f}% "
            f"fetched {-100 * s['fetched_bytes_reduction_vs_w32']:+.1f}% vs w32"
        )

    identity = cross_engine_identity(datasets[-1], spec, limit)
    payload = {
        "time_domain": "simulated",
        "gpu": spec.name,
        "quick": bool(args.quick),
        "repeats": repeats,
        "threshold_mode": "f32",
        "datasets": sweeps,
        "cross_engine_identity": {"dataset": datasets[-1], "engines": identity},
    }
    best_reduction = max(
        s["node_bytes_reduction_vs_w32"] for s in sweeps.values()
    )
    payload["best_node_bytes_reduction"] = float(best_reduction)

    scenario = f"formats/{GPU}/{'quick' if args.quick else 'full'}"
    path = common.write_bench_report("formats", payload, scenario=scenario)

    rows = []
    for name, s in sweeps.items():
        for key in sorted(s["encodings"], key=lambda k: -int(k[1:])):
            r = s["encodings"][key]
            rows.append([
                name,
                r["encoding"],
                r["node_bytes"],
                r["total_bytes"],
                r["traffic"]["fetched_bytes"],
                r["traffic"]["transactions"],
                f"{r['simulated_time']:.3e}",
                "yes" if r["bit_identical"] else "NO",
            ])
    print(common.format_table(
        "packed node encodings (vs 32-bit word, f32 thresholds)",
        ["dataset", "encoding", "B/node", "forest B", "fetched B", "txns", "sim s", "bit-id"],
        rows,
    ))
    print(f"wrote {path}")

    failures = []
    for name, s in sweeps.items():
        if s["mismatches"]:
            failures.append(f"{name}: predictions diverge for {s['mismatches']}")
    for label, row in identity.items():
        if not row["bit_identical"]:
            failures.append(f"{label} engine diverges under {row['encoding']}")
    if best_reduction < REDUCTION_GATE:
        failures.append(
            f"best node-byte reduction {100 * best_reduction:.1f}% "
            f"is below the {100 * REDUCTION_GATE:.0f}% gate"
        )
    for msg in failures:
        print(f"ERROR: {msg}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
