"""Native-backend throughput: the first *wall-clock* numbers in the repo.

Every other benchmark reports simulated GPU seconds; this one measures
how fast :class:`~repro.core.native.NativeEngine` actually evaluates
forests on the host, and how that compares to running the GPU simulator
for serving.  Scenarios:

* ``batch_sweep`` — samples/sec vs batch size (the flush-point curve the
  native serving planner measures).
* ``forest_sweep`` — samples/sec vs forest size (tree-count slices of
  the letter bench forest).
* ``kernels`` — the engine's kernel (numba when importable, numpy
  otherwise), plus the pure-Python scalar reference in full mode, each
  checked bit for bit against the numpy kernel; numba availability is
  recorded either way.
* ``explain_sweep`` — native SHAP explain wall time per row at 1, 4
  and 64 rows (the serving micro-batch sizes), median and IQR over
  repeats.
* ``coldstart`` — cold engine build (conversion + flatten) vs adopting a
  packed ``.tahoe`` artifact, plus first-predict latency for each.
* ``serving`` — identical open-loop workloads through ``TahoeServer``
  with the simulator pool and the native pool, timed on the *outer* wall
  clock; the native/simulated wall speedup is the acceptance number
  (expected ≥ 10x — predicting beats simulating a GPU predicting).

Every repeated timing is recorded as the median of its repeats
(``wall_s``) with the interquartile range beside it (``*_iqr``), from
:func:`common.measure`.  The whole payload is denominated in wall seconds
(``time_domain: "wall"``), so ``repro bench diff`` refuses to compare it
against any simulated-time artifact.

Usage::

    python benchmarks/bench_native.py            # full mode
    python benchmarks/bench_native.py --quick    # CI mode
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np

import common
from repro.core import TahoeEngine
from repro.core.native import (
    HAVE_NUMBA,
    NativeEngine,
    _traverse_numpy,
    _traverse_scalar,
)
from repro.modelstore import load_packed, pack_layout
from repro.serving import SchedulerConfig, TahoeServer, poisson_workload
from repro.strategies.base import finalize_predictions

DATASET = "letter"
GPU = "P100"


def _pool(X: np.ndarray, n: int) -> np.ndarray:
    """At least ``n`` inference rows, tiling the real split as needed."""
    if X.shape[0] >= n:
        return np.ascontiguousarray(X[:n])
    reps = n // X.shape[0] + 1
    return np.ascontiguousarray(np.tile(X, (reps, 1))[:n])


def bench_batch_sweep(engine, X, batch_sizes, repeats) -> dict:
    out = {}
    for b in batch_sizes:
        batch = _pool(X, b)
        t = common.measure(lambda: engine.predict(batch), repeats)
        out[str(b)] = {
            "wall_s": t.median,
            "wall_s_iqr": t.iqr,
            "samples_per_s": b / t.median,
        }
    return out


def bench_forest_sweep(forest, spec, X, tree_counts, batch, repeats) -> dict:
    out = {}
    batch_X = _pool(X, batch)
    for k in tree_counts:
        sub = forest.with_trees(list(forest.trees[:k]))
        engine = NativeEngine(sub, spec)
        t = common.measure(lambda: engine.predict(batch_X), repeats)
        out[str(k)] = {
            "n_trees": k,
            "wall_s": t.median,
            "wall_s_iqr": t.iqr,
            "samples_per_s": batch / t.median,
        }
    return out


def bench_explain_sweep(engine, X, rows, repeats) -> dict:
    """Native explain wall time per row: median and IQR over repeats."""
    engine.explain(X[:1])  # builds the path set and its tables once
    out = {}
    for n in rows:
        batch = _pool(X, n)
        t = common.measure(lambda: engine.explain(batch), repeats)
        out[str(n)] = {
            "rows": n,
            "us_per_row": t.median / n * 1e6,
            "us_per_row_iqr": t.iqr / n * 1e6,
            "samples_per_s": n / t.median,
        }
    return out


def _numpy_reference(engine, X: np.ndarray) -> np.ndarray:
    """Predictions of the vectorised numpy kernel, whatever the engine runs."""
    flat = engine.flat
    shape = (X.shape[0], flat.n_groups) if flat.n_groups > 1 else X.shape[0]
    sums = _traverse_numpy(X, flat, np.empty(shape, dtype=np.float64))
    return finalize_predictions(engine.forest, sums)


def bench_kernels(forest, spec, X, batch, repeats, quick) -> dict:
    """The engine's own kernel (numba when importable, numpy otherwise),
    plus the pure-Python scalar reference in full mode, each checked bit
    for bit against the numpy kernel."""
    batch_X = _pool(X, batch)
    engine = NativeEngine(forest, spec)
    ref = _numpy_reference(engine, batch_X)
    engine.predict(batch_X[:64])  # warm (numba JIT compiles here)
    t = common.measure(lambda: engine.predict(batch_X), repeats)
    out = {
        "numba_available": HAVE_NUMBA,
        "kernels_present": [engine.kernel, "scalar"],
        engine.kernel: {
            "wall_s": t.median,
            "wall_s_iqr": t.iqr,
            "samples_per_s": batch / t.median,
            "bit_identical_to_numpy": bool(
                np.array_equal(engine.predict(batch_X).predictions, ref)
            ),
        },
    }
    if not quick:
        flat = engine.flat

        def run_scalar():
            sums = np.zeros((batch, flat.n_groups), dtype=np.float64)
            _traverse_scalar(batch_X, *flat.scalar_args(), sums)
            return finalize_predictions(
                forest, sums if flat.n_groups > 1 else sums[:, 0]
            )

        # One repeat: the pure-Python loop is slow by design.
        wall = common.measure(run_scalar, 1).median
        out["scalar"] = {
            "wall_s": wall,
            "samples_per_s": batch / wall,
            "bit_identical_to_numpy": bool(np.array_equal(run_scalar(), ref)),
        }
    return out


def bench_coldstart(forest, spec, X) -> dict:
    import tempfile

    t0 = time.perf_counter()
    cold = NativeEngine(forest, spec)
    cold_build = time.perf_counter() - t0
    first = common.measure(lambda: cold.predict(X[:256]), 1).median

    artifact = Path(tempfile.mkdtemp(prefix="bench_native_")) / "bench.tahoe"
    pack_layout(
        cold.layout,
        artifact,
        engine="tahoe",
        spec_name=spec.name,
        conversion_key=cold.config.conversion_key(),
        source_fingerprint=forest.fingerprint(),
    )
    t0 = time.perf_counter()
    packed_engine = load_packed(artifact).make_engine(spec, backend="native")
    packed_build = time.perf_counter() - t0
    packed_first = common.measure(lambda: packed_engine.predict(X[:256]), 1).median
    identical = bool(
        np.array_equal(
            cold.predict(X[:256]).predictions,
            packed_engine.predict(X[:256]).predictions,
        )
    )
    return {
        "cold_build_s": cold_build,
        "cold_first_predict_s": first,
        "packed_build_s": packed_build,
        "packed_first_predict_s": packed_first,
        "build_speedup": cold_build / packed_build if packed_build > 0 else float("inf"),
        "packed_bit_identical": identical,
    }


def bench_serving(forest, spec, X, quick) -> dict:
    """The acceptance comparison: wall time to serve the same workload.

    Both runs use the same scripted arrivals; what differs is what the
    pool *does* per micro-batch — simulate a GPU or actually predict —
    so the outer wall clock around ``run()`` is the honest comparison
    (each backend's own clock is not: one is simulated seconds, the
    other wall seconds).
    """
    # Multi-sample requests keep the comparison about the engines: with
    # 1-sample traffic the Python scheduler dominates the wall clock of
    # both pools and the backends tie, hiding the 17x per-batch kernel
    # gap behind identical per-request bookkeeping.
    qps, duration = (500.0, 0.25) if quick else (1000.0, 1.0)
    out = {}
    for backend in ("tahoe", "native"):
        server = TahoeServer(
            forest,
            spec,
            scheduler=SchedulerConfig(
                n_engines=1, max_batch=1024, backend=backend, request_tracing=False
            ),
        )
        requests = poisson_workload(
            X, qps=qps, duration=duration, seed=7, max_request_samples=512
        )
        t0 = time.perf_counter()
        result = server.run(requests)
        wall = time.perf_counter() - t0
        s = result.summary
        n_samples = int(
            sum(r.predictions.shape[0] for r in result.responses if r.ok)
        )
        out[backend] = {
            "outer_wall_s": wall,
            "wall_samples_per_s": n_samples / wall if wall > 0 else float("inf"),
            "completed": s["completed"],
            "time_domain": s["time_domain"],
            "target_batch": s["target_batch"],
        }
    out["native_wall_speedup"] = (
        out["native"]["wall_samples_per_s"] / out["tahoe"]["wall_samples_per_s"]
    )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    args = parser.parse_args(argv)

    spec = common.bench_spec(GPU)
    trained = common.workload(DATASET)
    forest = trained.forest
    X = trained.split.test.X
    repeats = 5 if args.quick else 7
    batch_sizes = [64, 256, 1024] if args.quick else [64, 256, 1024, 4096, 16384]
    tree_counts = [k for k in ([25, 75, 150] if args.quick else [10, 25, 50, 100, 150])
                   if k <= forest.n_trees]
    kernel_batch = 1024 if args.quick else 4096

    engine = NativeEngine(forest, spec)
    print(
        f"native bench: {forest.n_trees} trees on {DATASET}, "
        f"kernel={engine.kernel} (numba {'on' if HAVE_NUMBA else 'off'})"
    )
    payload = {
        "time_domain": "wall",
        "gpu": spec.name,
        "dataset": DATASET,
        "n_trees": forest.n_trees,
        "numba_available": HAVE_NUMBA,
        "default_kernel": engine.kernel,
        "quick": bool(args.quick),
        "batch_sweep": bench_batch_sweep(engine, X, batch_sizes, repeats),
        "forest_sweep": bench_forest_sweep(
            forest, spec, X, tree_counts, kernel_batch, repeats
        ),
        "kernels": bench_kernels(forest, spec, X, kernel_batch, repeats, args.quick),
        "explain_sweep": bench_explain_sweep(
            engine, X, [1, 4, 64], 30 if args.quick else 100
        ),
        "coldstart": bench_coldstart(forest, spec, X),
        "serving": bench_serving(forest, spec, X, args.quick),
    }
    # Bit-identity gate against the simulator on the bench forest —
    # cheap, and it keeps the headline claim honest in every artifact.
    check_X = _pool(X, 512)
    simulated = TahoeEngine(forest, spec).predict(check_X).predictions
    payload["bit_identical_to_simulator"] = bool(
        np.array_equal(engine.predict(check_X).predictions, simulated)
    )

    scenario = f"native/{DATASET}/{GPU}/{'quick' if args.quick else 'full'}"
    path = common.write_bench_report("native", payload, scenario=scenario)

    sweep = payload["batch_sweep"]
    for b, row in sweep.items():
        print(f"  batch {b:>6}: {row['samples_per_s']:14,.0f} samples/s")
    for n, row in payload["explain_sweep"].items():
        print(f"  explain {n:>4} rows: {row['us_per_row']:10,.0f} us/row")
    serving = payload["serving"]
    print(
        f"  serving wall speedup (native vs simulator pool): "
        f"{serving['native_wall_speedup']:.1f}x"
    )
    print(f"  bit-identical to simulator: {payload['bit_identical_to_simulator']}")
    print(f"wrote {path}")
    if not payload["bit_identical_to_simulator"]:
        print("ERROR: native predictions diverge from the simulator", file=sys.stderr)
        return 1
    if serving["native_wall_speedup"] < 10.0:
        print(
            f"WARNING: native serving speedup "
            f"{serving['native_wall_speedup']:.1f}x is below the 10x target",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
