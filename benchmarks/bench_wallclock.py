"""Wall-clock tracking of the simulator hot path across PRs.

Unlike the figure/table benchmarks — whose interesting output is the
*simulated* GPU time — this benchmark measures how long the simulator
itself takes to run, so kernel-level optimisations (PR 2's sort-free
memory model and batched trace accounting) stay visible and regressions
are caught.

Scenarios:

* ``predict`` — the profiled workload from the PR-2 issue: a 60-tree /
  depth-8 random forest on letter, 3 000 samples, P100 spec, end-to-end
  through ``TahoeEngine.predict()`` (selector, COA probe and all).
* ``tree_parallel`` / ``sample_parallel`` — the two raw trace kernels on
  the same forest, isolating the lockstep loop from the engine.
* ``convert/fig5-all`` — conversion stages 1-4 (``convert_forest`` with
  the paper defaults) of all fifteen fig5 forests, cold each repeat;
  ``throughput_trees_per_s`` is its tracked rate.
* ``serve/letter-single-replay`` — the serving hot path: a native
  ``TahoeServer`` (``SchedulerConfig(backend="native")`` defaults) on the
  fig5 letter forest, N one-row requests scripted at 50k req/s through
  one ``run()`` call per repeat (requests are built outside the timed
  call); ``requests_per_s`` is its tracked rate.

Each scenario key embeds its workload size, so quick-mode (CI) and
full-mode (local) numbers coexist in ``BENCH_wallclock.json`` and are
only ever compared like-for-like (``convert/fig5-all`` is the same
workload in both modes, so one entry serves both).  Every scenario is timed ``repeats``
times and recorded as the median (``wall_s``) with its quartiles
(``wall_s_q1`` / ``wall_s_q3``), so the artifact carries its own noise;
``samples_per_s`` (samples over the median) is the rate ``repro bench
diff`` tracks.  The artifact is written through
:func:`common.write_bench_report` (schema-versioned envelope); existing
scenario entries from the committed baseline are preserved on merge.

Usage::

    python benchmarks/bench_wallclock.py            # full mode
    python benchmarks/bench_wallclock.py --quick    # CI perf-smoke mode

The script *warns* (GitHub annotation + stderr) when a scenario runs
more than ``--regress-factor`` (default 2x) slower than the committed
baseline in ``benchmarks/results/BENCH_wallclock.json``; it never fails
the build — CI runners are too noisy for a hard wall-clock gate.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np

import common
from repro.core import TahoeConfig, TahoeEngine
from repro.core.engine import convert_forest
from repro.datasets import load_dataset, train_test_split
from repro.formats import build_adaptive_layout
from repro.formats.tree_rearrange import round_robin_assignment
from repro.gpusim.specs import GPU_SPECS
from repro.gpusim.trace import trace_sample_parallel, trace_tree_parallel
from repro.serving import InferenceRequest, SchedulerConfig, TahoeServer
from repro.trees import RandomForestTrainer
from repro.trees.io import forest_from_dict, forest_to_dict

RESULT_PATH = common._RESULTS_DIR / "BENCH_wallclock.json"
CACHE = Path(__file__).resolve().parent / ".cache" / "wallclock-letter-rf60d8.json"

N_TREES, MAX_DEPTH = 60, 8


def profiled_workload():
    """The issue's profiled scenario: 60-tree depth-8 RF, letter, P100."""
    data = load_dataset("letter", scale=0.6, seed=11)
    split = train_test_split(data, seed=11)
    if CACHE.exists():
        forest = forest_from_dict(json.loads(CACHE.read_text()))
    else:
        forest = RandomForestTrainer(
            n_trees=N_TREES, max_depth=MAX_DEPTH, seed=3
        ).fit(split.train)
        CACHE.parent.mkdir(exist_ok=True)
        CACHE.write_text(json.dumps(forest_to_dict(forest)))
    X = split.test.X
    if X.shape[0] < 3000:
        X = np.tile(X, (3000 // X.shape[0] + 1, 1))[:3000]
    return forest, np.ascontiguousarray(X[:3000])


def serve_replay(n: int, repeats: int) -> common.Timing:
    """Wall seconds of one ``run()`` over ``n`` one-row native requests
    arriving at 50k req/s; each burst is built outside the timed call."""
    trained = common.workload("letter")
    pool = np.ascontiguousarray(trained.split.test.X)
    server = TahoeServer(
        trained.forest, GPU_SPECS["P100"], scheduler=SchedulerConfig(backend="native")
    )
    rows = np.random.default_rng(11).integers(0, pool.shape[0], n).tolist()
    repeat_index = itertools.count()

    def burst() -> list[InferenceRequest]:
        repeat = next(repeat_index)
        origin = 10.0 * repeat
        return [
            InferenceRequest(repeat * n + k, pool[row : row + 1], origin + k / 50_000.0)
            for k, row in enumerate(rows)
        ]

    server.run(burst())  # the first burst warms up
    return common.measure(server.run, repeats, setup=burst)


def run_scenarios(quick: bool) -> dict:
    """Time every scenario; returns {scenario_key: entry}."""
    n = 600 if quick else 3000
    repeats = 5 if quick else 7
    forest, X_full = profiled_workload()
    X = X_full[:n]
    spec = GPU_SPECS["P100"]
    engine = TahoeEngine(forest, spec)
    engine.predict(X[:50])  # warm layout caches and the COA probe
    layout = build_adaptive_layout(forest)
    assignments = round_robin_assignment(forest.n_trees, 64)
    rows = np.arange(n, dtype=np.int64)
    trees = np.arange(forest.n_trees, dtype=np.int64)
    scenarios = {
        f"predict/letter_rf60d8/P100/n{n}": lambda: engine.predict(X),
        f"kernel/tree_parallel/letter_rf60d8/n{n}": lambda: trace_tree_parallel(
            layout, X, rows, assignments, spec
        ),
        f"kernel/sample_parallel/letter_rf60d8/n{n}": lambda: trace_sample_parallel(
            layout, X, rows, trees, spec
        ),
    }
    out = {}
    for key, fn in scenarios.items():
        t = common.measure(fn, repeats)
        out[key] = {
            **_wall(t),
            "samples_per_s": n / t.median,
            "samples": n,
            "trees": int(forest.n_trees),
            "max_depth": MAX_DEPTH,
            "repeats": repeats,
            "mode": "quick" if quick else "full",
        }
        _print(key, t)
    forests = [common.workload(name).forest for name in common.DATASET_ORDER]
    n_trees = sum(f.n_trees for f in forests)
    t = common.measure(
        lambda: [convert_forest(f, TahoeConfig()) for f in forests], repeats
    )
    out["convert/fig5-all"] = {
        **_wall(t),
        "throughput_trees_per_s": n_trees / t.median,
        "forests": len(forests),
        "trees": n_trees,
        "repeats": repeats,
        "mode": "quick" if quick else "full",
    }
    _print("convert/fig5-all", t)
    n_serve = 2000 if quick else 12_500
    key = f"serve/letter-single-replay/n{n_serve}"
    t = serve_replay(n_serve, repeats)
    out[key] = {
        **_wall(t),
        "requests_per_s": n_serve / t.median,
        "requests": n_serve,
        "repeats": repeats,
        "mode": "quick" if quick else "full",
    }
    _print(key, t)
    return out


def _wall(t: common.Timing) -> dict:
    return {"wall_s": t.median, "wall_s_q1": t.q1, "wall_s_q3": t.q3}


def _print(key: str, t: common.Timing) -> None:
    print(
        f"{key:45} {t.median * 1e3:9.1f} ms  (IQR {t.q1 * 1e3:.1f}-{t.q3 * 1e3:.1f})"
    )


def _payload(scenarios: dict) -> dict:
    return {"time_domain": "wall", "wallclock_schema": 2, "scenarios": scenarios}


def load_baseline() -> dict:
    """Scenario entries of the committed artifact (empty when absent)."""
    if not RESULT_PATH.exists():
        return {}
    try:
        return json.loads(RESULT_PATH.read_text())["payload"]["scenarios"]
    except (json.JSONDecodeError, KeyError):
        return {}


def check_regressions(
    baseline: dict, fresh: dict, factor: float
) -> list[str]:
    """Warn-only comparison against the committed per-scenario numbers."""
    warnings = []
    for key, entry in fresh.items():
        old = baseline.get(key)
        if not old or old.get("wall_s", 0) <= 0:
            continue
        ratio = entry["wall_s"] / old["wall_s"]
        if ratio > factor:
            warnings.append(
                f"{key}: {entry['wall_s'] * 1e3:.1f} ms is {ratio:.2f}x the "
                f"baseline {old['wall_s'] * 1e3:.1f} ms (threshold {factor}x)"
            )
    return warnings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI perf-smoke mode")
    parser.add_argument(
        "--regress-factor",
        type=float,
        default=2.0,
        help="warn when a scenario is this many times slower than the baseline",
    )
    args = parser.parse_args(argv)
    baseline = load_baseline()
    fresh = run_scenarios(quick=args.quick)
    for warning in check_regressions(baseline, fresh, args.regress_factor):
        # GitHub Actions renders ::warning:: as an annotation; stderr for
        # local runs.
        print(f"::warning title=perf-smoke regression::{warning}")
        print(f"PERF WARNING: {warning}", file=sys.stderr)
    merged = dict(baseline)
    merged.update(fresh)
    path = common.write_bench_report("wallclock", _payload(merged))
    print(f"wrote {path}")
    return 0


def test_wallclock_smoke(benchmark):
    """Suite entry: track the quick scenarios alongside the figure runs."""
    fresh = benchmark.pedantic(lambda: run_scenarios(quick=True), rounds=1, iterations=1)
    merged = dict(load_baseline())
    merged.update(fresh)
    common.write_bench_report("wallclock", _payload(merged))
    assert all(entry["wall_s"] > 0 for entry in fresh.values())


if __name__ == "__main__":
    raise SystemExit(main())
