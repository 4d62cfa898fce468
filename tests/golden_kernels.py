"""Deterministic kernel/strategy scenarios for equivalence goldens.

The PR-2 kernel rewrite (packed-key memory model, batched trace
accounting) must be *bit-identical* to the original per-level kernels.
This module defines a fixed set of scenarios covering both trace
mappings, every node/sample memory-space combination and all four
strategies, and serialises every observable output — counters, level
stats, per-thread steps, leaf sums, predictions — into plain JSON.

``python tests/golden_kernels.py`` regenerates
``tests/goldens/kernel_equivalence.json`` (run against the *reference*
implementation); ``tests/test_kernel_equivalence.py`` asserts the
current implementation reproduces the file exactly.  JSON floats
round-trip exactly (``repr`` is shortest-roundtrip), so ``==`` on the
decoded structures is a bit-identity check.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.core import TahoeConfig, TahoeEngine, convert_forest
from repro.datasets import load_dataset, train_test_split
from repro.formats import build_reorg_layout
from repro.formats.tree_rearrange import round_robin_assignment
from repro.gpusim import trace
from repro.gpusim.specs import GPU_SPECS
from repro.gpusim.trace import trace_sample_parallel, trace_tree_parallel
from repro.strategies import ALL_STRATEGIES, StrategyNotApplicable
from repro.trees import GBDTTrainer, RandomForestTrainer

GOLDEN_PATH = Path(__file__).resolve().parent / "goldens" / "kernel_equivalence.json"


@contextmanager
def _tile_rows(rows: int):
    """Cap traversal tiles at ``rows`` warp rows, forcing several tiles."""
    saved = trace.TILE_SLOTS
    trace.TILE_SLOTS = rows * 32
    try:
        yield
    finally:
        trace.TILE_SLOTS = saved


def _arr(a) -> list:
    """Exact JSON-able view of an ndarray (floats round-trip via repr)."""
    return np.asarray(a).tolist()


def _counters(c) -> dict:
    return {
        name: {
            "requested_bytes": int(m.requested_bytes),
            "fetched_bytes": int(m.fetched_bytes),
            "transactions": int(m.transactions),
            "accesses": int(m.accesses),
        }
        for name, m in (
            ("forest_global", c.forest_global),
            ("sample_global", c.sample_global),
            ("output_global", c.output_global),
            ("shared_read", c.shared_read),
            ("shared_write", c.shared_write),
        )
    }


def _level_stats(ls) -> dict | None:
    if ls is None:
        return None
    return {
        "distance_sum": _arr(ls.distance_sum),
        "pair_count": _arr(ls.pair_count),
        "requested": _arr(ls.requested),
        "fetched": _arr(ls.fetched),
    }


def _trace_result(tr) -> dict:
    return {
        "leaf_sum": _arr(tr.leaf_sum),
        "per_thread_steps": _arr(tr.per_thread_steps),
        "counters": _counters(tr.counters),
        "level_stats": _level_stats(tr.level_stats),
        "node_visits": int(tr.node_visits),
    }


def _workloads():
    data = load_dataset("letter", scale=0.08, seed=11)
    split = train_test_split(data, seed=11)
    rf = RandomForestTrainer(
        n_trees=24, max_depth=6, depth_jitter=0.5, feature_fraction=0.5, seed=3
    ).fit(split.train)
    gbdt = GBDTTrainer(n_trees=16, max_depth=4, depth_jitter=0.4, seed=3).fit(
        split.train
    )
    X = split.test.X[:120].copy()
    # Exercise the missing-value default-direction path.
    X_nan = X.copy()
    X_nan[::7, 0] = np.nan
    X_nan[3::11, 2] = np.nan
    return rf, gbdt, X, X_nan


def run_all() -> dict:
    """Run every scenario and return the full observable-output tree."""
    spec = GPU_SPECS["P100"]
    rf, gbdt, X, X_nan = _workloads()
    out: dict = {"kernels": {}, "strategies": {}, "engine": {}}

    # --- raw kernels -----------------------------------------------------
    for forest_name, forest, samples in (
        ("rf", rf, X),
        ("rf_nan", rf, X_nan),
        ("gbdt", gbdt, X),
    ):
        layout = convert_forest(forest, TahoeConfig())[0]
        reorg = build_reorg_layout(forest)
        rows = np.arange(96, dtype=np.int64)
        assign = round_robin_assignment(forest.n_trees, 48)
        key = f"tree_parallel/{forest_name}"
        out["kernels"][key] = {}
        for node_space, sample_space in (
            ("global", "shared"),
            ("global", "global"),
            ("shared", "shared"),
        ):
            with _tile_rows(40):
                tr = trace_tree_parallel(
                    layout,
                    samples,
                    rows,
                    assign,
                    spec,
                    node_space=node_space,
                    sample_space=sample_space,
                    collect_level_stats=True,
                )
            out["kernels"][key][f"{node_space}/{sample_space}"] = _trace_result(tr)
        # Reorg layout, default spaces, odd row set (non-multiple of a tile).
        with _tile_rows(33):
            tr = trace_tree_parallel(
                reorg, samples, np.arange(77, dtype=np.int64), assign, spec
            )
        out["kernels"][key]["reorg/default"] = _trace_result(tr)

        key = f"sample_parallel/{forest_name}"
        out["kernels"][key] = {}
        trees = np.arange(forest.n_trees, dtype=np.int64)
        for node_space, sample_space in (
            ("global", "global"),
            ("shared", "global"),
            ("shared", "shared"),
        ):
            with _tile_rows(2):
                tr = trace_sample_parallel(
                    layout,
                    samples,
                    np.arange(90, dtype=np.int64),
                    trees,
                    spec,
                    node_space=node_space,
                    sample_space=sample_space,
                    collect_level_stats=True,
                )
            out["kernels"][key][f"{node_space}/{sample_space}"] = _trace_result(tr)
        # Tree subset on the reorg layout (the splitting strategy's shape).
        with _tile_rows(1):
            tr = trace_sample_parallel(
                reorg, samples, np.arange(51, dtype=np.int64), trees[1::2], spec
            )
        out["kernels"][key]["reorg/subset"] = _trace_result(tr)

    # --- the four strategies --------------------------------------------
    for forest_name, forest, samples in (("rf", rf, X), ("gbdt", gbdt, X_nan)):
        layout = convert_forest(forest, TahoeConfig())[0]
        rows = np.arange(100, dtype=np.int64)
        for cls in ALL_STRATEGIES:
            strategy = cls()
            try:
                result = strategy.run(
                    layout, samples, spec, sample_rows=rows, collect_level_stats=True
                )
            except StrategyNotApplicable as exc:
                out["strategies"][f"{strategy.name}/{forest_name}"] = {
                    "not_applicable": str(exc)
                }
                continue
            out["strategies"][f"{strategy.name}/{forest_name}"] = {
                "predictions": _arr(result.predictions),
                "counters": _counters(result.counters),
                "per_thread_steps": _arr(result.per_thread_steps),
                "level_stats": _level_stats(result.level_stats),
                "n_blocks": int(result.n_blocks),
                "threads_per_block": int(result.threads_per_block),
            }

    # --- engine end-to-end (selector + COA probe included) ---------------
    engine = TahoeEngine(rf, spec)
    er = engine.predict(X, batch_size=64)
    out["engine"]["rf/batch64"] = {
        "predictions": _arr(er.predictions),
        "total_time": float(er.total_time),
        "strategies_used": list(er.strategies_used),
    }
    return out


def main() -> None:
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    payload = {"schema_version": 1, "scenarios": run_all()}
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
