"""Cross-module integration tests.

These exercise the full pipeline — synthesise data, train, convert,
select, simulate — and assert the paper's qualitative claims end to end.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import FILEngine, TahoeConfig, TahoeEngine, convert_forest
from repro.formats import build_reorg_layout, round_robin_assignment
from repro.gpusim import GPU_SPECS, trace_tree_parallel
from repro.strategies import coefficient_of_variation
from repro.trees import train_forest_for_spec


@pytest.fixture(scope="module")
def higgs_workload():
    """A Higgs-like forest: many trees, heterogeneous depth.

    Enough trees that round-robin dealing runs for several rounds per
    thread — the regime the paper's load-balance results live in.
    """
    return train_forest_for_spec("Higgs", scale=0.002, tree_scale=0.07, seed=4)


class TestEndToEnd:
    def test_every_engine_agrees_with_reference(self, higgs_workload, p100):
        forest, X = higgs_workload.forest, higgs_workload.split.test.X[:200]
        ref = forest.predict(X)
        for engine in (TahoeEngine(forest, p100), FILEngine(forest, p100)):
            np.testing.assert_allclose(engine.predict(X).predictions, ref, rtol=1e-5)

    def test_tahoe_beats_fil_on_higgs_like_forest(self, higgs_workload, p100):
        """The headline claim, in shape: Tahoe outperforms FIL."""
        forest, X = higgs_workload.forest, higgs_workload.split.test.X[:300]
        fil_time = FILEngine(forest, p100).predict(X).total_time
        tahoe_time = TahoeEngine(forest, p100).predict(X).total_time
        assert tahoe_time < fil_time

    def test_speedup_on_all_three_gpus(self, higgs_workload):
        forest, X = higgs_workload.forest, higgs_workload.split.test.X[:200]
        for name, spec in GPU_SPECS.items():
            fil = FILEngine(forest, spec).predict(X).total_time
            tahoe = TahoeEngine(forest, spec).predict(X).total_time
            assert tahoe < fil, f"no speedup on {name}"

    def test_adaptive_format_improves_coalescing(self, higgs_workload, p100):
        """Section 7.3: load efficiency when reading the forest improves
        under the adaptive format."""
        forest, X = higgs_workload.forest, higgs_workload.split.test.X[:150]
        rows = np.arange(X.shape[0])
        tpb = 32
        assign = round_robin_assignment(forest.n_trees, tpb)
        reorg = trace_tree_parallel(build_reorg_layout(forest), X, rows, assign, p100)
        adaptive = trace_tree_parallel(
            convert_forest(forest, TahoeConfig(variable_width=False))[0], X, rows, assign, p100
        )
        assert (
            adaptive.counters.forest_global.load_efficiency
            > reorg.counters.forest_global.load_efficiency
        )

    def test_tree_rearrangement_reduces_cv(self, higgs_workload, p100):
        """Table 3 in shape: per-thread work CV drops under Tahoe's
        similarity-ordered layout."""
        forest, X = higgs_workload.forest, higgs_workload.split.test.X[:150]
        rows = np.arange(X.shape[0])
        assign = round_robin_assignment(forest.n_trees, 32)
        fil = trace_tree_parallel(build_reorg_layout(forest), X, rows, assign, p100)
        tahoe = trace_tree_parallel(convert_forest(forest, TahoeConfig())[0], X, rows, assign, p100)
        assert coefficient_of_variation(tahoe.per_thread_steps) < coefficient_of_variation(
            fil.per_thread_steps
        )

    def test_variable_width_saves_memory(self, higgs_workload):
        """Section 7.4: adaptive forest memory is smaller (paper: 23.6%)."""
        forest = higgs_workload.forest
        reorg = build_reorg_layout(forest)
        adaptive = convert_forest(forest, TahoeConfig())[0]
        saving = 1 - adaptive.total_bytes / reorg.total_bytes
        assert saving > 0.15

    def test_incremental_learning_cycle(self, higgs_workload, p100):
        """Update the forest, reconvert, predictions stay correct."""
        forest = higgs_workload.forest
        X = higgs_workload.split.test.X[:100]
        engine = TahoeEngine(forest, p100)
        smaller = forest.with_trees(forest.trees[: forest.n_trees // 2])
        engine.update_forest(smaller)
        np.testing.assert_allclose(
            engine.predict(X).predictions, smaller.predict(X), rtol=1e-5
        )

    def test_strategy_selection_varies_with_shared_capacity(
        self, higgs_workload, p100
    ):
        """Shrinking shared memory must eventually change the picked
        strategy away from shared-forest."""
        forest = higgs_workload.forest
        engine_big = TahoeEngine(forest, p100)
        tiny_spec = dataclasses.replace(p100, shared_mem_per_block=1024)
        engine_tiny = TahoeEngine(forest, tiny_spec)
        name_big = engine_big.select_strategy_name(1000)
        name_tiny = engine_tiny.select_strategy_name(1000)
        assert name_tiny != "shared_forest"
        assert isinstance(name_big, str)

    def test_registry_pipeline_runs_for_multiple_datasets(self, p100):
        """Several Table 2 datasets run end to end with correct output."""
        for name in ("covtype", "ijcnn1", "phishing"):
            w = train_forest_for_spec(name, scale=0.01, tree_scale=0.05, seed=1)
            X = w.split.test.X[:60]
            engine = TahoeEngine(w.forest, p100)
            np.testing.assert_allclose(
                engine.predict(X).predictions, w.forest.predict(X), rtol=1e-4, atol=1e-6
            )
