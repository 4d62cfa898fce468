"""Tests for the four inference strategies."""

import dataclasses

import numpy as np
import pytest

from repro.core import TahoeConfig, convert_forest
from repro.strategies import (
    DirectStrategy,
    SharedDataStrategy,
    SharedForestStrategy,
    SplittingSharedForestStrategy,
    StrategyNotApplicable,
    coefficient_of_variation,
    finalize_predictions,
)
from repro.formats.partition import PartitionError, partition_trees


@pytest.fixture(scope="module")
def adaptive_layout(request):
    forest = request.getfixturevalue("small_forest")
    return convert_forest(forest, TahoeConfig())[0]


@pytest.fixture(scope="module")
def gbdt_layout(request):
    forest = request.getfixturevalue("small_gbdt")
    return convert_forest(forest, TahoeConfig())[0]


class TestFinalizePredictions:
    def test_mean(self, small_forest, test_X):
        leaf_sum = sum(t.predict(test_X).astype(np.float64) for t in small_forest.trees)
        np.testing.assert_allclose(
            finalize_predictions(small_forest, leaf_sum),
            small_forest.predict(test_X),
            rtol=1e-6,
        )

    def test_sum_with_sigmoid(self, small_gbdt, test_X):
        leaf_sum = sum(t.predict(test_X).astype(np.float64) for t in small_gbdt.trees)
        np.testing.assert_allclose(
            finalize_predictions(small_gbdt, leaf_sum),
            small_gbdt.predict(test_X),
            rtol=1e-5,
        )


class TestCoefficientOfVariation:
    def test_uniform_zero(self):
        assert coefficient_of_variation(np.array([3, 3, 3])) == 0.0

    def test_empty_zero(self):
        assert coefficient_of_variation(np.array([])) == 0.0

    def test_known_value(self):
        cv = coefficient_of_variation(np.array([1.0, 3.0]))
        assert cv == pytest.approx(0.5)


class TestEachStrategy:
    @pytest.mark.parametrize(
        "strategy_cls",
        [SharedDataStrategy, DirectStrategy, SharedForestStrategy, SplittingSharedForestStrategy],
    )
    def test_predictions_match_reference(
        self, strategy_cls, adaptive_layout, small_forest, test_X, p100
    ):
        result = strategy_cls().run(adaptive_layout, test_X, p100)
        np.testing.assert_allclose(
            result.predictions, small_forest.predict(test_X), rtol=1e-5
        )

    @pytest.mark.parametrize(
        "strategy_cls",
        [SharedDataStrategy, DirectStrategy, SharedForestStrategy, SplittingSharedForestStrategy],
    )
    def test_gbdt_predictions(self, strategy_cls, gbdt_layout, small_gbdt, test_X, p100):
        result = strategy_cls().run(gbdt_layout, test_X, p100)
        np.testing.assert_allclose(
            result.predictions, small_gbdt.predict(test_X), rtol=1e-4, atol=1e-6
        )

    @pytest.mark.parametrize(
        "strategy_cls",
        [SharedDataStrategy, DirectStrategy, SharedForestStrategy, SplittingSharedForestStrategy],
    )
    def test_positive_time_and_throughput(
        self, strategy_cls, adaptive_layout, test_X, p100
    ):
        result = strategy_cls().run(adaptive_layout, test_X, p100)
        assert result.time > 0
        assert result.throughput > 0
        assert result.batch_size == test_X.shape[0]

    def test_sample_rows_subset(self, adaptive_layout, small_forest, test_X, p100):
        rows = np.array([1, 5, 9, 33])
        result = DirectStrategy().run(adaptive_layout, test_X, p100, sample_rows=rows)
        np.testing.assert_allclose(
            result.predictions, small_forest.predict(test_X[rows]), rtol=1e-5
        )


class TestSharedData:
    def test_uses_block_reduction(self, adaptive_layout, test_X, p100):
        result = SharedDataStrategy().run(adaptive_layout, test_X, p100)
        assert result.breakdown.t_block_reduce > 0
        assert result.breakdown.t_global_reduce == 0

    def test_samples_staged_to_shared(self, adaptive_layout, test_X, p100):
        result = SharedDataStrategy().run(adaptive_layout, test_X, p100)
        assert result.counters.shared_write.requested_bytes > 0
        assert result.counters.shared_read.requested_bytes > 0

    def test_samples_per_block(self, adaptive_layout, p100):
        s = SharedDataStrategy()
        cap = s.samples_per_block(adaptive_layout, p100)
        # letter: 16 attributes * 4 B = 64 B per sample.
        assert cap == p100.shared_mem_per_block // 64

    def test_huge_sample_falls_back_to_global(self, small_forest, test_X, p100):
        tiny = dataclasses.replace(p100, shared_mem_per_block=32)
        layout = convert_forest(small_forest, TahoeConfig())[0]
        result = SharedDataStrategy().run(layout, test_X, tiny)
        assert result.counters.shared_read.requested_bytes == 0

    def test_level_stats_collected(self, adaptive_layout, test_X, p100):
        result = SharedDataStrategy().run(
            adaptive_layout, test_X, p100, collect_level_stats=True
        )
        assert result.level_stats is not None


class TestDirect:
    def test_reduction_free_no_shared(self, adaptive_layout, test_X, p100):
        result = DirectStrategy().run(adaptive_layout, test_X, p100)
        assert result.breakdown.t_block_reduce == 0
        assert result.breakdown.t_global_reduce == 0
        assert result.counters.shared_read.requested_bytes == 0


class TestSharedForest:
    def test_rejects_oversized_forest(self, adaptive_layout, test_X, p100):
        tiny = dataclasses.replace(p100, shared_mem_per_block=64)
        with pytest.raises(StrategyNotApplicable):
            SharedForestStrategy().run(adaptive_layout, test_X, tiny)

    def test_forest_reads_from_shared(self, adaptive_layout, test_X, p100):
        result = SharedForestStrategy().run(adaptive_layout, test_X, p100)
        assert result.counters.forest_global.requested_bytes == 0
        assert result.counters.shared_read.requested_bytes > 0

    def test_is_applicable(self, adaptive_layout, p100):
        assert SharedForestStrategy().is_applicable(adaptive_layout, p100)
        tiny = dataclasses.replace(p100, shared_mem_per_block=64)
        assert not SharedForestStrategy().is_applicable(adaptive_layout, tiny)


class TestSplitting:
    def test_partition_covers_all_trees(self, adaptive_layout, p100):
        parts = partition_trees(adaptive_layout, 4096)
        combined = sorted(p for part in parts for p in part)
        assert combined == list(range(adaptive_layout.n_trees))

    def test_partition_respects_capacity(self, adaptive_layout):
        from repro.formats.layout import build_interleaved_layout

        capacity = 4096
        parts = partition_trees(adaptive_layout, capacity)
        forest = adaptive_layout.forest
        for part in parts:
            sub = forest.with_trees([forest.trees[p] for p in part])
            sub_layout = build_interleaved_layout(
                sub, adaptive_layout.record, None, "check"
            )
            assert sub_layout.total_bytes <= capacity

    def test_partition_rejects_oversized_tree(self, adaptive_layout):
        with pytest.raises(PartitionError):
            partition_trees(adaptive_layout, 8)

    def test_multi_part_run(self, adaptive_layout, small_forest, test_X, p100):
        tiny = dataclasses.replace(p100, shared_mem_per_block=4096)
        result = SplittingSharedForestStrategy().run(adaptive_layout, test_X, tiny)
        assert result.n_blocks > 1
        np.testing.assert_allclose(
            result.predictions, small_forest.predict(test_X), rtol=1e-5
        )

    def test_global_reduction_charged(self, adaptive_layout, test_X, p100):
        result = SplittingSharedForestStrategy().run(adaptive_layout, test_X, p100)
        assert result.breakdown.t_global_reduce > 0
        assert result.breakdown.t_block_reduce == 0

    def test_forest_staging_charged(self, adaptive_layout, test_X, p100):
        result = SplittingSharedForestStrategy().run(adaptive_layout, test_X, p100)
        assert result.counters.forest_global.requested_bytes > 0
        assert result.counters.shared_write.requested_bytes > 0
