"""Edge cases and failure injection across the stack.

Degenerate shapes (single tree, single sample, stump forests), hostile
inputs (all-NaN rows, infinities), and corrupted structures — the library
must either handle them exactly or fail loudly, never silently corrupt.
"""

import numpy as np
import pytest

from repro.core import FILEngine, TahoeConfig, TahoeEngine, convert_forest
from repro.formats import build_reorg_layout
from repro.strategies import ALL_STRATEGIES, StrategyNotApplicable
from repro.trees.forest import Forest
from repro.trees.tree import LEAF, DecisionTree


def _stump(feature: int, threshold: float, lo: float, hi: float) -> DecisionTree:
    return DecisionTree(
        feature=np.array([feature, LEAF, LEAF], dtype=np.int32),
        threshold=np.array([threshold, 0, 0], dtype=np.float32),
        left=np.array([1, LEAF, LEAF], dtype=np.int32),
        right=np.array([2, LEAF, LEAF], dtype=np.int32),
        value=np.array([0, lo, hi], dtype=np.float32),
        default_left=np.array([True, True, True]),
        visit_count=np.array([10, 6, 4], dtype=np.int64),
    )


@pytest.fixture()
def stump_forest():
    return Forest(
        trees=[_stump(0, 0.0, -1.0, 1.0), _stump(1, 0.5, 2.0, 4.0)],
        n_attributes=2,
        task="regression",
        aggregation="mean",
    )


class TestDegenerateShapes:
    def test_single_leaf_forest_through_engine(self, p100):
        forest = Forest(
            trees=[DecisionTree.single_leaf(3.0)],
            n_attributes=1,
            task="regression",
            aggregation="mean",
        )
        X = np.zeros((5, 1), dtype=np.float32)
        result = TahoeEngine(forest, p100).predict(X)
        np.testing.assert_allclose(result.predictions, 3.0)

    def test_single_sample_every_strategy(self, stump_forest, p100):
        layout = convert_forest(stump_forest, TahoeConfig())[0]
        X = np.array([[1.0, 0.0]], dtype=np.float32)
        for cls in ALL_STRATEGIES:
            try:
                result = cls().run(layout, X, p100)
            except StrategyNotApplicable:
                continue
            np.testing.assert_allclose(
                result.predictions, stump_forest.predict(X), rtol=1e-6
            )

    def test_stump_forest_engines_agree(self, stump_forest, p100):
        X = np.random.default_rng(0).standard_normal((64, 2)).astype(np.float32)
        fil = FILEngine(stump_forest, p100).predict(X)
        tahoe = TahoeEngine(stump_forest, p100).predict(X)
        np.testing.assert_allclose(fil.predictions, tahoe.predictions, rtol=1e-6)

    def test_batch_size_one(self, stump_forest, p100):
        X = np.random.default_rng(1).standard_normal((7, 2)).astype(np.float32)
        result = TahoeEngine(stump_forest, p100).predict(X, batch_size=1)
        assert len(result.batches) == 7
        np.testing.assert_allclose(
            result.predictions, stump_forest.predict(X), rtol=1e-6
        )


class TestHostileInputs:
    def test_all_nan_rows_follow_defaults(self, stump_forest, p100):
        X = np.full((9, 2), np.nan, dtype=np.float32)
        result = TahoeEngine(stump_forest, p100).predict(X)
        np.testing.assert_allclose(
            result.predictions, stump_forest.predict(X), rtol=1e-6
        )
        # Default path is left on both stumps -> (-1 + 2) / 2.
        np.testing.assert_allclose(result.predictions, 0.5)

    def test_infinities_route_consistently(self, stump_forest, p100):
        X = np.array(
            [[np.inf, -np.inf], [-np.inf, np.inf]], dtype=np.float32
        )
        engine = TahoeEngine(stump_forest, p100)
        np.testing.assert_allclose(
            engine.predict(X).predictions, stump_forest.predict(X), rtol=1e-6
        )

    def test_mixed_nan_columns(self, small_forest, p100, test_X):
        X = test_X.copy()
        X[::3, ::2] = np.nan
        result = TahoeEngine(small_forest, p100).predict(X)
        np.testing.assert_allclose(
            result.predictions, small_forest.predict(X), rtol=1e-5
        )


class TestCorruptedStructures:
    def test_cyclic_tree_rejected(self):
        with pytest.raises(ValueError):
            DecisionTree(
                feature=np.array([0, 1], dtype=np.int32),
                threshold=np.zeros(2, dtype=np.float32),
                left=np.array([1, 0], dtype=np.int32),  # cycle
                right=np.array([1, 0], dtype=np.int32),
                value=np.zeros(2, dtype=np.float32),
                default_left=np.ones(2, dtype=bool),
                visit_count=np.ones(2, dtype=np.int64),
            )

    def test_forest_feature_out_of_range_rejected(self, stump_forest):
        with pytest.raises(ValueError, match="references attribute"):
            Forest(
                trees=stump_forest.trees,
                n_attributes=1,  # tree 2 uses feature 1
                task="regression",
                aggregation="mean",
            )

    def test_child_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out-of-range"):
            DecisionTree(
                feature=np.array([0], dtype=np.int32),
                threshold=np.zeros(1, dtype=np.float32),
                left=np.array([5], dtype=np.int32),
                right=np.array([6], dtype=np.int32),
                value=np.zeros(1, dtype=np.float32),
                default_left=np.ones(1, dtype=bool),
                visit_count=np.ones(1, dtype=np.int64),
            )

    def test_layout_on_corrupt_free_forest_only(self, stump_forest):
        # Sanity: layouts validate through the Forest/Tree constructors,
        # so a successfully built forest always lays out.
        layout = build_reorg_layout(stump_forest)
        assert layout.total_bytes > 0


class TestStrategyOverridesAndConfig:
    def test_override_unapplicable_strategy_raises(self, p100):
        # A forest too big for shared memory, forced to shared_forest.
        import dataclasses

        forest = Forest(
            trees=[_stump(0, float(i), -i, i) for i in range(8)],
            n_attributes=1,
            task="regression",
            aggregation="mean",
        )
        tiny = dataclasses.replace(p100, shared_mem_per_block=8)
        engine = TahoeEngine(
            forest, tiny, config=TahoeConfig(strategy_override="shared_forest")
        )
        X = np.zeros((4, 1), dtype=np.float32)
        with pytest.raises(RuntimeError):
            engine.predict(X)

    def test_all_format_techniques_disabled_still_exact(
        self, small_forest, p100, test_X
    ):
        config = TahoeConfig(
            node_rearrangement=False,
            tree_rearrangement=False,
            variable_width=False,
        )
        engine = TahoeEngine(small_forest, p100, config=config)
        np.testing.assert_allclose(
            engine.predict(test_X).predictions,
            small_forest.predict(test_X),
            rtol=1e-5,
        )
