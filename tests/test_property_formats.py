"""Property-based tests: random forests through layouts and strategies."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TahoeConfig, convert_forest
from repro.formats import build_reorg_layout
from repro.formats.partition import PartitionError, partition_trees
from repro.gpusim.specs import GPU_SPECS
from repro.strategies import DirectStrategy, SharedDataStrategy
from repro.trees.forest import Forest
from tests.test_property_trees import random_trees


@st.composite
def random_forests(draw):
    """A small random forest with consistent attribute width."""
    n_trees = draw(st.integers(2, 8))
    trees, widths, seed = [], [], 0
    for _ in range(n_trees):
        tree, n_features, s = draw(random_trees())
        trees.append(tree)
        widths.append(n_features)
        seed ^= s
    n_attributes = max(widths)
    forest = Forest(
        trees=trees,
        n_attributes=n_attributes,
        task="regression",
        aggregation="mean",
    )
    return forest, seed


@given(random_forests())
@settings(max_examples=25, deadline=None)
def test_layouts_preserve_predictions(forest_info):
    forest, seed = forest_info
    rng = np.random.default_rng(seed % (2**31))
    X = rng.standard_normal((40, forest.n_attributes)).astype(np.float32)
    reference = forest.predict(X)
    for layout in (build_reorg_layout(forest), convert_forest(forest, TahoeConfig())[0]):
        np.testing.assert_allclose(layout.forest.predict(X), reference, rtol=1e-5)


@given(random_forests())
@settings(max_examples=25, deadline=None)
def test_layout_addresses_unique_and_bounded(forest_info):
    forest, _ = forest_info
    layout = convert_forest(forest, TahoeConfig())[0]
    addr = np.concatenate(layout.node_address)
    assert len(np.unique(addr)) == len(addr)
    assert addr.min() >= 0
    assert addr.max() + layout.node_size <= layout.total_bytes


@given(random_forests())
@settings(max_examples=20, deadline=None)
def test_strategies_reproduce_reference(forest_info):
    forest, seed = forest_info
    rng = np.random.default_rng((seed + 1) % (2**31))
    X = rng.standard_normal((33, forest.n_attributes)).astype(np.float32)
    layout = convert_forest(forest, TahoeConfig())[0]
    spec = GPU_SPECS["P100"]
    reference = forest.predict(X)
    for strategy in (SharedDataStrategy(), DirectStrategy()):
        result = strategy.run(layout, X, spec)
        np.testing.assert_allclose(result.predictions, reference, rtol=1e-5)
        assert result.time > 0


@given(random_forests(), st.integers(5, 14))
@settings(max_examples=25, deadline=None)
def test_partition_invariants(forest_info, capacity_pow):
    forest, _ = forest_info
    layout = convert_forest(forest, TahoeConfig())[0]
    capacity = 2**capacity_pow
    try:
        parts = partition_trees(layout, capacity)
    except PartitionError:
        return  # a single tree legitimately exceeds the capacity
    flat = [p for part in parts for p in part]
    assert flat == list(range(layout.n_trees))
    assert all(len(p) >= 1 for p in parts)
