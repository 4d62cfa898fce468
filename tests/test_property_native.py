"""Property-based bit-identity: NativeEngine vs the simulator.

The native backend's headline claim is *bit-identical* predictions, not
approximately-equal ones, so the property sweep randomizes forest
structure (ragged depths, duplicate thresholds, default-left flags,
categorical bitset splits, per-class tree groups), aggregation
semantics (mean vs sum with shrinkage and base score), and batch
contents (including NaN, values exactly on thresholds, and category
codes past the end of a bitset) and asserts ``array_equal``
throughout.  Leaf values are dyadic rationals (integer / 16) so every
float32 sum is exact regardless of association — any mismatch is a
traversal bug, never float noise.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TahoeEngine, native
from repro.core.native import NativeEngine, _traverse_numpy, _traverse_scalar
from repro.trees.forest import Forest
from repro.trees.tree import LEAF, DecisionTree


def _draw_forest(draw, *, ragged: bool = False):
    """A small random forest, the rng that grew it, and whether it has
    categorical splits.

    ``ragged`` forces depth spread across trees: the first tree is full
    to ``max_depth`` (>= 4) and every other tree stops at a random cap,
    so most lanes die early and the kernel's lane compaction fires.
    """
    seed = draw(st.integers(0, 2**31 - 1))
    n_features = draw(st.integers(1, 5))
    n_classes = draw(st.sampled_from([1, 3]))
    # Every class needs at least one tree (the "mean" divisor).
    n_trees = n_classes * draw(st.integers(2 if ragged else 1, 6 // n_classes))
    max_depth = draw(st.integers(4, 6) if ragged else st.integers(1, 5))
    aggregation = draw(st.sampled_from(["mean", "sum"]))
    with_cat = draw(st.booleans())
    rng = np.random.default_rng(seed)

    def grow_tree(group, cap, p_split):
        feature, threshold, left, right = [], [], [], []
        value, default_left, visits = [], [], []
        cat_offset, cat_count, cat_bits = [], [], []

        def grow(depth):
            node = len(feature)
            feature.append(LEAF)
            # Thresholds on a coarse grid force exact-equality ties.
            threshold.append(0.0)
            left.append(LEAF)
            right.append(LEAF)
            value.append(float(rng.integers(-32, 32)) / 16.0)
            default_left.append(bool(rng.random() < 0.5))
            visits.append(1)
            cat_offset.append(-1)
            cat_count.append(0)
            if depth < cap and rng.random() < p_split:
                feature[node] = int(rng.integers(0, n_features))
                threshold[node] = float(rng.integers(-4, 4)) / 2.0
                if with_cat and rng.random() < 0.4:
                    # A 1- or 2-word bitset over category codes 0..63.
                    words = int(rng.integers(1, 3))
                    cat_offset[node] = len(cat_bits)
                    cat_count[node] = words
                    cat_bits.extend(rng.integers(0, 2**32, size=words).tolist())
                left[node] = grow(depth + 1)
                right[node] = grow(depth + 1)
            return node

        grow(0)
        cats = {}
        if with_cat:
            cats = dict(
                cat_offset=np.array(cat_offset, dtype=np.int64),
                cat_count=np.array(cat_count, dtype=np.int32),
                cat_bits=np.array(cat_bits, dtype=np.uint32),
            )
        return DecisionTree(
            feature=np.array(feature, dtype=np.int32),
            threshold=np.array(threshold, dtype=np.float32),
            left=np.array(left, dtype=np.int32),
            right=np.array(right, dtype=np.int32),
            value=np.array(value, dtype=np.float32),
            default_left=np.array(default_left),
            visit_count=np.array(visits, dtype=np.int64),
            group=group,
            **cats,
        )

    trees = []
    for t in range(n_trees):
        if not ragged:
            trees.append(grow_tree(t % n_classes, max_depth, 0.7))
        elif t == 0:
            trees.append(grow_tree(0, max_depth, 1.0))
        else:
            trees.append(grow_tree(t % n_classes, int(rng.integers(0, 3)), 0.7))
    forest = Forest(
        trees=trees,
        n_attributes=n_features,
        n_classes=n_classes,
        task="regression",
        aggregation=aggregation,
        base_score=float(rng.integers(-8, 8)) / 4.0 if aggregation == "sum" else 0.0,
        learning_rate=0.5 if aggregation == "sum" else 1.0,
    )
    return forest, rng, with_cat


def _draw_rows(rng, n_rows: int, n_features: int, with_cat: bool) -> np.ndarray:
    """Inference rows on the threshold grid (equality ties constantly),
    with whole category codes, some past the end of a 2-word bitset."""
    X = (rng.integers(-6, 6, size=(n_rows, n_features)) / 2.0).astype(np.float32)
    if with_cat:
        mask = rng.random(X.shape) < 0.4
        X[mask] = rng.integers(0, 80, size=int(mask.sum()))
    return X


def _add_nan(rng, X: np.ndarray) -> None:
    mask = rng.random(X.shape) < 0.2
    X[mask] = np.nan


@st.composite
def random_forests(draw):
    """A small random forest plus a batch of inference rows."""
    forest, rng, with_cat = _draw_forest(draw)
    n_rows = draw(st.integers(1, 40))
    with_nan = draw(st.booleans())
    X = _draw_rows(rng, n_rows, forest.n_attributes, with_cat)
    if with_nan:
        _add_nan(rng, X)
    return forest, X


@st.composite
def chunked_batches(draw):
    """A ragged forest, a lane-block size in rows, and a batch of
    ``rows-1``, ``rows``, ``rows+1`` or ``3*rows+7`` rows whose NaNs (if
    any) sit only in the last block."""
    forest, rng, with_cat = _draw_forest(draw, ragged=True)
    rows = draw(st.integers(1, 6))
    n_rows = draw(
        st.sampled_from([r for r in (rows - 1, rows, rows + 1, 3 * rows + 7) if r])
    )
    X = _draw_rows(rng, n_rows, forest.n_attributes, with_cat)
    if draw(st.booleans()):
        last = (n_rows - 1) // rows * rows
        _add_nan(rng, X[last:])
    return forest, rows, X


@given(random_forests())
@settings(max_examples=50, deadline=None)
def test_native_is_bit_identical_to_tahoe(p100, case):
    forest, X = case
    native = NativeEngine(forest, p100)
    tahoe = TahoeEngine(forest, p100)
    assert np.array_equal(
        native.predict(X).predictions,
        tahoe.predict(X).predictions,
        equal_nan=True,
    )


@given(random_forests())
@settings(max_examples=30, deadline=None)
def test_scalar_kernel_agrees_with_numpy(p100, case):
    """The pure-Python scalar reference (the code numba compiles) and the
    numpy kernel produce identical per-class leaf sums."""
    forest, X = case
    assert _kernels_agree(NativeEngine(forest, p100).flat, X)


def _kernels_agree(flat, X) -> bool:
    scalar = np.zeros((X.shape[0], flat.n_groups), dtype=np.float64)
    _traverse_scalar(X, *flat.scalar_args(), scalar)
    # The numpy kernel fills a 1-D accumulator for single-output forests.
    vector = np.empty(scalar.shape if flat.n_groups > 1 else X.shape[0])
    _traverse_numpy(X, flat, vector)
    return np.array_equal(scalar.reshape(vector.shape), vector)


@given(chunked_batches())
@settings(max_examples=60, deadline=None)
def test_numpy_kernel_exact_across_lane_blocks(p100, case):
    """Batches that span several lane blocks, with compaction firing
    inside later blocks and NaNs only in the last one: the reused
    per-call scratch (and the compaction bookkeeping over it) must leave
    every block's sums identical to the scalar reference's."""
    forest, rows, X = case
    flat = NativeEngine(forest, p100).flat
    with mock.patch.object(native, "_TARGET_LANES", rows * flat.n_trees):
        assert _kernels_agree(flat, X)


def test_compaction_inside_later_blocks(p100):
    """Deterministic companion of the property above: one depth-5 chain
    next to five stumps leaves at most 1 lane in 6 alive at depth 2, so
    every block compacts; 3*4+7 rows make four blocks, the last short."""
    chain = DecisionTree(
        feature=np.array([0, LEAF, 1, LEAF, 0, LEAF, 1, LEAF, 0, LEAF, LEAF], dtype=np.int32),
        threshold=np.array([1, 0, 1, 0, 0, 0, 0, 0, -1, 0, 0], dtype=np.float32),
        left=np.array([2, LEAF, 4, LEAF, 6, LEAF, 8, LEAF, 9, LEAF, LEAF], dtype=np.int32),
        right=np.array([1, LEAF, 3, LEAF, 5, LEAF, 7, LEAF, 10, LEAF, LEAF], dtype=np.int32),
        value=np.arange(11, dtype=np.float32) / 4,
        default_left=np.array([True, False] * 5 + [True]),
        visit_count=np.ones(11, dtype=np.int64),
    )
    stump = DecisionTree(
        feature=np.array([LEAF], dtype=np.int32),
        threshold=np.zeros(1, dtype=np.float32),
        left=np.array([LEAF], dtype=np.int32),
        right=np.array([LEAF], dtype=np.int32),
        value=np.full(1, 0.5, dtype=np.float32),
        default_left=np.zeros(1, dtype=bool),
        visit_count=np.ones(1, dtype=np.int64),
    )
    forest = Forest(trees=[chain] + [stump] * 5, n_attributes=2, task="regression")
    flat = NativeEngine(forest, p100).flat
    rng = np.random.default_rng(5)
    X = (rng.integers(-4, 4, size=(3 * 4 + 7, 2)) / 2.0).astype(np.float32)
    X[-2:, 1] = np.nan
    with mock.patch.object(native, "_TARGET_LANES", 4 * flat.n_trees):
        assert _kernels_agree(flat, X)


@given(st.integers(1, 8))
@settings(max_examples=5, deadline=None)
def test_empty_batch_always_raises(p100, n_features):
    tree = DecisionTree(
        feature=np.array([LEAF], dtype=np.int32),
        threshold=np.zeros(1, dtype=np.float32),
        left=np.array([LEAF], dtype=np.int32),
        right=np.array([LEAF], dtype=np.int32),
        value=np.ones(1, dtype=np.float32),
        default_left=np.zeros(1, dtype=bool),
        visit_count=np.ones(1, dtype=np.int64),
    )
    forest = Forest(trees=[tree], n_attributes=n_features, task="regression")
    engine = NativeEngine(forest, p100)
    with pytest.raises(ValueError, match="empty inference batch"):
        engine.predict(np.empty((0, n_features), dtype=np.float32))
