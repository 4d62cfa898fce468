"""Tests for the SHAP explanation subsystem (``repro.explain``).

Two pillars pin correctness:

* The **efficiency axiom** — per-sample attributions plus the base value
  reconstruct the engine's raw margin exactly (float64 tolerance) — on
  hypothesis-generated random forests including NaN routing and
  threshold ties, through every engine path (simulated Tahoe and FIL,
  native numpy, native numba when present).
* A **differential test** against a brute-force exhaustive-subset
  Shapley reference on tiny forests (≤4 features, ≤3 trees), per class
  for multiclass — the kernel's polynomial-time recurrence must match
  the O(2^F) definition, not just sum correctly.

Two more pin the tabulated kernel bit for bit: goldens recorded from
the per-sample kernel it replaced, and a property test mixing table
lanes with sample lanes in one call.
"""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FILEngine, TahoeEngine
from repro.core.native import NativeEngine
from repro.explain import (
    brute_force_shapley,
    build_path_set,
    compute_shap,
    path_set_for_layout,
    squeeze_single_class,
)
from repro.formats import build_adaptive_layout
from repro.gpusim.specs import GPU_SPECS
from repro.trees.forest import Forest
from repro.trees.tree import LEAF, DecisionTree
from tests.golden_shap import (
    CASES,
    GOLDEN_PATH,
    load_forest,
    phi_from_json,
    rows_from_json,
)

SPEC = GPU_SPECS["P100"]

#: Threshold grid shared with the sample generator so draws produce
#: exact ties (x == threshold) often.
_GRID = np.array([-1.0, -0.5, 0.0, 0.5, 1.0], dtype=np.float32)


def _grow_tree(rng, n_features, max_depth, group=0, cat_rate=0.0):
    """A random tree; ``cat_rate`` of its splits test category bitsets."""
    feature, threshold, left, right = [], [], [], []
    value, default_left, visits = [], [], []
    cat_offset, cat_count, cat_bits = [], [], []

    def grow(depth, visit):
        node = len(feature)
        feature.append(LEAF)
        threshold.append(0.0)
        left.append(LEAF)
        right.append(LEAF)
        value.append(float(rng.standard_normal()))
        default_left.append(bool(rng.random() < 0.5))
        visits.append(int(visit))
        cat_offset.append(-1)
        cat_count.append(0)
        if depth < max_depth and visit >= 2 and rng.random() < 0.75:
            feature[node] = int(rng.integers(0, n_features))
            threshold[node] = float(rng.choice(_GRID))
            if rng.random() < cat_rate:
                words = int(rng.integers(1, 3))
                cat_offset[node] = len(cat_bits)
                cat_count[node] = words
                cat_bits.extend(rng.integers(0, 2**32, size=words).tolist())
            lv = int(rng.integers(1, visit))
            left[node] = grow(depth + 1, lv)
            right[node] = grow(depth + 1, visit - lv)
        return node

    grow(0, int(rng.integers(4, 500)))
    has_cat = any(off >= 0 for off in cat_offset)
    return DecisionTree(
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold, dtype=np.float32),
        left=np.array(left, dtype=np.int32),
        right=np.array(right, dtype=np.int32),
        value=np.array(value, dtype=np.float32),
        default_left=np.array(default_left),
        visit_count=np.array(visits, dtype=np.int64),
        group=group,
        cat_offset=np.array(cat_offset) if has_cat else None,
        cat_count=np.array(cat_count) if has_cat else None,
        cat_bits=np.array(cat_bits, dtype=np.uint32) if has_cat else None,
    )


@st.composite
def random_forests(draw, max_trees=6, max_features=6, max_depth=4, cat_rate=0.0):
    """A random forest plus a sample block with NaNs and exact ties."""
    seed = draw(st.integers(0, 2**31 - 1))
    n_features = draw(st.integers(1, max_features))
    n_classes = draw(st.sampled_from([1, 1, 2, 3]))
    n_trees = draw(st.integers(max(1, n_classes), max_trees))
    aggregation = draw(st.sampled_from(["sum", "mean"]))
    rng = np.random.default_rng(seed)
    trees = [
        _grow_tree(rng, n_features, max_depth, group=i % n_classes, cat_rate=cat_rate)
        for i in range(n_trees)
    ]
    forest = Forest(
        trees=trees,
        n_attributes=n_features,
        aggregation=aggregation,
        learning_rate=float(rng.uniform(0.1, 1.0)) if aggregation == "sum" else 1.0,
        base_score=float(rng.normal()) if aggregation == "sum" else 0.0,
        n_classes=n_classes,
    )
    n_samples = draw(st.integers(1, 12))
    # Draw from the threshold grid (ties), off-grid noise, and NaN.
    X = rng.choice(_GRID, size=(n_samples, n_features)).astype(np.float32)
    noise = rng.random((n_samples, n_features))
    X = np.where(noise < 0.3, rng.normal(size=X.shape).astype(np.float32), X)
    if cat_rate:
        # Category codes in and past the one- and two-word bitsets.
        codes = rng.integers(-2, 70, size=X.shape).astype(np.float32)
        X = np.where(noise < 0.6, codes, X)
    X[noise > 0.85] = np.nan
    return forest, X


def _check_efficiency(forest, X, attributions, base_values, predictions):
    raw = np.asarray(forest.raw_margin(X), dtype=np.float64)
    phi = np.asarray(attributions, dtype=np.float64)
    if phi.ndim == 2:
        raw = raw[:, 0] if raw.ndim == 2 else raw
    recon = np.asarray(base_values) + phi.sum(axis=1)
    np.testing.assert_allclose(recon, raw, rtol=1e-9, atol=1e-9)
    # The result's own predictions are the same margins.
    np.testing.assert_allclose(
        np.asarray(predictions, dtype=np.float64), raw, rtol=1e-9, atol=1e-9
    )


class TestEfficiencyAxiom:
    @given(random_forests())
    @settings(max_examples=40, deadline=None)
    def test_tahoe_engine(self, forest_X):
        forest, X = forest_X
        result = TahoeEngine(forest, SPEC).explain(X)
        _check_efficiency(
            forest, X, result.attributions, result.base_values, result.predictions
        )

    @given(random_forests())
    @settings(max_examples=15, deadline=None)
    def test_fil_engine(self, forest_X):
        forest, X = forest_X
        result = FILEngine(forest, SPEC).explain(X)
        _check_efficiency(
            forest, X, result.attributions, result.base_values, result.predictions
        )

    @given(random_forests())
    @settings(max_examples=15, deadline=None)
    def test_native_engine_numpy(self, forest_X):
        forest, X = forest_X
        result = NativeEngine(forest, SPEC).explain(X)
        assert result.time_domain == "wall"
        _check_efficiency(
            forest, X, result.attributions, result.base_values, result.predictions
        )


@st.composite
def tiny_forests(draw):
    """Forests small enough for the O(2^F · paths) reference."""
    seed = draw(st.integers(0, 2**31 - 1))
    n_features = draw(st.integers(1, 4))
    n_classes = draw(st.sampled_from([1, 1, 2]))
    n_trees = draw(st.integers(max(1, n_classes), 3))
    aggregation = draw(st.sampled_from(["sum", "mean"]))
    rng = np.random.default_rng(seed)
    trees = [
        _grow_tree(rng, n_features, 3, group=i % n_classes) for i in range(n_trees)
    ]
    forest = Forest(
        trees=trees,
        n_attributes=n_features,
        aggregation=aggregation,
        learning_rate=float(rng.uniform(0.1, 1.0)) if aggregation == "sum" else 1.0,
        base_score=float(rng.normal()) if aggregation == "sum" else 0.0,
        n_classes=n_classes,
    )
    X = rng.choice(_GRID, size=(draw(st.integers(1, 4)), n_features)).astype(
        np.float32
    )
    if draw(st.booleans()):
        X[0, 0] = np.nan
    return forest, X


class TestBruteForceDifferential:
    @given(tiny_forests())
    @settings(max_examples=30, deadline=None)
    def test_kernel_matches_exhaustive_shapley(self, forest_X):
        forest, X = forest_X
        ps = build_path_set(forest)
        phi, base, _margins = compute_shap(ps, X)
        ref_phi, ref_base = brute_force_shapley(forest, X)
        np.testing.assert_allclose(phi, ref_phi, rtol=1e-9, atol=1e-10)
        np.testing.assert_allclose(base, ref_base, rtol=1e-9, atol=1e-10)

    def test_multiclass_per_class_attributions(self):
        rng = np.random.default_rng(11)
        trees = [_grow_tree(rng, 3, 3, group=i % 2) for i in range(2)]
        forest = Forest(
            trees=trees,
            n_attributes=3,
            aggregation="sum",
            learning_rate=0.5,
            base_score=0.2,
            n_classes=2,
        )
        X = rng.choice(_GRID, size=(5, 3)).astype(np.float32)
        phi, base, _ = compute_shap(build_path_set(forest), X)
        ref_phi, ref_base = brute_force_shapley(forest, X)
        assert phi.shape == (5, 3, 2)
        for k in range(2):
            np.testing.assert_allclose(
                phi[:, :, k], ref_phi[:, :, k], rtol=1e-9, atol=1e-10
            )
        np.testing.assert_allclose(base, ref_base, rtol=1e-9, atol=1e-10)


class TestCategoricalExplain:
    def _cat_forest(self):
        # Root: categorical membership on feature 0 ({2, 5} of 8 codes);
        # left subtree splits numerically on feature 1.
        tree = DecisionTree(
            feature=np.array([0, 1, LEAF, LEAF, LEAF], dtype=np.int32),
            threshold=np.array([0.0, 0.5, 0.0, 0.0, 0.0], dtype=np.float32),
            left=np.array([1, 3, LEAF, LEAF, LEAF], dtype=np.int32),
            right=np.array([2, 4, LEAF, LEAF, LEAF], dtype=np.int32),
            value=np.array([0.0, 0.0, 0.3, -0.2, 0.7], dtype=np.float32),
            default_left=np.array([False, True, False, False, False]),
            visit_count=np.array([100, 60, 40, 35, 25], dtype=np.int64),
            cat_offset=np.array([0, -1, -1, -1, -1], dtype=np.int64),
            cat_count=np.array([1, 0, 0, 0, 0], dtype=np.int32),
            cat_bits=np.array([(1 << 2) | (1 << 5)], dtype=np.uint32),
        )
        return Forest(trees=[tree], n_attributes=2, aggregation="sum")

    def test_efficiency_with_bitset_nan_and_out_of_range(self):
        forest = self._cat_forest()
        X = np.array(
            [[2.0, 0.1], [2.0, 0.9], [5.0, 0.4], [3.0, 0.0],
             [np.nan, 0.0], [-4.0, 0.2], [999.0, 0.2]],
            dtype=np.float32,
        )
        result = TahoeEngine(forest, SPEC).explain(X)
        _check_efficiency(
            forest, X, result.attributions, result.base_values, result.predictions
        )

    def test_matches_brute_force(self):
        forest = self._cat_forest()
        X = np.array(
            [[2.0, 0.1], [5.0, 0.9], [3.0, 0.4], [np.nan, 0.0]], dtype=np.float32
        )
        phi, base, _ = compute_shap(build_path_set(forest), X)
        ref_phi, ref_base = brute_force_shapley(forest, X)
        np.testing.assert_allclose(phi, ref_phi, rtol=1e-9, atol=1e-10)
        np.testing.assert_allclose(base, ref_base, rtol=1e-9, atol=1e-10)


class TestStrategies:
    def test_shared_paths_matches_direct_bitwise(self, small_forest):
        from repro.strategies import ExplainDirectStrategy, ExplainSharedPathsStrategy

        layout = build_adaptive_layout(small_forest)
        rng = np.random.default_rng(0)
        X = rng.normal(size=(32, small_forest.n_attributes)).astype(np.float32)
        rows = np.arange(32, dtype=np.int64)
        direct = ExplainDirectStrategy().run(layout, X, SPEC, sample_rows=rows)
        ps = path_set_for_layout(layout)
        if ps.image_bytes <= SPEC.shared_mem_per_block:
            shared = ExplainSharedPathsStrategy().run(
                layout, X, SPEC, sample_rows=rows
            )
            np.testing.assert_array_equal(direct.attributions, shared.attributions)
            np.testing.assert_array_equal(direct.predictions, shared.predictions)

    def test_rank_explain_strategies(self, small_forest):
        from repro.perfmodel import measure_hardware_parameters, rank_explain_strategies

        layout = build_adaptive_layout(small_forest)
        hw = measure_hardware_parameters(SPEC)
        choices = rank_explain_strategies(layout, 1000, SPEC, hw)
        assert [c.name for c in choices][0] in (
            "explain_direct",
            "explain_shared_paths",
        )
        assert choices[0].predicted_time < float("inf")
        assert choices == sorted(choices, key=lambda c: c.predicted_time)

    def test_engine_records_explain_decisions(self, small_forest):
        engine = TahoeEngine(small_forest, SPEC)
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, small_forest.n_attributes)).astype(np.float32)
        result = engine.explain(X, batch_size=20, report=True)
        assert len(result.batches) == 2
        assert all(
            s in ("explain_direct", "explain_shared_paths")
            for s in result.strategies_used
        )
        assert result.report is not None


class TestServingExplain:
    def test_mixed_kinds_batch_homogeneously(self, small_forest, p100, test_X):
        from repro.serving import InferenceRequest, SchedulerConfig, TahoeServer

        server = TahoeServer(
            small_forest,
            p100,
            scheduler=SchedulerConfig(n_engines=1, max_wait=1e-3, max_batch=256),
        )
        reqs = [
            InferenceRequest(
                request_id=i,
                X=test_X[i % test_X.shape[0]][None, :],
                arrival_time=i * 1e-5,
                kind="explain" if i % 3 == 0 else "predict",
            )
            for i in range(30)
        ]
        result = server.run(reqs)
        assert all(r.ok for r in result.responses)
        engine = TahoeEngine(small_forest, p100)
        for r in result.responses:
            x = test_X[r.request_id % test_X.shape[0]][None, :]
            if r.request_id % 3 == 0:
                assert r.attributions is not None
                single = engine.explain(x)
                np.testing.assert_array_equal(r.attributions, single.attributions)
                np.testing.assert_array_equal(r.predictions, single.predictions)
            else:
                assert r.attributions is None
                np.testing.assert_allclose(
                    r.predictions, small_forest.predict(x), rtol=1e-5
                )

    def test_unknown_kind_rejected(self, test_X):
        from repro.serving import InferenceRequest

        with pytest.raises(ValueError, match="unknown request kind"):
            InferenceRequest(
                request_id=0, X=test_X[0], arrival_time=0.0, kind="interpret"
            )


class TestPathSet:
    def test_counts_and_caching(self, small_forest):
        layout = build_adaptive_layout(small_forest)
        ps = path_set_for_layout(layout)
        assert ps is path_set_for_layout(layout)  # cached on the layout
        assert ps.n_paths == sum(
            int((t.feature == LEAF).sum()) for t in small_forest.trees
        )
        assert ps.n_edges >= ps.n_paths - small_forest.n_trees
        assert ps.image_bytes > 0

    def test_leaf_only_tree_contributes_base_only(self):
        stump = DecisionTree.single_leaf(1.5, visit_count=10)
        forest = Forest(trees=[stump], n_attributes=2, aggregation="sum")
        phi, base, margins = compute_shap(build_path_set(forest), np.zeros((3, 2), np.float32))
        np.testing.assert_allclose(phi, 0.0)
        np.testing.assert_allclose(margins[:, 0], 1.5)


class TestMixedLanes:
    """Table lanes and sample lanes in one call, bit-identical to an
    evaluation that runs every path over sample lanes.

    The table cap is patched to 0-3 and the table byte budget to a few
    entries, so shallow groups are tabulated and deeper ones are not,
    and the row block to a few contributions, so batches straddle
    block boundaries (one row per block for every part wider than it).
    """

    @given(
        random_forests(max_trees=5, max_depth=6, cat_rate=0.3),
        st.integers(0, 3),
        st.sampled_from([0, 8 * 16, 8 * 64, 8 * 256, 1 << 30]),
        st.integers(1, 40),
    )
    @settings(max_examples=80, deadline=None)
    def test_tabulated_matches_sample_lanes(self, forest_X, cap, budget, block):
        from repro.explain import kernel

        forest, X = forest_X
        X = np.concatenate([X, X[::-1]])  # at least two rows
        with mock.patch.object(kernel, "TABLE_MAX_DEPTH", 0):
            ref = compute_shap(build_path_set(forest), X)
        # Tiny build blocks: tables are built a path or two at a time.
        with mock.patch.multiple(
            kernel, TABLE_MAX_DEPTH=cap, TABLE_MAX_BYTES=budget, BLOCK_CONTRIBUTIONS=8
        ):
            ps = build_path_set(forest)
        assert ps.tables.table.nbytes <= budget
        # Tabulated groups are a prefix of the depths, so every bin's
        # table addends come before its sample-lane ones.
        tabulated = np.log2(ps.tables.code_mask.astype(np.int64) + 1)
        untabulated = [g.zero.shape[0] for g in ps.tables.deep]
        assert tabulated.max(initial=0) < min(untabulated, default=cap + 1)
        with mock.patch.object(kernel, "BLOCK_CONTRIBUTIONS", block):
            got = compute_shap(ps, X)
        for a, b in zip(got, ref):
            np.testing.assert_array_equal(a, b)
        _check_efficiency(forest, X, *squeeze_single_class(*got))

    def test_group_past_an_over_budget_one_is_not_tabulated(self):
        """Twenty stumps give 640 B of d=1 tables, one two-level tree
        256 B of d=2 ones.  A 256 B budget rejects the d=1 group, and
        the d=2 group follows it onto sample lanes although it fits."""
        from repro.explain import kernel

        def tree(feature, left, right, value):
            n = len(feature)
            return DecisionTree(
                feature=np.array(feature, dtype=np.int32),
                threshold=np.array([0.5 if f != LEAF else 0.0 for f in feature], np.float32),
                left=np.array(left, dtype=np.int32),
                right=np.array(right, dtype=np.int32),
                value=np.array(value, dtype=np.float32),
                default_left=np.arange(n) % 2 == 0,
                visit_count=np.array([40, 25, 15, 10, 15, 7, 8][:n], dtype=np.int64),
            )

        stumps = [
            tree([i % 3, LEAF, LEAF], [1, LEAF, LEAF], [2, LEAF, LEAF], [0, 0.1 * i, -0.2])
            for i in range(20)
        ]
        deep = tree(
            [0, 1, LEAF, LEAF, 1, LEAF, LEAF],
            [1, 2, LEAF, LEAF, 5, LEAF, LEAF],
            [4, 3, LEAF, LEAF, 6, LEAF, LEAF],
            [0, 0, 0.3, -0.7, 0, 1.1, 0.2],
        )
        forest = Forest(trees=[*stumps, deep], n_attributes=3, aggregation="sum")
        X = np.array([[0.0, 1.0, np.nan], [1.0, 0.5, 0.0], [0.5, 0.0, 1.0]], np.float32)
        with mock.patch.object(kernel, "TABLE_MAX_BYTES", 256):
            ps = build_path_set(forest)
        assert ps.tables.table.size == 0
        assert [g.zero.shape[:2] for g in ps.tables.deep] == [(1, 40), (2, 4)]
        for a, b in zip(compute_shap(ps, X), compute_shap(build_path_set(forest), X)):
            np.testing.assert_array_equal(a, b)


class TestGoldens:
    """Bit-identity against the per-sample kernel's recorded outputs.

    ``tests/goldens/shap.json`` holds attributions, base values and
    margins the pre-tabulation kernel produced on a few rows of every
    figure-5 forest and the multiclass / categorical import fixtures
    (see ``tests/golden_shap.py``).
    """

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_PATH.read_text())["cases"]

    @pytest.mark.parametrize("case", CASES)
    def test_matches_golden(self, golden, case):
        expected = golden[case]
        X = rows_from_json(expected["X"])
        phi, base, margins = compute_shap(build_path_set(load_forest(case)), X)
        np.testing.assert_array_equal(phi, phi_from_json(expected))
        np.testing.assert_array_equal(base, np.asarray(expected["base_values"]))
        np.testing.assert_array_equal(margins, np.asarray(expected["margins"]))
