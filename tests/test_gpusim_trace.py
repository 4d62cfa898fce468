"""Tests for the lockstep traversal trace engine."""

import copy

import numpy as np
import pytest

from repro.core import TahoeConfig, convert_forest
from repro.formats import build_reorg_layout, round_robin_assignment
from repro.gpusim import memory, trace
from repro.gpusim.trace import flatten_layout, trace_sample_parallel, trace_tree_parallel
from repro.trees import Forest


@pytest.fixture(scope="module")
def layout(request):
    small_forest = request.getfixturevalue("small_forest")
    return build_reorg_layout(small_forest)


class TestFlattenLayout:
    def test_offsets_cumulative(self, small_forest):
        layout = build_reorg_layout(small_forest)
        flat = flatten_layout(layout)
        sizes = [t.n_nodes for t in layout.forest.trees]
        np.testing.assert_array_equal(np.diff(flat.offsets), sizes)

    def test_cached_on_layout(self, small_forest):
        layout = build_reorg_layout(small_forest)
        assert flatten_layout(layout) is flatten_layout(layout)

    def test_values_align(self, small_forest):
        layout = build_reorg_layout(small_forest)
        flat = flatten_layout(layout)
        t3 = layout.forest.trees[3]
        off = flat.offsets[3]
        np.testing.assert_array_equal(flat.feature[off : off + t3.n_nodes], t3.feature)
        np.testing.assert_array_equal(
            flat.address[off : off + t3.n_nodes], layout.node_address[3]
        )


class TestTreeParallel:
    def test_predictions_match_reference(self, small_forest, test_X, p100):
        layout = build_reorg_layout(small_forest)
        assign = round_robin_assignment(small_forest.n_trees, 32)
        trace = trace_tree_parallel(
            layout, test_X, np.arange(test_X.shape[0]), assign, p100
        )
        margins = trace.leaf_sum / small_forest.n_trees
        np.testing.assert_allclose(margins, small_forest.predict(test_X), rtol=1e-5)

    def test_adaptive_layout_same_predictions(self, small_forest, test_X, p100):
        layout = convert_forest(small_forest, TahoeConfig())[0]
        assign = round_robin_assignment(small_forest.n_trees, 32)
        trace = trace_tree_parallel(
            layout, test_X, np.arange(test_X.shape[0]), assign, p100
        )
        np.testing.assert_allclose(
            trace.leaf_sum / small_forest.n_trees,
            small_forest.predict(test_X),
            rtol=1e-5,
        )

    def test_node_visits_bounded(self, small_forest, test_X, p100):
        layout = build_reorg_layout(small_forest)
        assign = round_robin_assignment(small_forest.n_trees, 32)
        trace = trace_tree_parallel(
            layout, test_X, np.arange(test_X.shape[0]), assign, p100
        )
        n, trees = test_X.shape[0], small_forest.n_trees
        max_visits = n * trees * (small_forest.max_depth() + 1)
        assert n * trees <= trace.node_visits <= max_visits

    def test_per_thread_steps_sum_to_visits(self, small_forest, test_X, p100):
        layout = build_reorg_layout(small_forest)
        assign = round_robin_assignment(small_forest.n_trees, 32)
        trace = trace_tree_parallel(
            layout, test_X, np.arange(test_X.shape[0]), assign, p100
        )
        assert trace.per_thread_steps.sum() == trace.node_visits

    def test_level_stats_distance_grows(self, small_forest, test_X, p100):
        """Figure 2a: mean adjacent-lane distance grows with tree level
        under the reorg format."""
        layout = build_reorg_layout(small_forest)
        assign = round_robin_assignment(small_forest.n_trees, 32)
        trace = trace_tree_parallel(
            layout, test_X, np.arange(test_X.shape[0]), assign, p100,
            collect_level_stats=True,
        )
        dist = trace.level_stats.mean_distance()
        valid = ~np.isnan(dist)
        series = dist[valid]
        assert series.shape[0] >= 3
        assert series[-1] > series[0]

    def test_forest_traffic_nonzero(self, small_forest, test_X, p100):
        layout = build_reorg_layout(small_forest)
        assign = round_robin_assignment(small_forest.n_trees, 32)
        trace = trace_tree_parallel(
            layout, test_X, np.arange(test_X.shape[0]), assign, p100
        )
        c = trace.counters.forest_global
        assert c.transactions > 0
        assert c.requested_bytes == trace.node_visits * layout.node_size
        assert c.fetched_bytes >= c.requested_bytes

    def test_shared_sample_space_counts_shared_reads(
        self, small_forest, test_X, p100
    ):
        layout = build_reorg_layout(small_forest)
        assign = round_robin_assignment(small_forest.n_trees, 32)
        trace = trace_tree_parallel(
            layout, test_X, np.arange(test_X.shape[0]), assign, p100,
            sample_space="shared",
        )
        assert trace.counters.shared_read.requested_bytes > 0
        assert trace.counters.sample_global.requested_bytes == 0

    def test_subset_of_samples(self, small_forest, test_X, p100):
        layout = build_reorg_layout(small_forest)
        assign = round_robin_assignment(small_forest.n_trees, 32)
        rows = np.array([5, 17, 40])
        trace = trace_tree_parallel(layout, test_X, rows, assign, p100)
        expected = small_forest.predict(test_X[rows])
        np.testing.assert_allclose(
            trace.leaf_sum[rows] / small_forest.n_trees, expected, rtol=1e-5
        )


class TestSampleParallel:
    def test_predictions_match_reference(self, small_forest, test_X, p100):
        layout = build_reorg_layout(small_forest)
        trace = trace_sample_parallel(
            layout, test_X, np.arange(test_X.shape[0]),
            np.arange(small_forest.n_trees), p100,
        )
        np.testing.assert_allclose(
            trace.leaf_sum / small_forest.n_trees,
            small_forest.predict(test_X),
            rtol=1e-5,
        )

    def test_tree_subset(self, small_forest, test_X, p100):
        layout = build_reorg_layout(small_forest)
        positions = np.array([0, 2, 4])
        trace = trace_sample_parallel(
            layout, test_X, np.arange(test_X.shape[0]), positions, p100
        )
        expected = sum(layout.forest.trees[p].predict(test_X) for p in positions)
        np.testing.assert_allclose(trace.leaf_sum, expected, rtol=1e-5)

    def test_per_thread_steps_one_per_sample(self, small_forest, test_X, p100):
        layout = build_reorg_layout(small_forest)
        trace = trace_sample_parallel(
            layout, test_X, np.arange(test_X.shape[0]),
            np.arange(small_forest.n_trees), p100,
        )
        assert trace.per_thread_steps.shape == (test_X.shape[0],)
        assert trace.per_thread_steps.min() >= small_forest.n_trees

    def test_shared_nodes_counted_in_shared(self, small_forest, test_X, p100):
        layout = build_reorg_layout(small_forest)
        trace = trace_sample_parallel(
            layout, test_X, np.arange(test_X.shape[0]),
            np.arange(small_forest.n_trees), p100, node_space="shared",
        )
        assert trace.counters.forest_global.requested_bytes == 0
        assert trace.counters.shared_read.requested_bytes > 0

    def test_non_multiple_of_warp(self, small_forest, test_X, p100):
        layout = build_reorg_layout(small_forest)
        rows = np.arange(37)
        trace = trace_sample_parallel(
            layout, test_X, rows, np.arange(small_forest.n_trees), p100
        )
        np.testing.assert_allclose(
            trace.leaf_sum[rows] / small_forest.n_trees,
            small_forest.predict(test_X[rows]),
            rtol=1e-5,
        )

    def test_rejects_unknown_space(self, small_forest, test_X, p100):
        layout = build_reorg_layout(small_forest)
        with pytest.raises(ValueError):
            trace_sample_parallel(
                layout, test_X, np.arange(4), np.arange(2), p100, node_space="l2",
            )

    @pytest.mark.parametrize("tile_rows", [1, 3, 64])
    def test_tree_stacking_invariant(
        self, small_forest, test_X, p100, tile_rows, monkeypatch
    ):
        """Cutting the stacked (tree, warp) rows into tiles of any size
        must not change any observable."""
        layout = build_reorg_layout(small_forest)
        rows = np.arange(70)
        trees = np.arange(small_forest.n_trees)
        baseline = trace_sample_parallel(
            layout, test_X, rows, trees, p100, collect_level_stats=True
        )
        monkeypatch.setattr(trace, "TILE_SLOTS", tile_rows * p100.warp_size)
        other = trace_sample_parallel(
            layout, test_X, rows, trees, p100, collect_level_stats=True
        )
        _assert_same_trace(baseline, other)


def _assert_same_trace(a, b):
    np.testing.assert_array_equal(a.leaf_sum, b.leaf_sum)
    np.testing.assert_array_equal(a.per_thread_steps, b.per_thread_steps)
    assert a.node_visits == b.node_visits
    assert a.counters.to_dict() == b.counters.to_dict()
    assert (a.level_stats is None) == (b.level_stats is None)
    if a.level_stats is not None:
        for name in ("distance_sum", "pair_count", "requested", "fetched"):
            np.testing.assert_array_equal(
                getattr(a.level_stats, name), getattr(b.level_stats, name)
            )


def _path_lengths(layout, X, rows):
    """(rows, trees) nodes visited by each sample in each layout tree."""
    return np.array(
        [[len(tree.decision_path(X[r])) for tree in layout.forest.trees] for r in rows]
    )


@pytest.fixture(scope="module")
def multiclass_layout(small_forest, small_gbdt):
    """The 40 trees of small_forest and small_gbdt as a 3-class sum
    ensemble: more trees than a warp has lanes."""
    trees = copy.deepcopy(small_forest.trees + small_gbdt.trees)
    for i, tree in enumerate(trees):
        tree.group = i % 3
    forest = Forest(
        trees=trees,
        n_attributes=small_forest.n_attributes,
        aggregation="sum",
        n_classes=3,
    )
    return convert_forest(forest, TahoeConfig())[0]


class TestTileInvariance:
    """The slot budget only cuts the stacked row list into tiles: every
    output is the same at one warp row per tile, three, and the default."""

    SLOTS = (32, 96, trace.TILE_SLOTS)

    def _sweep(self, monkeypatch, run):
        results = []
        for slots in self.SLOTS:
            monkeypatch.setattr(trace, "TILE_SLOTS", slots)
            results.append(run())
        for other in results[1:]:
            _assert_same_trace(results[0], other)
        return results[0]

    @pytest.mark.parametrize("n_threads", [7, 37, 100])
    @pytest.mark.parametrize(
        "spaces", [("global", "shared"), ("global", "global"), ("shared", "shared")]
    )
    def test_tree_parallel(
        self, small_forest, multiclass_layout, test_X, p100, monkeypatch, n_threads, spaces
    ):
        node_space, sample_space = spaces
        rows = np.arange(3, 90, 2)
        for layout in (convert_forest(small_forest, TahoeConfig())[0], multiclass_layout):
            assign = round_robin_assignment(layout.forest.n_trees, n_threads)
            result = self._sweep(
                monkeypatch,
                lambda: trace_tree_parallel(
                    layout, test_X, rows, assign, p100,
                    node_space=node_space, sample_space=sample_space,
                    shared_batch_rows=np.arange(rows.shape[0]) % 7,
                    collect_level_stats=True,
                ),
            )
            path = _path_lengths(layout, test_X, rows)
            np.testing.assert_array_equal(
                result.per_thread_steps, [path[:, a].sum() for a in assign]
            )

    @pytest.mark.parametrize(
        "spaces", [("global", "global"), ("shared", "global"), ("shared", "shared")]
    )
    def test_sample_parallel(
        self, small_forest, multiclass_layout, test_X, p100, monkeypatch, spaces
    ):
        node_space, sample_space = spaces
        rows = np.arange(1, 100, 3)
        for layout in (convert_forest(small_forest, TahoeConfig())[0], multiclass_layout):
            trees = np.arange(layout.forest.n_trees)[::-2]
            result = self._sweep(
                monkeypatch,
                lambda: trace_sample_parallel(
                    layout, test_X, rows, trees, p100,
                    node_space=node_space, sample_space=sample_space,
                    collect_level_stats=True,
                ),
            )
            np.testing.assert_array_equal(
                result.per_thread_steps,
                _path_lengths(layout, test_X, rows)[:, trees].sum(axis=1),
            )

    def test_multiclass_leaf_sums_match_trees(self, multiclass_layout, test_X, p100):
        forest = multiclass_layout.forest
        rows = np.arange(test_X.shape[0])
        assign = round_robin_assignment(forest.n_trees, 37)
        result = trace_tree_parallel(multiclass_layout, test_X, rows, assign, p100)
        expected = np.zeros((test_X.shape[0], 3))
        for tree in forest.trees:
            expected[:, tree.group] += tree.predict(test_X)
        np.testing.assert_allclose(result.leaf_sum, expected, rtol=1e-5)


class TestBatchChecks:
    @pytest.mark.parametrize("width", [13, 17])
    def test_wrong_width_raises(self, small_forest, test_X, p100, width):
        """Both mappings gather X through ``sample * n_att + feat``; a batch
        of another width must be refused, not read across sample rows."""
        layout = build_reorg_layout(small_forest)
        assert test_X.shape[1] == small_forest.n_attributes == 16
        X = np.zeros((test_X.shape[0], width), dtype=test_X.dtype)
        X[:, : min(width, 16)] = test_X[:, : min(width, 16)]
        rows = np.arange(40)
        assign = round_robin_assignment(small_forest.n_trees, 32)
        with pytest.raises(ValueError, match="X must be"):
            trace_tree_parallel(layout, X, rows, assign, p100)
        with pytest.raises(ValueError, match="X must be"):
            trace_sample_parallel(layout, X, rows, np.arange(small_forest.n_trees), p100)

    def test_one_dimensional_batch_raises(self, small_forest, test_X, p100):
        layout = build_reorg_layout(small_forest)
        with pytest.raises(ValueError, match="X must be"):
            trace_sample_parallel(
                layout, test_X.reshape(-1), np.arange(4), np.arange(2), p100
            )

    @pytest.mark.parametrize("mapping", ["tree", "sample"])
    def test_shared_sample_reads_use_shared_addresses(
        self, small_forest, test_X, p100, monkeypatch, mapping
    ):
        """Shared-memory sample reads are charged at shared-row addresses,
        which fit the int32 bank kernel without its int64 fallback."""
        seen = []
        real = trace.bank_conflict_totals

        def spy(addr, active, access_bytes=4):
            seen.append(np.asarray(addr)[np.asarray(active)])
            return real(addr, active, access_bytes)

        def no_fallback(*args, **kwargs):
            raise AssertionError("bank_conflict_totals took the int64 fallback")

        monkeypatch.setattr(trace, "bank_conflict_totals", spy)
        monkeypatch.setattr(memory, "bank_conflict_factor", no_fallback)
        layout = build_reorg_layout(small_forest)
        rows = np.arange(test_X.shape[0])
        if mapping == "tree":
            assign = round_robin_assignment(small_forest.n_trees, 32)
            result = trace_tree_parallel(
                layout, test_X, rows, assign, p100, sample_space="shared"
            )
        else:
            result = trace_sample_parallel(
                layout, test_X, rows, np.arange(small_forest.n_trees), p100,
                sample_space="shared",
            )
        assert result.counters.shared_read.requested_bytes > 0
        addr = np.concatenate(seen)
        assert addr.size and 0 <= addr.min()
        assert addr.max() < test_X.size * 4
