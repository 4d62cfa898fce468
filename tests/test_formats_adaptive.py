"""Tests for the adaptive forest format and tree rearrangement."""

import numpy as np
import pytest

from repro.core import TahoeConfig, convert_forest
from repro.formats import (
    build_reorg_layout,
    round_robin_assignment,
    similarity_tree_order,
)


class TestSimilarityTreeOrder:
    def test_permutation(self, small_forest):
        order = similarity_tree_order(small_forest)
        assert sorted(order) == list(range(small_forest.n_trees))

    def test_pairwise_method(self, small_forest):
        order = similarity_tree_order(small_forest, method="pairwise")
        assert sorted(order) == list(range(small_forest.n_trees))

    def test_unknown_method_rejected(self, small_forest):
        with pytest.raises(ValueError):
            similarity_tree_order(small_forest, method="magic")

    def test_order_groups_similar_sizes(self, small_forest):
        """Neighbouring trees in the order should be closer in size than
        random neighbours, on average.  Ordering happens after node
        rearrangement (as in the real pipeline), which canonicalises hot
        paths and makes same-shape trees hash alike."""
        from repro.formats import rearrange_forest_nodes

        rearranged = rearrange_forest_nodes(small_forest)
        order = similarity_tree_order(rearranged)
        sizes = np.array([t.n_nodes for t in rearranged.trees], dtype=np.float64)
        ordered = sizes[order]
        adjacent = np.abs(np.diff(ordered)).mean()
        rng = np.random.default_rng(0)
        random_means = []
        for _ in range(200):
            perm = rng.permutation(sizes)
            random_means.append(np.abs(np.diff(perm)).mean())
        assert adjacent <= np.mean(random_means)


class TestRoundRobin:
    def test_partition_complete(self):
        assignment = round_robin_assignment(10, 3)
        combined = sorted(np.concatenate(assignment).tolist())
        assert combined == list(range(10))

    def test_round_robin_pattern(self):
        assignment = round_robin_assignment(7, 3)
        np.testing.assert_array_equal(assignment[0], [0, 3, 6])
        np.testing.assert_array_equal(assignment[1], [1, 4])
        np.testing.assert_array_equal(assignment[2], [2, 5])

    def test_more_threads_than_trees(self):
        assignment = round_robin_assignment(2, 5)
        assert len(assignment) == 5
        assert assignment[3].size == 0

    def test_rejects_zero_threads(self):
        with pytest.raises(ValueError):
            round_robin_assignment(5, 0)


class TestAdaptiveLayout:
    def test_predictions_preserved(self, small_forest, test_X):
        layout = convert_forest(small_forest, TahoeConfig())[0]
        np.testing.assert_allclose(
            layout.forest.predict(test_X), small_forest.predict(test_X), rtol=1e-6
        )

    def test_variable_width_saves_space(self, small_forest):
        reorg = build_reorg_layout(small_forest)
        adaptive = convert_forest(small_forest, TahoeConfig())[0]
        # letter: 6-byte records vs 9-byte (plus whatever slot compaction
        # node rearrangement buys) -> at least a third saved.
        assert adaptive.total_bytes <= reorg.total_bytes * 6 // 9

    def test_fixed_width_never_larger_than_reorg(self, small_forest):
        """Node rearrangement moves hot subtrees into low heap slots, so
        the truncated-dense allocation can only shrink or stay equal."""
        adaptive = convert_forest(small_forest, TahoeConfig(variable_width=False))[0]
        reorg = build_reorg_layout(small_forest)
        assert adaptive.total_bytes <= reorg.total_bytes
        # Without node rearrangement the slot structure is identical.
        plain = convert_forest(
            small_forest, TahoeConfig(node_rearrangement=False, variable_width=False)
        )[0]
        assert plain.total_bytes == reorg.total_bytes

    def test_disabled_tree_rearrangement_keeps_order(self, small_forest):
        layout = convert_forest(small_forest, TahoeConfig(tree_rearrangement=False))[0]
        assert layout.tree_order == list(range(small_forest.n_trees))

    def test_node_rearrangement_sets_flips(self, small_forest):
        layout = convert_forest(small_forest, TahoeConfig())[0]
        assert any(t.flip.any() for t in layout.forest.trees)

    def test_no_node_rearrangement_no_flips(self, small_forest):
        layout = convert_forest(small_forest, TahoeConfig(node_rearrangement=False))[0]
        assert not any(t.flip.any() for t in layout.forest.trees)

    def test_single_tree_forest(self, small_forest):
        solo = small_forest.with_trees(small_forest.trees[:1])
        layout = convert_forest(solo, TahoeConfig())[0]
        assert layout.n_trees == 1
