"""Tests for probability-based node rearrangement (paper section 4.1)."""

import numpy as np

from repro.formats.node_rearrange import (
    count_swaps,
    rearrange_forest_nodes,
    rearrange_nodes_by_probability,
)


class TestNodeRearrangement:
    def test_hot_child_moves_left(self, manual_tree):
        # Root: left prob 0.2 < right prob 0.8 -> must swap.
        out = rearrange_nodes_by_probability(manual_tree)
        p_left, p_right = out.edge_probabilities()
        decision = ~out.is_leaf
        assert np.all(p_left[decision] >= p_right[decision])

    def test_flip_bit_set_on_swapped_nodes(self, manual_tree):
        out = rearrange_nodes_by_probability(manual_tree)
        assert out.flip[0]  # root was swapped
        # Node 2: left=3 (30) vs right=4 (50) -> swapped too.
        assert out.flip[2]
        # Node 4: left=5 (35) vs right=6 (15) -> kept.
        assert not out.flip[4]

    def test_predictions_preserved(self, manual_tree):
        out = rearrange_nodes_by_probability(manual_tree)
        X = np.random.default_rng(0).standard_normal((200, 2)).astype(np.float32)
        np.testing.assert_allclose(out.predict(X), manual_tree.predict(X))

    def test_missing_value_semantics_preserved(self, manual_tree):
        out = rearrange_nodes_by_probability(manual_tree)
        X = np.array(
            [[np.nan, 0.0], [1.0, np.nan], [np.nan, np.nan]], dtype=np.float32
        )
        np.testing.assert_allclose(out.predict(X), manual_tree.predict(X))

    def test_descendants_move_with_child(self, manual_tree):
        out = rearrange_nodes_by_probability(manual_tree)
        # After swapping the root, node 2's subtree hangs off the left.
        assert out.left[0] == 2

    def test_idempotent(self, manual_tree):
        once = rearrange_nodes_by_probability(manual_tree)
        twice = rearrange_nodes_by_probability(once)
        np.testing.assert_array_equal(once.left, twice.left)
        np.testing.assert_array_equal(once.flip, twice.flip)

    def test_input_not_modified(self, manual_tree):
        before = manual_tree.left.copy()
        rearrange_nodes_by_probability(manual_tree)
        np.testing.assert_array_equal(manual_tree.left, before)

    def test_count_swaps_matches_flips(self, manual_tree):
        out = rearrange_nodes_by_probability(manual_tree)
        assert count_swaps(manual_tree) == int(out.flip.sum())

    def test_forest_rearrangement_preserves_predictions(self, small_forest, test_X):
        out = rearrange_forest_nodes(small_forest)
        np.testing.assert_allclose(
            out.predict(test_X), small_forest.predict(test_X), rtol=1e-6
        )

    def test_forest_rearrangement_all_hot_left(self, small_forest):
        out = rearrange_forest_nodes(small_forest)
        for tree in out.trees:
            p_left, p_right = tree.edge_probabilities()
            decision = ~tree.is_leaf
            assert np.all(p_left[decision] >= p_right[decision] - 1e-12)
