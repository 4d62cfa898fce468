"""Tests for the DecisionTree data model."""

import numpy as np
import pytest

from repro.trees.tree import DecisionTree


class TestConstruction:
    def test_single_leaf(self):
        tree = DecisionTree.single_leaf(2.5)
        assert tree.n_nodes == 1
        assert tree.n_leaves == 1
        assert tree.depth() == 0
        np.testing.assert_allclose(tree.predict(np.zeros((3, 2), np.float32)), 2.5)

    def test_manual_tree_valid(self, manual_tree):
        assert manual_tree.n_nodes == 7
        assert manual_tree.n_leaves == 4
        assert manual_tree.depth() == 3

    def test_rejects_length_mismatch(self, manual_tree):
        with pytest.raises(ValueError, match="length"):
            DecisionTree(
                feature=manual_tree.feature,
                threshold=manual_tree.threshold[:-1],
                left=manual_tree.left,
                right=manual_tree.right,
                value=manual_tree.value,
                default_left=manual_tree.default_left,
                visit_count=manual_tree.visit_count,
            )

    def test_rejects_leaf_with_children(self, manual_tree):
        bad = manual_tree.copy()
        bad.left[1] = 3  # node 1 is a leaf
        with pytest.raises(ValueError, match="leaf"):
            bad.validate()

    def test_rejects_self_loop(self, manual_tree):
        bad = manual_tree.copy()
        bad.left[0] = 0
        with pytest.raises(ValueError, match="own child"):
            bad.validate()

    def test_rejects_multi_parent(self, manual_tree):
        bad = manual_tree.copy()
        bad.left[0] = 2  # node 2 now has two parents, node 1 orphaned
        with pytest.raises(ValueError):
            bad.validate()

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DecisionTree(
                feature=np.array([], dtype=np.int32),
                threshold=np.array([], dtype=np.float32),
                left=np.array([], dtype=np.int32),
                right=np.array([], dtype=np.int32),
                value=np.array([], dtype=np.float32),
                default_left=np.array([], dtype=bool),
                visit_count=np.array([], dtype=np.int64),
            )


class TestTopology:
    def test_node_depths(self, manual_tree):
        depths = manual_tree.node_depths()
        np.testing.assert_array_equal(depths, [0, 1, 1, 2, 2, 3, 3])

    def test_parents(self, manual_tree):
        parents = manual_tree.parents()
        np.testing.assert_array_equal(parents, [-1, 0, 0, 2, 2, 4, 4])

    def test_level_order(self, manual_tree):
        levels = manual_tree.level_order()
        assert levels == [[0], [1, 2], [3, 4], [5, 6]]

    def test_root_to_leaf_paths(self, manual_tree):
        paths = manual_tree.root_to_leaf_paths()
        assert [0, 1] in paths
        assert [0, 2, 3] in paths
        assert [0, 2, 4, 5] in paths
        assert [0, 2, 4, 6] in paths
        assert len(paths) == manual_tree.n_leaves


class TestProbabilities:
    def test_edge_probabilities_sum_to_one(self, manual_tree):
        p_left, p_right = manual_tree.edge_probabilities()
        decision = ~manual_tree.is_leaf
        np.testing.assert_allclose(p_left[decision] + p_right[decision], 1.0)

    def test_edge_probability_values(self, manual_tree):
        p_left, p_right = manual_tree.edge_probabilities()
        assert p_left[0] == pytest.approx(0.2)
        assert p_right[0] == pytest.approx(0.8)

    def test_unvisited_node_gets_half(self, manual_tree):
        tree = manual_tree.copy()
        tree.visit_count[0] = 0
        p_left, _ = tree.edge_probabilities()
        assert p_left[0] == pytest.approx(0.5)

    def test_node_probabilities_match_visit_ratio(self, manual_tree):
        probs = manual_tree.node_probabilities()
        expected = manual_tree.visit_count / manual_tree.visit_count[0]
        np.testing.assert_allclose(probs, expected)

    def test_root_probability_is_one(self, manual_tree):
        assert manual_tree.node_probabilities()[0] == 1.0


class TestPrediction:
    def test_known_paths(self, manual_tree):
        X = np.array(
            [
                [0.0, 0.0],   # f0 < 0.5 -> node 1 -> value 1
                [1.0, -2.0],  # right, f1 < -1 -> node 3 -> value 2
                [1.0, 0.0],   # right, right, f0 < 2 -> node 5 -> value 3
                [3.0, 0.0],   # right, right, right -> node 6 -> value 4
            ],
            dtype=np.float32,
        )
        np.testing.assert_allclose(manual_tree.predict(X), [1, 2, 3, 4])

    def test_missing_value_takes_default(self, manual_tree):
        x = np.array([[np.nan, 0.0]], dtype=np.float32)
        # default_left[0] is True -> node 1 -> value 1
        assert manual_tree.predict(x)[0] == 1.0

    def test_missing_value_default_right(self, manual_tree):
        x = np.array([[1.0, np.nan]], dtype=np.float32)
        # node 2 has default_left False -> node 4; f0=1 < 2 -> node 5
        assert manual_tree.predict(x)[0] == 3.0

    def test_flip_inverts_predicate(self, manual_tree):
        flipped = manual_tree.copy()
        flipped.left[0], flipped.right[0] = flipped.right[0], flipped.left[0]
        flipped.flip[0] = True
        flipped.default_left[0] = not flipped.default_left[0]
        X = np.array([[0.0, 0.0], [1.0, -2.0], [3.0, 0.0]], dtype=np.float32)
        np.testing.assert_allclose(flipped.predict(X), manual_tree.predict(X))

    def test_decision_path_matches_predict(self, manual_tree):
        x = np.array([1.0, 0.0], dtype=np.float32)
        path = manual_tree.decision_path(x)
        assert path == [0, 2, 4, 5]
        assert manual_tree.value[path[-1]] == manual_tree.predict(x[None, :])[0]

    def test_predict_rejects_1d(self, manual_tree):
        with pytest.raises(ValueError, match="2-D"):
            manual_tree.predict(np.zeros(2, dtype=np.float32))

    def test_copy_is_deep(self, manual_tree):
        dup = manual_tree.copy()
        dup.threshold[0] = 99.0
        assert manual_tree.threshold[0] != 99.0
