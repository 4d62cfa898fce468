"""Tests for LSH bucketing and similarity ordering."""

import numpy as np
import pytest

from repro.hashing.lsh import lsh_collisions, order_trees_by_similarity
from repro.trees.tree import DecisionTree


class TestLshCollisions:
    def test_counts_symmetric_zero_diagonal(self, small_forest):
        table = lsh_collisions(small_forest.trees[:8], l_hash=64, m_chunks=16)
        np.testing.assert_array_equal(table.counts, table.counts.T)
        assert np.all(np.diag(table.counts) == 0)

    def test_identical_trees_collide_everywhere(self, manual_tree):
        table = lsh_collisions([manual_tree, manual_tree.copy()], l_hash=64, m_chunks=16)
        assert table.counts[0, 1] == 16

    def test_counts_bounded_by_chunks(self, small_forest):
        table = lsh_collisions(small_forest.trees[:6], l_hash=64, m_chunks=16)
        assert table.counts.max() <= 16

    def test_bucket_structure(self, manual_tree):
        table = lsh_collisions([manual_tree, manual_tree.copy()], l_hash=64, m_chunks=8)
        assert len(table.buckets) == 8
        for bucket in table.buckets:
            members = [m for group in bucket.values() for m in group]
            assert sorted(members) == [0, 1]

    def test_rejects_indivisible_chunks(self, manual_tree):
        with pytest.raises(ValueError, match="divisible"):
            lsh_collisions([manual_tree], l_hash=64, m_chunks=7)

    def test_most_similar_pair(self, manual_tree):
        leaf = DecisionTree.single_leaf(1.0)
        table = lsh_collisions([manual_tree, leaf, manual_tree.copy()], l_hash=64, m_chunks=16)
        pair = table.most_similar_pair()
        assert set(pair) == {0, 2}

    def test_most_similar_pair_needs_two(self, manual_tree):
        table = lsh_collisions([manual_tree], l_hash=64, m_chunks=16)
        with pytest.raises(ValueError):
            table.most_similar_pair()


class TestOrderTrees:
    def test_is_permutation(self, small_forest):
        table = lsh_collisions(small_forest.trees, l_hash=64, m_chunks=16)
        order = order_trees_by_similarity(table)
        assert sorted(order) == list(range(small_forest.n_trees))

    def test_empty_and_singleton(self):
        assert order_trees_by_similarity(np.zeros((0, 0))) == []
        assert order_trees_by_similarity(np.zeros((1, 1))) == [0]

    def test_chains_most_similar_first(self):
        # Hand-built similarity matrix: 0-1 strongest, then 1-2.
        counts = np.array(
            [
                [0, 10, 1, 0],
                [10, 0, 5, 0],
                [1, 5, 0, 2],
                [0, 0, 2, 0],
            ]
        )
        order = order_trees_by_similarity(counts)
        assert order == [0, 1, 2, 3]

    def test_figure3_example_order(self):
        """Paper figure 3: collisions (T1,T2)=0, (T2,T3)=2, (T1,T3)=1
        yield the order T2, T3, T1."""
        counts = np.array([[0, 0, 1], [0, 0, 2], [1, 2, 0]])
        order = order_trees_by_similarity(counts)
        assert order in ([1, 2, 0], [2, 1, 0])  # T2-T3 pair first, then T1

    def test_identical_trees_adjacent(self, manual_tree, small_forest):
        """Two copies of the same tree must end up adjacent in the order."""
        trees = small_forest.trees[:6] + [manual_tree, manual_tree.copy()]
        table = lsh_collisions(trees, l_hash=64, m_chunks=16)
        order = order_trees_by_similarity(table)
        pos = {t: i for i, t in enumerate(order)}
        assert abs(pos[6] - pos[7]) == 1
