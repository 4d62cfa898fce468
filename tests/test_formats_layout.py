"""Tests for node records and the interleaved layout."""

import numpy as np
import pytest

from repro.formats.encoding import NodeEncoding
from repro.formats.layout import (
    NodeRecordLayout,
    attr_index_bytes,
    build_interleaved_layout,
    heap_positions,
    select_node_record,
)
from repro.formats.reorg import build_reorg_layout


class TestAttrIndexBytes:
    def test_byte_boundaries(self):
        assert attr_index_bytes(1) == 1
        assert attr_index_bytes(256) == 1
        assert attr_index_bytes(257) == 2
        assert attr_index_bytes(65536) == 2
        assert attr_index_bytes(65537) == 4

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            attr_index_bytes(0)


class TestNodeRecordLayout:
    def test_fixed_is_nine_bytes(self, small_forest):
        record = select_node_record(small_forest, False, None)
        assert record == NodeRecordLayout()
        assert record.node_bytes == 9
        assert record.encoding_label == "legacy-a4"

    def test_variable_shrinks_for_narrow_forest(self, small_forest):
        record = select_node_record(small_forest, True, None)
        # letter has 16 attributes -> 1-byte index -> 6-byte record.
        assert record.attr_bytes == 1
        assert record.node_bytes == 6
        assert record.encoding_label == "legacy-a1"

    def test_variable_never_exceeds_fixed(self, small_forest, small_gbdt):
        for forest in (small_forest, small_gbdt):
            assert (
                select_node_record(forest, True, None).node_bytes
                <= select_node_record(forest, False, None).node_bytes
            )

    @pytest.mark.parametrize("variable_width", [False, True])
    def test_encoding_overrides_width_choice(self, small_forest, variable_width):
        encoding = NodeEncoding(16, "q8")
        record = select_node_record(small_forest, variable_width, encoding)
        assert (record.attr_bytes, record.threshold_mode, record.flags_bytes) == (2, "q8", 0)
        assert record.node_bytes == encoding.node_bytes == 3
        assert record.encoding_label == "w16/q8"


class TestHeapPositions:
    def test_manual_tree(self, manual_tree):
        level, slot = heap_positions(manual_tree)
        np.testing.assert_array_equal(level, [0, 1, 1, 2, 2, 3, 3])
        np.testing.assert_array_equal(slot, [0, 0, 1, 2, 3, 6, 7])

    def test_root_at_origin(self, small_forest):
        for tree in small_forest.trees[:5]:
            level, slot = heap_positions(tree)
            assert level[0] == 0 and slot[0] == 0

    def test_slot_bounded_by_level(self, small_forest):
        for tree in small_forest.trees[:5]:
            level, slot = heap_positions(tree)
            assert np.all(slot < 2 ** level.astype(np.int64))


class TestInterleavedLayout:
    def test_addresses_unique(self, small_forest):
        layout = build_reorg_layout(small_forest)
        all_addr = np.concatenate(layout.node_address)
        assert len(np.unique(all_addr)) == len(all_addr)

    def test_addresses_within_allocation(self, small_forest):
        layout = build_reorg_layout(small_forest)
        all_addr = np.concatenate(layout.node_address)
        assert all_addr.min() >= 0
        assert all_addr.max() + layout.node_size <= layout.total_bytes

    def test_roots_stored_first_and_interleaved(self, small_forest):
        """Figure 1: the root nodes of all trees come first, adjacent."""
        layout = build_reorg_layout(small_forest)
        root_addrs = [layout.node_address[t][0] for t in range(layout.n_trees)]
        expected = [t * layout.node_size for t in range(layout.n_trees)]
        assert root_addrs == expected

    def test_same_slot_nodes_adjacent_across_trees(self, small_forest):
        """Nodes at the same (level, slot) of consecutive trees differ by
        exactly one record — the property that coalesces lockstep reads."""
        layout = build_reorg_layout(small_forest)
        t0, t1 = layout.forest.trees[0], layout.forest.trees[1]
        # Left child of the root exists in both trees (they are not leaves).
        if not t0.is_leaf[0] and not t1.is_leaf[0]:
            a0 = layout.node_address[0][t0.left[0]]
            a1 = layout.node_address[1][t1.left[0]]
            assert a1 - a0 == layout.node_size

    def test_level_bases_monotone(self, small_forest):
        layout = build_reorg_layout(small_forest)
        assert np.all(np.diff(layout.level_base) > 0)

    def test_total_bytes_formula(self, small_forest):
        layout = build_reorg_layout(small_forest)
        expected = int(layout.level_slots.sum()) * layout.n_trees * layout.node_size
        assert layout.total_bytes == expected

    def test_occupancy_in_unit_interval(self, small_forest):
        layout = build_reorg_layout(small_forest)
        assert 0 < layout.occupancy() <= 1

    def test_tree_order_applied(self, small_forest):
        order = list(reversed(range(small_forest.n_trees)))
        layout = build_interleaved_layout(
            small_forest, NodeRecordLayout(), order, "test"
        )
        assert layout.tree_order == order
        # Layout trees are views into the layout's node block.
        first, last = layout.forest.trees[0], small_forest.trees[-1]
        for name in ("feature", "threshold", "left", "right", "value", "flip"):
            np.testing.assert_array_equal(getattr(first, name), getattr(last, name))
        assert np.shares_memory(first.feature, layout.block.feature)

    def test_addresses_for_accessor(self, small_forest):
        layout = build_reorg_layout(small_forest)
        ids = np.array([0])
        np.testing.assert_array_equal(
            layout.addresses_for(3, ids), layout.node_address[3][ids]
        )
