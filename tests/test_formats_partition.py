"""Tests for work-balanced forest partitioning."""

import numpy as np
import pytest

from repro.core import TahoeConfig, convert_forest
from repro.formats.layout import build_interleaved_layout
from repro.formats.partition import (
    PartitionError,
    cached_part_bytes,
    cached_partition,
    partition_trees,
    tree_work,
)


@pytest.fixture(scope="module")
def layout(request):
    forest = request.getfixturevalue("small_forest")
    return convert_forest(forest, TahoeConfig())[0]


class TestTreeWork:
    def test_expected_visits_bounds(self, layout):
        work = tree_work(layout)
        depths = layout.forest.tree_depths()
        # Expected walk length lies between 1 and depth+1.
        assert np.all(work >= 1.0)
        assert np.all(work <= depths + 1 + 1e-9)

    def test_cached(self, layout):
        assert tree_work(layout) is tree_work(layout)


class TestPartitionTrees:
    def test_single_part_when_fits(self, layout):
        parts = partition_trees(layout, layout.total_bytes + 1024)
        assert parts == [list(range(layout.n_trees))]

    def test_contiguous_in_layout_order(self, layout):
        parts = partition_trees(layout, 2048)
        flat = [p for part in parts for p in part]
        assert flat == list(range(layout.n_trees))

    def test_capacity_respected(self, layout):
        capacity = 2048
        for part in partition_trees(layout, capacity):
            sub = layout.forest.with_trees([layout.forest.trees[p] for p in part])
            sub_layout = build_interleaved_layout(sub, layout.record, None, "chk")
            assert sub_layout.total_bytes <= capacity

    def test_work_balanced_beats_bytes_only_packing(self, layout):
        """Max part work under the balanced cut must not exceed the
        one-pass bytes-greedy cut's."""
        from repro.formats.partition import _greedy, _slot_profiles

        capacity = 3072
        profiles = _slot_profiles(layout)
        bytes_only = _greedy(profiles, layout.node_size, capacity)
        balanced = partition_trees(layout, capacity)
        work = tree_work(layout)

        def max_work(parts):
            return max(float(work[p].sum()) for p in parts)

        assert max_work(balanced) <= max_work(bytes_only) + 1e-9

    def test_max_parts_respected_up_to_headroom(self, layout):
        parts = partition_trees(layout, 2048, max_parts=4)
        from repro.formats.partition import _greedy, _slot_profiles

        p_min = len(_greedy(_slot_profiles(layout), layout.node_size, 2048))
        assert len(parts) <= max(4, 2 * p_min)

    def test_oversized_tree_raises(self, layout):
        with pytest.raises(PartitionError):
            partition_trees(layout, 8)

    @pytest.mark.parametrize("capacity", [2048, 4096])
    def test_part_bytes_are_the_parts_layout_sizes(self, layout, capacity):
        """What the splitting strategy stages per part, without building
        the parts' layouts; memoised."""
        forest = layout.forest
        built = [
            build_interleaved_layout(
                forest.with_trees([forest.trees[p] for p in part]), layout.record, None, "part"
            ).total_bytes
            for part in cached_partition(layout, capacity)
        ]
        assert cached_part_bytes(layout, capacity).tolist() == built
        assert cached_part_bytes(layout, capacity) is cached_part_bytes(layout, capacity)

    def test_cached_partition_memoised(self, layout):
        a = cached_partition(layout, 2048)
        b = cached_partition(layout, 2048)
        assert a is b
        c = cached_partition(layout, 4096)
        assert c is not a

    def test_cached_partition_memoises_failure(self, layout, monkeypatch):
        import repro.formats.partition as partition

        calls = []

        def counting(layout, capacity, max_parts=None):
            calls.append((capacity, max_parts))
            return partition_trees(layout, capacity, max_parts)

        monkeypatch.setattr(partition, "partition_trees", counting)
        layout.metadata.pop("_partitions", None)
        for _ in range(3):
            with pytest.raises(PartitionError):
                cached_partition(layout, 8)
        with pytest.raises(PartitionError):
            cached_partition(layout, 8, max_parts=4)
        assert calls == [(8, None), (8, 4)]
