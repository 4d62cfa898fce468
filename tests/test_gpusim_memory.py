"""Tests for the coalescing and bank-conflict models."""

import numpy as np

from repro.gpusim.memory import (
    adjacent_lane_distances,
    bank_conflict_factor,
    coalesced_transactions,
    transactions_per_row,
)


def _row(addresses):
    arr = np.array([addresses], dtype=np.int64)
    return arr, np.ones_like(arr, dtype=bool)


class TestTransactionsPerRow:
    def test_fully_coalesced_warp(self):
        """32 consecutive 4-byte accesses = 128 bytes = one transaction
        moving all four of its 32-byte sectors."""
        addr, active = _row([i * 4 for i in range(32)])
        tx, sectors, req = transactions_per_row(addr, active)
        assert tx[0] == 1
        assert sectors[0] == 4
        assert req[0] == 128

    def test_fully_scattered_warp(self):
        """One transaction per lane, one sector each: 4/32 efficiency."""
        addr, active = _row([i * 128 for i in range(32)])
        tx, sectors, req = transactions_per_row(addr, active)
        assert tx[0] == 32
        assert sectors[0] == 32
        assert req[0] / (sectors[0] * 32) == 0.125

    def test_broadcast_single_transaction(self):
        addr, active = _row([64] * 32)
        tx, sectors, req = transactions_per_row(addr, active)
        assert tx[0] == 1
        assert sectors[0] == 1  # all lanes hit the same sector
        assert req[0] == 128  # still 32 requests of 4 bytes

    def test_two_segments(self):
        addr, active = _row([0] * 16 + [128] * 16)
        tx, sectors, _ = transactions_per_row(addr, active)
        assert tx[0] == 2
        assert sectors[0] == 2

    def test_inactive_lanes_ignored(self):
        addr = np.array([[0, 128, 256, 384]], dtype=np.int64)
        active = np.array([[True, False, True, False]])
        tx, sectors, req = transactions_per_row(addr, active)
        assert tx[0] == 2
        assert sectors[0] == 2
        assert req[0] == 8

    def test_all_inactive_row(self):
        addr = np.array([[0, 4]], dtype=np.int64)
        active = np.zeros_like(addr, dtype=bool)
        tx, sectors, req = transactions_per_row(addr, active)
        assert tx[0] == 0 and sectors[0] == 0 and req[0] == 0

    def test_straddling_access_counts_extra_segment(self):
        # A 9-byte access starting at byte 124 crosses into segment 1.
        addr = np.array([[124]], dtype=np.int64)
        active = np.ones_like(addr, dtype=bool)
        tx, sectors, _ = transactions_per_row(addr, active, access_bytes=9)
        assert tx[0] == 2
        assert sectors[0] == 2  # bytes 124-127 and 128-132

    def test_multiple_rows_independent(self):
        addr = np.array([[0, 4], [0, 256]], dtype=np.int64)
        active = np.ones_like(addr, dtype=bool)
        tx, sectors, _ = transactions_per_row(addr, active)
        np.testing.assert_array_equal(tx, [1, 2])
        np.testing.assert_array_equal(sectors, [1, 2])

    def test_order_invariance(self):
        """Coalescing depends on the address set, not lane order."""
        base = np.array([0, 4, 500, 8, 132], dtype=np.int64)
        rng = np.random.default_rng(0)
        results = set()
        for _ in range(5):
            perm = rng.permutation(base)
            tx, _, _ = transactions_per_row(perm[None, :], np.ones((1, 5), bool))
            results.add(int(tx[0]))
        assert len(results) == 1


class TestCoalescedTransactions:
    def test_totals(self):
        addr = np.array([[0, 4], [0, 256]], dtype=np.int64)
        tx, fetched, req = coalesced_transactions(addr)
        assert tx == 3
        assert fetched == 3 * 32
        assert req == 16

    def test_1d_input_promoted(self):
        tx, fetched, req = coalesced_transactions(np.array([0, 4, 8], dtype=np.int64))
        assert tx == 1 and fetched == 32 and req == 12


class TestAdjacentLaneDistances:
    def test_uniform_stride(self):
        addr = np.array([[0, 4, 8, 12]], dtype=np.int64)
        active = np.ones_like(addr, dtype=bool)
        dist, pairs = adjacent_lane_distances(addr, active)
        assert dist[0] == 12.0
        assert pairs[0] == 3

    def test_inactive_breaks_pairs(self):
        addr = np.array([[0, 4, 8]], dtype=np.int64)
        active = np.array([[True, False, True]])
        dist, pairs = adjacent_lane_distances(addr, active)
        assert pairs[0] == 0
        assert dist[0] == 0.0

    def test_absolute_distance(self):
        addr = np.array([[100, 0]], dtype=np.int64)
        active = np.ones_like(addr, dtype=bool)
        dist, _ = adjacent_lane_distances(addr, active)
        assert dist[0] == 100.0


class TestBankConflicts:
    def test_conflict_free_stride_one(self):
        """Consecutive 4-byte words map to distinct banks."""
        addr = np.arange(32, dtype=np.int64)[None, :] * 4
        active = np.ones_like(addr, dtype=bool)
        np.testing.assert_array_equal(bank_conflict_factor(addr, active), [1])

    def test_same_word_broadcast_free(self):
        addr = np.full((1, 32), 64, dtype=np.int64)
        active = np.ones_like(addr, dtype=bool)
        np.testing.assert_array_equal(bank_conflict_factor(addr, active), [1])

    def test_stride_32_worst_case(self):
        """Stride of 32 words hits one bank with 32 different words."""
        addr = np.arange(32, dtype=np.int64)[None, :] * (32 * 4)
        active = np.ones_like(addr, dtype=bool)
        np.testing.assert_array_equal(bank_conflict_factor(addr, active), [32])

    def test_two_way_conflict(self):
        addr = np.array([[0, 128, 4, 132]], dtype=np.int64)  # banks 0,0,1,1
        active = np.ones_like(addr, dtype=bool)
        np.testing.assert_array_equal(bank_conflict_factor(addr, active), [2])

    def test_inactive_row_zero(self):
        addr = np.zeros((1, 4), dtype=np.int64)
        active = np.zeros_like(addr, dtype=bool)
        np.testing.assert_array_equal(bank_conflict_factor(addr, active), [0])
