"""Tests for occupancy, spec scaling, and the latency-roofline behaviour."""

import pytest

from repro.gpusim.counters import TrafficCounters
from repro.gpusim.engine_sim import execution_time


class TestConcurrentBlocks:
    def test_slim_blocks_get_more_residency(self, p100):
        slim = p100.concurrent_blocks(32)
        fat = p100.concurrent_blocks(256)
        assert slim > fat

    def test_block_slot_cap(self, p100):
        # 32 hardware block slots per SM cap even tiny blocks.
        assert p100.concurrent_blocks(32) == p100.sm_count * 32

    def test_thread_budget_cap(self, p100):
        assert p100.concurrent_blocks(1024) == p100.sm_count * (
            p100.max_resident_threads_per_sm // 1024
        )

    def test_shared_memory_limits_residency(self, p100):
        full = p100.concurrent_blocks(256, p100.shared_mem_per_block)
        assert full == p100.sm_count  # one smem-full block per SM
        half = p100.concurrent_blocks(256, p100.shared_mem_per_block // 2)
        assert half == 2 * p100.sm_count

    def test_zero_smem_ignored(self, p100):
        assert p100.concurrent_blocks(256, 0) == p100.concurrent_blocks(256)

    def test_rejects_bad_block(self, p100):
        with pytest.raises(ValueError):
            p100.concurrent_blocks(0)


class TestScaledSpec:
    def test_bandwidths_scale_together(self, p100):
        small = p100.scaled(compute=1 / 4)
        assert small.global_bw == pytest.approx(p100.global_bw / 4)
        assert small.shared_bw == pytest.approx(p100.shared_bw / 4)
        assert small.sm_count == max(1, round(p100.sm_count / 4))

    def test_per_sm_character_preserved(self, p100):
        small = p100.scaled(compute=1 / 8)
        assert small.memory_latency == p100.memory_latency
        assert small.block_reduce_rate == p100.block_reduce_rate
        assert small.transaction_bytes == p100.transaction_bytes

    def test_shared_capacity_scales_independently(self, p100):
        small = p100.scaled(shared_capacity=1 / 2)
        assert small.shared_mem_per_block == p100.shared_mem_per_block // 2
        assert small.global_bw == p100.global_bw

    def test_rejects_nonpositive(self, p100):
        with pytest.raises(ValueError):
            p100.scaled(compute=0)

    def test_saturation_point_scales(self, p100):
        small = p100.scaled(compute=1 / 8)
        assert small.threads_for_peak_bw < p100.threads_for_peak_bw


class TestLatencyRoofline:
    def _counters(self, n_bytes):
        t = TrafficCounters()
        t.forest_global.add(n_bytes // 2, n_bytes, n_bytes // 128, 10)
        return t

    def test_chain_floor_applies(self, p100):
        short = execution_time(
            self._counters(1024), p100, 64, 64, 1, chain_steps=0
        )
        long = execution_time(
            self._counters(1024), p100, 64, 64, 1, chain_steps=100000
        )
        assert long.latency_bound
        assert long.total == pytest.approx(
            100000 * p100.memory_latency + long.t_launch
        )
        assert not short.latency_bound

    def test_chain_irrelevant_when_bandwidth_bound(self, p100):
        big = execution_time(
            self._counters(1 << 28), p100, 10**6, 256, 4000, chain_steps=10
        )
        assert not big.latency_bound

    def test_smem_block_bytes_throttle_reductions(self, p100):
        free = execution_time(
            self._counters(1024), p100, 10000, 256, 400,
            block_reduction_events=1000, block_shared_bytes=0,
        )
        throttled = execution_time(
            self._counters(1024), p100, 10000, 256, 400,
            block_reduction_events=1000,
            block_shared_bytes=p100.shared_mem_per_block,
        )
        assert throttled.t_block_reduce > free.t_block_reduce
