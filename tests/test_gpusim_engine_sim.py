"""Tests for the traffic-to-time conversion and multi-GPU model."""

import numpy as np
import pytest

from repro.gpusim.counters import TrafficCounters
from repro.gpusim.engine_sim import execution_time, imbalance_factor
from repro.gpusim.multigpu import simulate_multi_gpu, weak_scaling_times


def _counters(global_fetched=1 << 20, shared=0):
    t = TrafficCounters()
    t.forest_global.add(global_fetched // 2, global_fetched, global_fetched // 128, 100)
    if shared:
        t.shared_read.add(shared, shared, shared // 128, 100)
    return t


class TestImbalanceFactor:
    def test_uniform_work_factor_one(self):
        assert imbalance_factor(np.array([5, 5, 5])) == 1.0

    def test_skewed_work(self):
        assert imbalance_factor(np.array([1, 1, 4])) == pytest.approx(2.0)

    def test_empty_and_none(self):
        assert imbalance_factor(None) == 1.0
        assert imbalance_factor(np.array([])) == 1.0

    def test_zero_work(self):
        assert imbalance_factor(np.zeros(4)) == 1.0


class TestExecutionTime:
    def test_more_traffic_more_time(self, p100):
        small = execution_time(_counters(1 << 18), p100, 10000, 256, 40)
        big = execution_time(_counters(1 << 22), p100, 10000, 256, 40)
        assert big.t_global > small.t_global

    def test_low_parallelism_slower_per_byte(self, p100):
        """The same traffic takes longer when the launch cannot saturate
        bandwidth — the root of the paper's smaller low-parallelism
        speedups."""
        high = execution_time(_counters(), p100, 100000, 256, 400)
        low = execution_time(_counters(), p100, 100, 256, 1)
        assert low.t_global > high.t_global

    def test_imbalance_stretches_traversal(self, p100):
        even = execution_time(
            _counters(), p100, 10000, 256, 40, per_thread_steps=np.array([3, 3, 3])
        )
        skew = execution_time(
            _counters(), p100, 10000, 256, 40, per_thread_steps=np.array([1, 1, 7])
        )
        assert skew.total > even.total
        assert skew.imbalance == pytest.approx(7 / 3)

    def test_reductions_added(self, p100):
        base = execution_time(_counters(), p100, 10000, 256, 40)
        with_reduce = execution_time(
            _counters(), p100, 10000, 256, 40, block_reduction_events=1000
        )
        assert with_reduce.t_block_reduce > 0
        assert with_reduce.total > base.total

    def test_global_reduction_added(self, p100):
        r = execution_time(
            _counters(), p100, 10000, 256, 40,
            global_reduction_events=2, global_reduction_blocks=8,
        )
        assert r.t_global_reduce == pytest.approx(2 * 8 * p100.global_reduce_rate)

    def test_launch_latency_per_kernel(self, p100):
        one = execution_time(_counters(), p100, 1000, 256, 4, n_kernels=1)
        five = execution_time(_counters(), p100, 1000, 256, 4, n_kernels=5)
        assert five.t_launch == pytest.approx(5 * one.t_launch)

    def test_reduction_share_metric(self, p100):
        r = execution_time(
            _counters(1 << 10), p100, 10000, 256, 40, block_reduction_events=100000
        )
        assert 0 < r.reduction_share <= 1

    def test_rejects_bad_geometry(self, p100):
        with pytest.raises(ValueError):
            execution_time(_counters(), p100, 100, 0, 1)
        with pytest.raises(ValueError):
            execution_time(_counters(), p100, 100, 256, 0)

    def test_shared_traffic_priced(self, p100):
        no_shared = execution_time(_counters(shared=0), p100, 10000, 256, 40)
        shared = execution_time(_counters(shared=1 << 22), p100, 10000, 256, 40)
        assert shared.t_shared > no_shared.t_shared


class TestMultiGPU:
    def test_strong_scaling_monotone_for_linear_workload(self):
        result = simulate_multi_gpu(lambda n: 1e-6 * n + 1e-5, 100000, [1, 2, 4, 8])
        assert result.speedups[0] == pytest.approx(1.0)
        assert all(np.diff(result.speedups) > 0)

    def test_saturation_for_fixed_overhead(self):
        """When fixed overhead dominates tiny shards, speedup flattens —
        the HOCK/gisette/phishing behaviour in figure 9."""
        result = simulate_multi_gpu(lambda n: 1e-8 * n + 1e-3, 1000, [1, 32, 128])
        assert result.speedups[-1] < 2.0

    def test_shards_cover_all_samples(self):
        seen = []
        simulate_multi_gpu(lambda n: seen.append(n) or 1.0, 1000, [3])
        assert seen[0] == 334  # ceil(1000/3)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            simulate_multi_gpu(lambda n: 1.0, 0, [1])
        with pytest.raises(ValueError):
            simulate_multi_gpu(lambda n: 1.0, 10, [0])

    def test_weak_scaling_flat(self):
        times = weak_scaling_times(lambda n: 1e-6 * n, 5000, [1, 2, 4])
        assert max(times) - min(times) < 1e-12
