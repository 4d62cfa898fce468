"""Tests for the two-tier (DRAM + L2) global-memory pricing."""

import pytest

from repro.gpusim.counters import TrafficCounters
from repro.gpusim.engine_sim import execution_time


def _sample_counters(fetched):
    t = TrafficCounters()
    t.sample_global.add(fetched // 8, fetched, fetched // 128, 100)
    return t


def _forest_counters(fetched):
    t = TrafficCounters()
    t.forest_global.add(fetched // 4, fetched, fetched // 128, 100)
    return t


class TestL2Tier:
    def test_sample_rereads_cheaper_with_small_footprint(self, p100):
        cold = execution_time(
            _sample_counters(1 << 24), p100, 10**5, 256, 400,
            sample_first_touch_bytes=None,
        )
        hot = execution_time(
            _sample_counters(1 << 24), p100, 10**5, 256, 400,
            sample_first_touch_bytes=1 << 16,
        )
        assert hot.t_global < cold.t_global

    def test_first_touch_still_pays_dram(self, p100):
        everything_hot = execution_time(
            _sample_counters(1 << 24), p100, 10**5, 256, 400,
            sample_first_touch_bytes=0,
        )
        expected = (1 << 24) / p100.l2_bw  # util 1 at this launch size
        assert everything_hot.t_global == pytest.approx(expected, rel=1e-6)

    def test_forest_cached_only_when_it_fits(self, p100):
        fits = execution_time(
            _forest_counters(1 << 24), p100, 10**5, 256, 400,
            forest_footprint_bytes=p100.l2_capacity // 2,
        )
        too_big = execution_time(
            _forest_counters(1 << 24), p100, 10**5, 256, 400,
            forest_footprint_bytes=p100.l2_capacity * 2,
        )
        assert fits.t_global < too_big.t_global
        no_info = execution_time(
            _forest_counters(1 << 24), p100, 10**5, 256, 400,
        )
        assert too_big.t_global == pytest.approx(no_info.t_global)

    def test_l2_faster_than_dram_in_spec(self, p100):
        assert p100.l2_bw > p100.global_bw
        assert p100.scaled(compute=1 / 8).l2_bw == pytest.approx(p100.l2_bw / 8)

    def test_footprint_larger_than_traffic_harmless(self, p100):
        r = execution_time(
            _sample_counters(1 << 10), p100, 10**5, 256, 400,
            sample_first_touch_bytes=1 << 20,
        )
        base = execution_time(_sample_counters(1 << 10), p100, 10**5, 256, 400)
        assert r.t_global == pytest.approx(base.t_global)
