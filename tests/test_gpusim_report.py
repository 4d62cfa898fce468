"""Tests for the execution report formatter."""

from repro.core import TahoeConfig, convert_forest
from repro.gpusim.report import format_strategy_report
from repro.strategies import DirectStrategy, SharedDataStrategy


class TestFormatStrategyReport:
    def test_contains_key_sections(self, small_forest, test_X, p100):
        layout = convert_forest(small_forest, TahoeConfig())[0]
        result = SharedDataStrategy().run(layout, test_X, p100)
        report = format_strategy_report(result)
        assert "strategy: shared_data" in report
        assert "simulated time" in report
        assert "traversal" in report
        assert "forest (global)" in report
        assert "efficiency" in report

    def test_skips_empty_traffic_classes(self, small_forest, test_X, p100):
        layout = convert_forest(small_forest, TahoeConfig())[0]
        result = DirectStrategy().run(layout, test_X, p100)
        report = format_strategy_report(result)
        # Direct uses no shared memory at all.
        assert "shared reads" not in report
        assert "samples (global)" in report

    def test_bound_label(self, small_forest, test_X, p100):
        layout = convert_forest(small_forest, TahoeConfig())[0]
        result = SharedDataStrategy().run(layout, test_X, p100)
        report = format_strategy_report(result)
        assert ("latency-bound" in report) or ("bandwidth-bound" in report)

    def test_human_byte_units(self, small_forest, test_X, p100):
        layout = convert_forest(small_forest, TahoeConfig())[0]
        result = SharedDataStrategy().run(layout, test_X, p100)
        report = format_strategy_report(result)
        assert "KiB" in report or "MiB" in report or " B " in report
