"""End-to-end observability: engine runs produce complete run reports."""

from __future__ import annotations

import numpy as np

from repro.core import ObsConfig, TahoeConfig, TahoeEngine
from repro.gpusim.counters import LevelStats
from repro.gpusim.report import format_run_report
from repro.obs import load_report_json, recorder, write_report_json


def test_predict_report_records_one_decision_per_batch(small_forest, test_X, p100):
    engine = TahoeEngine(small_forest, p100)
    result = engine.predict(test_X, batch_size=50, report=True)
    report = result.report
    n_batches = -(-test_X.shape[0] // 50)
    assert len(result.batches) == n_batches
    assert len(report.batches) == n_batches
    # exactly one selector decision per batch, prediction next to actual
    assert len(report.decisions) == n_batches
    for i, d in enumerate(report.decisions):
        assert d.batch_index == i
        assert d.chosen == result.batches[i].strategy
        assert d.predicted_time is not None and d.predicted_time > 0
        assert d.simulated_time == result.batches[i].time
        assert d.prediction_ratio is not None and d.prediction_ratio > 0
        # every strategy shows up as a candidate, applicable or not
        assert {c.strategy for c in d.candidates} == {
            "shared_data",
            "direct",
            "shared_forest",
            "splitting_shared_forest",
        }
    assert sum(d.batch_size for d in report.decisions) == test_X.shape[0]


def test_report_window_counts_what_it_dropped(small_forest, test_X, p100, monkeypatch):
    monkeypatch.setattr(recorder, "MAX_REPORT_RECORDS", 4)
    engine = TahoeEngine(small_forest, p100)
    report = engine.predict(test_X[:40], batch_size=4, report=True).report
    # The most recent four of ten batches and decisions are kept ...
    assert [b.index for b in report.batches] == [6, 7, 8, 9]
    assert [d.batch_index for d in report.decisions] == [6, 7, 8, 9]
    assert report.meta["batches_dropped"] == report.meta["decisions_dropped"] == 6
    # ... while the aggregates cover all ten.
    counters = report.metrics["counters"]
    assert counters["batches_total"] == 10 and counters["samples_total"] == 40
    assert report.metrics["histograms"]["batch_time_seconds"]["count"] == 10
    assert report.calibration["n_decisions"] == 10


def test_report_covers_conversion_stages_and_traffic(small_forest, test_X, p100):
    engine = TahoeEngine(small_forest, p100)
    report = engine.predict(test_X, batch_size=60, report=True).report
    assert report.engine == "tahoe"
    assert report.gpu == p100.name
    assert report.n_samples == test_X.shape[0]
    assert report.total_time > 0
    assert report.throughput > 0
    # the section 7.4 five-stage conversion breakdown
    (conv,) = report.conversions
    assert set(conv.stages) == {
        "fetch_probabilities",
        "node_rearrangement",
        "similarity_detection",
        "format_conversion",
        "copy_to_gpu",
    }
    assert conv.total > 0
    # per-batch traffic made it into the batch records and the metrics
    assert all("forest_global" in b.traffic for b in report.batches)
    counters = report.metrics["counters"]
    assert counters["batches_total"] == len(report.batches)
    assert counters["samples_total"] == test_X.shape[0]
    assert counters["traffic.forest_global.fetched_bytes"] > 0
    # the continuous section 6 model-accuracy accounting
    accounting = report.model_accounting()
    assert accounting["overall"]["n"] == len(report.decisions)
    assert accounting["overall"]["mean_ratio"] > 0
    for row in accounting.values():
        assert row["mean_abs_rel_error"] >= 0


def test_report_round_trips_through_json(small_forest, test_X, p100, tmp_path):
    engine = TahoeEngine(small_forest, p100)
    report = engine.predict(test_X, batch_size=60, report=True).report
    path = write_report_json(report, tmp_path / "run.json")
    assert load_report_json(path).to_dict() == report.to_dict()
    # and it renders as a human-readable report without blowing up
    text = format_run_report(report)
    assert "conversion" in text.lower()
    assert report.batches[0].strategy in text


def test_tracing_config_records_spans(small_forest, test_X, p100):
    config = TahoeConfig(obs=ObsConfig(tracing=True))
    engine = TahoeEngine(small_forest, p100, config=config)
    engine.predict(test_X, batch_size=60, report=False)
    names = {s.name for s in engine.recorder.tracer.spans}
    assert "engine.convert" in names
    assert "engine.predict" in names
    assert "engine.run_batch" in names
    assert "rank_strategies" in names
    assert "similarity_detection" in names
    # kernel-loop spans from the simulator layer
    assert any(n.startswith("gpusim.trace_") for n in names)
    assert any(n.startswith("strategy.") for n in names)
    # nesting: run_batch spans sit below the predict span
    predict_span = engine.recorder.tracer.find("engine.predict")[0]
    for batch_span in engine.recorder.tracer.find("engine.run_batch"):
        assert batch_span.depth > predict_span.depth


def test_tracing_off_by_default_records_no_spans(small_forest, test_X, p100):
    engine = TahoeEngine(small_forest, p100)
    engine.predict(test_X[:50], report=False)
    assert engine.recorder.tracer.spans == []
    assert not engine.recorder.tracer.enabled


def test_default_config_engines_do_not_share_state(small_forest, p100):
    # regression: the config default used to be a shared mutable instance
    a = TahoeEngine(small_forest, p100)
    b = TahoeEngine(small_forest, p100)
    assert a.config is not b.config
    assert a.recorder is not b.recorder


def test_predictions_identical_with_and_without_reporting(small_forest, test_X, p100):
    plain = TahoeEngine(small_forest, p100).predict(test_X, batch_size=60)
    traced = TahoeEngine(
        small_forest, p100, config=TahoeConfig(obs=ObsConfig(tracing=True))
    ).predict(test_X, batch_size=60, report=True)
    np.testing.assert_allclose(plain.predictions, traced.predictions)
    assert plain.total_time == traced.total_time


def test_level_stats_default_arrays_allocated():
    # regression: ndarray fields were declared with field(default=None)
    stats = LevelStats(max_levels=5)
    for arr in (stats.distance_sum, stats.pair_count, stats.requested, stats.fetched):
        assert isinstance(arr, np.ndarray)
        assert arr.shape == (5,)
        assert not arr.any()
    custom = np.ones(5)
    assert LevelStats(max_levels=5, distance_sum=custom).distance_sum is custom
