"""Per-batch serving accounting: what a run costs grows with its
micro-batches, not with its requests; the run summary is built when read;
the serving loop's wall time splits into measured layers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import LayoutCache
from repro.gpusim.counters import TrafficCounters
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.serving import InferenceRequest, SchedulerConfig, TahoeServer
from repro.serving.server import WALL_LAYERS


@pytest.fixture(scope="module")
def cache():
    return LayoutCache()


def native_server(forest, spec, cache, **overrides):
    defaults = dict(n_engines=1, max_wait=1e-3, max_batch=4096, backend="native")
    defaults.update(overrides)
    return TahoeServer(
        forest, spec, scheduler=SchedulerConfig(**defaults), layout_cache=cache
    )


def one_row_requests(X, n, *, first_id=0, start=0.0, spacing=0.0):
    return [
        InferenceRequest(first_id + i, X[i % X.shape[0]][None, :], start + i * spacing)
        for i in range(n)
    ]


class _Spy:
    """Counts calls of the patched methods while it is installed."""

    def __init__(self, monkeypatch, targets):
        self.calls = dict.fromkeys([name for _, name in targets], 0)
        for owner, name in targets:
            original = getattr(owner, name)

            def spy(*args, _original=original, _name=name, **kwargs):
                self.calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, spy)


class TestWorkPerBatch:
    def count_updates(self, forest, spec, cache, X, monkeypatch, n, n_batches):
        server = native_server(
            forest, spec, cache, target_batch=n // n_batches, max_wait=10.0
        )
        with monkeypatch.context() as patch:
            spy = _Spy(
                patch,
                [
                    (Histogram, "observe"),
                    (Histogram, "observe_many"),
                    (MetricsRegistry, "counter"),
                    (MetricsRegistry, "histogram"),
                ],
            )
            result = server.run(one_row_requests(X, n))
        assert len(result.responses) == n and all(r.ok for r in result.responses)
        assert result.summary["batches"] == n_batches
        return spy.calls

    def test_histogram_updates_and_lookups_grow_with_batches_not_requests(
        self, small_forest, p100, cache, test_X, monkeypatch
    ):
        small = self.count_updates(small_forest, p100, cache, test_X, monkeypatch, 200, 4)
        double = self.count_updates(small_forest, p100, cache, test_X, monkeypatch, 400, 4)
        assert double == small
        more_batches = self.count_updates(
            small_forest, p100, cache, test_X, monkeypatch, 400, 8
        )
        assert more_batches["observe_many"] > small["observe_many"]
        # A handful per batch, nowhere near one per request.
        assert sum(small.values()) < 200

    def test_record_traffic_resolves_its_counters_once(self, monkeypatch):
        registry = MetricsRegistry()
        registry.record_traffic(TrafficCounters())
        reference = registry.snapshot()
        with monkeypatch.context() as patch:
            spy = _Spy(patch, [(MetricsRegistry, "counter"), (MetricsRegistry, "_get")])
            for _ in range(5):
                registry.record_traffic(TrafficCounters())
        assert spy.calls == {"counter": 0, "_get": 0}
        # Same keys, same (zero) values as folding one all-zero kernel.
        assert registry.snapshot() == reference
        assert len(reference["counters"]) == 20

    def test_record_traffic_handles_survive_reset(self):
        registry = MetricsRegistry()
        registry.record_traffic(TrafficCounters())
        registry.reset()
        counters = TrafficCounters()
        counters.forest_global.fetched_bytes = 64
        registry.record_traffic(counters)
        snap = registry.snapshot()["counters"]
        assert snap["traffic.forest_global.fetched_bytes"] == 64
        assert len(snap) == 20


class TestLazySummary:
    def test_summary_read_after_later_runs_equals_eager_value(
        self, small_forest, p100, cache, test_X
    ):
        server = native_server(small_forest, p100, cache, max_queue=30)
        first = server.run(one_row_requests(test_X, 50, spacing=2e-4))
        eager = server.summary(first.responses)
        # Later runs move every counter and histogram the summary reads:
        # more batches and latencies, backpressure and expired deadlines.
        burst = one_row_requests(test_X, 80, first_id=1000, start=1.0)
        expired = [
            InferenceRequest(5000 + i, test_X[i][None, :], 2.0, deadline=2.0 - 1e-9)
            for i in range(3)
        ]
        server.run(burst)
        server.run(expired)
        later = server.summary(first.responses)
        assert later != eager
        assert first.summary == eager

    def test_report_runs_carry_the_summary(self, small_forest, p100, cache, test_X):
        server = native_server(small_forest, p100, cache)
        result = server.run(one_row_requests(test_X, 20), report=True)
        assert result.report.meta["serving_summary"] == result.summary
        assert result.summary["completed"] == 20


class TestWallLayers:
    def test_layers_account_for_a_replay_burst(self, small_forest, p100, cache, test_X):
        """2,000 one-row requests through one ``run()``: the measured
        layers add up to the outer wall time within 10 %."""
        server = native_server(small_forest, p100, cache, target_batch=1024, max_wait=2e-3)
        result = server.run(one_row_requests(test_X, 2000, spacing=2e-5))
        assert all(r.ok for r in result.responses)
        layers = server.wall_layers()
        assert set(layers["parts_s"]) == set(WALL_LAYERS)
        assert all(seconds > 0 for seconds in layers["parts_s"].values())
        covered = sum(layers["parts_s"].values())
        assert covered == pytest.approx(layers["run_s"], rel=0.10)
        assert layers["coverage"] == pytest.approx(covered / layers["run_s"])
        counters = server.metrics().snapshot()["counters"]
        assert counters["serving.wall.run_seconds"] == layers["run_s"]

    def test_layers_accumulate_over_runs(self, small_forest, p100, cache, test_X):
        server = native_server(small_forest, p100, cache)
        server.run(one_row_requests(test_X, 10))
        once = server.wall_layers()["run_s"]
        server.run(one_row_requests(test_X, 10, first_id=10, start=1.0))
        assert server.wall_layers()["run_s"] > once > 0


class TestFoldedAdmissionCounters:
    def test_direct_submits_fold_on_run(self, small_forest, p100, cache, test_X):
        """The incremental path: ``submit`` now, ``run()`` later."""
        server = native_server(small_forest, p100, cache)
        for req in one_row_requests(test_X, 7):
            server.submit(req)
        server.run()
        snap = server.recorder.metrics.snapshot()
        assert snap["counters"]["serving.requests_total"] == 7
        assert snap["histograms"]["serving.queue_depth"]["count"] == 7
        # Depths 0..6: each arrival saw the ones queued before it.
        assert snap["histograms"]["serving.queue_depth"]["sum"] == sum(range(7))

    def test_metrics_surface_folds_pending_arrivals(self, small_forest, p100, cache, test_X):
        server = native_server(small_forest, p100, cache)
        server.submit(one_row_requests(test_X, 1)[0])
        assert server.metrics().counter("serving.requests_total").value == 1


def test_n_samples_is_set_once():
    req = InferenceRequest(0, np.zeros((3, 4), np.float32), 0.0)
    assert req.n_samples == 3
    assert "n_samples" not in repr(req)
