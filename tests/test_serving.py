"""Tests for the micro-batching serving layer."""

import hashlib
import struct

import numpy as np
import pytest

from repro.serving import (
    REJECTED_DEADLINE,
    REJECTED_QUEUE_FULL,
    InferenceRequest,
    SchedulerConfig,
    TahoeServer,
    poisson_workload,
)


def make_server(forest, spec, **overrides):
    defaults = dict(n_engines=1, max_wait=1e-3, max_batch=256)
    defaults.update(overrides)
    return TahoeServer(forest, spec, scheduler=SchedulerConfig(**defaults))


def single_sample_requests(X, n, *, start=0.0, spacing=0.0, deadline=None):
    return [
        InferenceRequest(
            request_id=i,
            X=X[i % X.shape[0]][None, :],
            arrival_time=start + i * spacing,
            deadline=(start + i * spacing + deadline) if deadline is not None else None,
        )
        for i in range(n)
    ]


class TestMicroBatching:
    def test_coalesces_and_predicts_correctly(self, small_forest, p100, test_X):
        server = make_server(small_forest, p100)
        reqs = single_sample_requests(test_X, 60, spacing=1e-5)
        result = server.run(reqs)
        assert len(result.responses) == 60
        assert all(r.ok for r in result.responses)
        # Coalescing happened: far fewer micro-batches than requests.
        assert 0 < result.summary["batches"] < 60
        for resp in result.responses:
            np.testing.assert_allclose(
                resp.predictions,
                small_forest.predict(reqs[resp.request_id].X),
                rtol=1e-5,
            )

    def test_flush_point_from_models(self, small_forest, p100):
        server = make_server(small_forest, p100)
        assert 1 <= server.target_batch <= server.config.max_batch

    def test_flush_point_override(self, small_forest, p100):
        server = make_server(small_forest, p100, target_batch=7)
        assert server.target_batch == 7

    def test_target_batch_triggers_flush(self, small_forest, p100, test_X):
        server = make_server(small_forest, p100, target_batch=8, max_wait=10.0)
        # All arrive at ~t=0; only the target, never the (huge) max wait,
        # can trigger the first 3 flushes.
        reqs = single_sample_requests(test_X, 25, spacing=1e-9)
        result = server.run(reqs)
        hist = result.summary["batch_size_histogram"]
        assert hist.get("8") == 3
        assert result.summary["batches"] == 4  # 3 full + 1 drain

    def test_max_wait_bounds_latency(self, small_forest, p100, test_X):
        server = make_server(small_forest, p100, max_wait=5e-4, target_batch=10_000)
        reqs = single_sample_requests(test_X, 30, spacing=1e-5)
        result = server.run(reqs)
        # Every request waits at most max_wait + one batch service time.
        service_bound = max(
            r.completion_time - r.arrival_time for r in result.responses
        )
        assert service_bound < 5e-4 + 0.01
        assert result.summary["latency_s"]["p99"] >= result.summary["latency_s"]["p50"]

    def test_round_robin_uses_every_engine(self, small_forest, p100, test_X):
        server = make_server(small_forest, p100, n_engines=3, target_batch=5)
        reqs = single_sample_requests(test_X, 30, spacing=1e-9)
        server.run(reqs)
        assert all(t > 0 for t in server._engine_free)


class TestAdmissionControl:
    def test_backpressure_rejects_structured(self, small_forest, p100, test_X):
        server = make_server(
            small_forest, p100, max_queue=5, target_batch=10_000, max_wait=10.0
        )
        reqs = single_sample_requests(test_X, 12, spacing=1e-9)
        result = server.run(reqs)
        rejected = [r for r in result.responses if not r.ok]
        assert len(rejected) == 7
        for r in rejected:
            assert r.error.code == REJECTED_QUEUE_FULL
            assert r.predictions is None
        # The queued 5 still completed — no exception mid-batch.
        assert result.summary["completed"] == 5
        assert result.summary["rejected_queue_full"] == 7

    def test_expired_deadline_rejected_at_dispatch(self, small_forest, p100, test_X):
        # Deadline shorter than the coalescing wait: expired by flush time.
        server = make_server(
            small_forest, p100, max_wait=1e-2, target_batch=10_000
        )
        reqs = single_sample_requests(test_X, 8, spacing=1e-6, deadline=1e-4)
        result = server.run(reqs)
        assert result.summary["rejected_deadline"] == 8
        for r in result.responses:
            assert not r.ok
            assert r.error.code == REJECTED_DEADLINE
            assert "deadline" in r.error.detail

    def test_nothing_completed_achieves_zero(self, small_forest, p100, test_X):
        # Every request is expired on arrival (deadline == arrival time).
        server = make_server(small_forest, p100)
        reqs = single_sample_requests(test_X, 6, spacing=1e-4, deadline=0.0)
        s = server.run(reqs).summary
        assert s["completed"] == 0 and s["rejected_deadline"] == 6
        assert s["achieved_qps"] == 0.0
        assert s["achieved_samples_per_s"] == 0.0

    def test_mixed_batch_survives_expired_neighbours(self, small_forest, p100, test_X):
        server = make_server(
            small_forest, p100, max_wait=1e-2, target_batch=10_000
        )
        live = single_sample_requests(test_X, 4, spacing=1e-6)
        doomed = [
            InferenceRequest(
                request_id=100 + i,
                X=test_X[i][None, :],
                arrival_time=1e-5 + i * 1e-6,
                deadline=2e-5,
            )
            for i in range(3)
        ]
        result = server.run(live + doomed)
        ok = [r for r in result.responses if r.ok]
        bad = [r for r in result.responses if not r.ok]
        assert len(ok) == 4 and len(bad) == 3
        for resp in ok:
            np.testing.assert_allclose(
                resp.predictions,
                small_forest.predict(live[resp.request_id].X),
                rtol=1e-5,
            )

    def test_late_completion_counts_as_miss_not_rejection(
        self, small_forest, p100, test_X
    ):
        # Deadline after dispatch but before completion: work is done,
        # response is marked late, nothing is rejected.
        server = make_server(small_forest, p100, max_wait=0.0)
        req = InferenceRequest(
            request_id=0, X=test_X[:1], arrival_time=0.0, deadline=1e-12
        )
        result = server.run([req])
        (resp,) = result.responses
        assert resp.ok
        assert resp.missed_deadline
        assert result.summary["deadline_misses"] == 1
        assert result.summary["rejected_deadline"] == 0


class TestServingTelemetry:
    def test_report_and_metrics(self, small_forest, p100, test_X):
        server = make_server(small_forest, p100)
        reqs = single_sample_requests(test_X, 40, spacing=1e-5)
        result = server.run(reqs, report=True)
        assert result.report is not None
        assert result.report.engine == "tahoe-serving"
        counters = result.report.metrics["counters"]
        assert counters["serving.requests_total"] == 40
        assert counters["serving.completed"] == 40
        assert counters["serving.batches_total"] == result.summary["batches"]
        hists = result.report.metrics["histograms"]
        assert hists["serving.batch_size"]["count"] == result.summary["batches"]
        assert hists["serving.request_latency_seconds"]["count"] == 40
        assert "serving.queue_depth" in hists
        assert result.report.meta["serving_summary"]["completed"] == 40
        # Batch records flowed through the shared RunReport schema.
        assert len(result.report.batches) == result.summary["batches"]

    def test_summary_latency_quantiles_ordered(self, small_forest, p100, test_X):
        server = make_server(small_forest, p100)
        result = server.run(single_sample_requests(test_X, 50, spacing=2e-5))
        lat = result.summary["latency_s"]
        assert 0 < lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"]

    def test_conversion_visible_in_summary(self, small_forest, p100, test_X):
        server = TahoeServer(
            small_forest, p100, scheduler=SchedulerConfig(n_engines=2)
        )
        result = server.run(single_sample_requests(test_X, 5, spacing=1e-5))
        conv = result.summary["conversion"]
        assert conv["source"] == "pipeline" and conv["total_s"] > 0
        # The second replica adopted the first one's layout: one conversion.
        assert result.summary["n_engines"] == 2
        assert server.metrics().counter("conversions_total").value == 1


class TestWorkloadGenerator:
    def test_poisson_properties(self, test_X):
        reqs = poisson_workload(
            test_X, qps=1000, duration=0.2, seed=4, deadline=0.05
        )
        assert len(reqs) > 100
        times = [r.arrival_time for r in reqs]
        assert times == sorted(times)
        assert all(0 < t < 0.2 for t in times)
        assert all(r.deadline == pytest.approx(r.arrival_time + 0.05) for r in reqs)
        assert all(r.n_samples == 1 for r in reqs)

    def test_deterministic_given_seed(self, test_X):
        a = poisson_workload(test_X, qps=500, duration=0.1, seed=9)
        b = poisson_workload(test_X, qps=500, duration=0.1, seed=9)
        assert [r.arrival_time for r in a] == [r.arrival_time for r in b]
        for ra, rb in zip(a, b):
            np.testing.assert_array_equal(ra.X, rb.X)

    def test_request_sizes(self, test_X):
        reqs = poisson_workload(
            test_X, qps=2000, duration=0.1, seed=2, max_request_samples=4
        )
        sizes = {r.n_samples for r in reqs}
        assert sizes <= {1, 2, 3, 4}
        assert len(sizes) > 1

    def test_rejects_bad_parameters(self, test_X):
        with pytest.raises(ValueError):
            poisson_workload(test_X, qps=0, duration=1.0)
        with pytest.raises(ValueError):
            poisson_workload(test_X, qps=10, duration=0)
        with pytest.raises(ValueError):
            poisson_workload(test_X, qps=10, duration=1.0, max_request_samples=0)
        for deadline in (0.0, -0.005):
            with pytest.raises(ValueError, match="deadline"):
                poisson_workload(test_X, qps=10, duration=1.0, deadline=deadline)

    def test_burst_requests_are_pinned(self, test_X):
        # The steady, burst and steady phases draw from seeds 2, 3 and 4;
        # the digest pins every request's id, arrival time and rows.
        reqs = poisson_workload(
            test_X, qps=500, duration=0.1, burst_factor=10, seed=2,
            max_request_samples=4,
        )
        digest = hashlib.sha256()
        for r in reqs:
            digest.update(struct.pack("<qd", r.request_id, r.arrival_time))
            digest.update(r.X.tobytes())
        assert len(reqs) == 126
        assert digest.hexdigest() == (
            "9137b416c317947983b6ab33a7c4fe71def9cbc98fd9ab6596c362da73c0e59a"
        )

    def test_end_to_end_sustains_offered_rate(self, small_forest, p100, test_X):
        server = make_server(small_forest, p100, n_engines=2)
        reqs = poisson_workload(test_X, qps=2000, duration=0.2, seed=1, deadline=0.05)
        result = server.run(reqs)
        s = result.summary
        assert s["completed"] == len(reqs)
        assert s["achieved_qps"] >= 0.9 * min(2000, s["offered_qps"])


class TestRequestValidation:
    def test_empty_request_rejected_at_construction(self):
        with pytest.raises(ValueError):
            InferenceRequest(request_id=0, X=np.zeros((0, 4)), arrival_time=0.0)

    def test_1d_payload_promoted(self):
        req = InferenceRequest(request_id=0, X=np.zeros(4), arrival_time=0.0)
        assert req.X.shape == (1, 4)
        assert req.n_samples == 1
