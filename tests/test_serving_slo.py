"""SLO monitor: rolling windows, transition-only events, overload breaches."""

import pytest

from repro.serving import (
    SchedulerConfig,
    SLOConfig,
    SLOMonitor,
    TahoeServer,
    poisson_workload,
)


class TestSLOConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SLOConfig(window=0.0)
        with pytest.raises(ValueError):
            SLOConfig(eval_interval=-1.0)
        with pytest.raises(ValueError):
            SLOConfig(min_requests=0)

    def test_objectives_subset(self):
        cfg = SLOConfig(latency_p95=0.01, error_rate=0.05)
        assert cfg.objectives() == {"latency_p95": 0.01, "error_rate": 0.05}
        assert SLOConfig().objectives() == {}


class TestSLOMonitorUnit:
    def _fill(self, monitor, *, start, n, latency, ok=True, spacing=1e-3):
        for i in range(n):
            monitor.observe(
                now=start + i * spacing, latency=latency, queue_wait=0.0, ok=ok
            )

    def test_breach_and_recovery_are_transition_only(self):
        cfg = SLOConfig(window=1.0, latency_p95=0.005, min_requests=5)
        monitor = SLOMonitor(cfg)
        self._fill(monitor, start=0.0, n=30, latency=0.001)
        monitor.evaluate(0.03)
        assert monitor.events == []

        # Window turns slow: exactly one breach event, even across
        # repeated evaluations while the breach persists.
        self._fill(monitor, start=2.0, n=30, latency=0.02)
        monitor.evaluate(2.03)
        monitor.evaluate(2.04)
        breaches = [e for e in monitor.events if e["event"] == "slo.breach"]
        assert len(breaches) == 1
        (event,) = breaches
        assert event["objective"] == "latency_p95"
        assert event["observed"] > event["threshold"] == 0.005
        assert event["window_requests"] >= 5

        # Fast again (old slow samples age out of the window): recovery.
        self._fill(monitor, start=4.0, n=30, latency=0.001)
        monitor.evaluate(4.03)
        kinds = [e["event"] for e in monitor.events]
        assert kinds == ["slo.breach", "slo.recovered"]

    def test_min_requests_floor_suppresses_sparse_windows(self):
        cfg = SLOConfig(window=1.0, latency_p95=0.001, min_requests=20)
        monitor = SLOMonitor(cfg)
        self._fill(monitor, start=0.0, n=5, latency=1.0)  # wildly slow but sparse
        assert monitor.evaluate(0.01) == []
        assert monitor.events == []

    def test_error_rate_objective_counts_failures(self):
        cfg = SLOConfig(window=1.0, error_rate=0.1, min_requests=5)
        monitor = SLOMonitor(cfg)
        self._fill(monitor, start=0.0, n=8, latency=0.001)
        self._fill(monitor, start=0.01, n=2, latency=0.0, ok=False)
        events = monitor.evaluate(0.02)
        assert events and events[0]["objective"] == "error_rate"
        assert events[0]["observed"] == pytest.approx(0.2)

    def test_window_trims_old_observations(self):
        cfg = SLOConfig(window=0.5, latency_p95=0.01, min_requests=1)
        monitor = SLOMonitor(cfg)
        self._fill(monitor, start=0.0, n=10, latency=1.0)
        stats = monitor.window_stats(10.0)  # everything aged out
        assert stats["requests"] == 0

    def test_summary_shape(self):
        monitor = SLOMonitor(SLOConfig(latency_p95=0.01))
        s = monitor.summary()
        assert s["objectives"] == {"latency_p95": 0.01}
        assert s["breaches"] == 0
        assert s["in_breach"] == []
        assert s["events"] == []


class TestServerIntegration:
    def test_server_accepts_config_monitor_or_none(self, small_forest, p100):
        cfg = SchedulerConfig(n_engines=1)
        assert TahoeServer(small_forest, p100, scheduler=cfg).slo is None
        s = TahoeServer(small_forest, p100, scheduler=cfg, slo=SLOConfig())
        assert isinstance(s.slo, SLOMonitor)
        monitor = SLOMonitor(SLOConfig())
        s = TahoeServer(small_forest, p100, scheduler=cfg, slo=monitor)
        assert s.slo is monitor
        with pytest.raises(TypeError):
            TahoeServer(small_forest, p100, scheduler=cfg, slo=object())

    def test_healthy_run_has_no_breaches(self, small_forest, p100, test_X):
        server = TahoeServer(
            small_forest,
            p100,
            scheduler=SchedulerConfig(n_engines=2),
            slo=SLOConfig(latency_p95=1.0, error_rate=0.5, window=0.05),
        )
        reqs = poisson_workload(test_X, qps=2000, duration=0.1, seed=3)
        result = server.run(reqs)
        slo = result.summary["slo"]
        assert slo["breaches"] == 0 and slo["in_breach"] == []

    def test_overload_emits_structured_breach_events(
        self, small_forest, p100, test_X
    ):
        # One engine, tiny batches, a 50x burst: queueing collapses and
        # both the latency and the error-rate objectives must breach.
        server = TahoeServer(
            small_forest,
            p100,
            scheduler=SchedulerConfig(n_engines=1, max_batch=8, max_wait=2e-3),
            slo=SLOConfig(
                latency_p95=2e-3, error_rate=0.05, window=0.05, min_requests=10
            ),
        )
        reqs = poisson_workload(
            test_X,
            qps=1000,
            duration=0.2,
            burst_factor=50,
            seed=5,
            deadline=5e-3,
        )
        result = server.run(reqs, report=True)
        slo = result.summary["slo"]
        assert slo["breaches"] >= 1
        breached = {e["objective"] for e in slo["events"] if e["event"] == "slo.breach"}
        assert "latency_p95" in breached
        for event in slo["events"]:
            assert {"event", "objective", "observed", "threshold", "time"} <= set(event)
        # The same structured events land in the run report.
        assert result.report.meta["slo"]["breaches"] == slo["breaches"]


class TestBurstWorkload:
    def test_burst_raises_rate_inside_window(self, test_X):
        reqs = poisson_workload(
            test_X, qps=1000, duration=0.3, burst_factor=20, burst_fraction=0.2, seed=0
        )
        times = [r.arrival_time for r in reqs]
        assert times == sorted(times)
        assert len({r.request_id for r in reqs}) == len(reqs)
        # The burst window [0.12, 0.18) sees ~20x the baseline density.
        burst = sum(1 for t in times if 0.12 <= t < 0.18)
        pre = sum(1 for t in times if t < 0.12)
        assert burst > 3 * pre

    def test_degenerate_parameters(self, test_X):
        with pytest.raises(ValueError):
            poisson_workload(test_X, qps=100, duration=0.1, burst_factor=0.5)
        with pytest.raises(ValueError):
            poisson_workload(
                test_X, qps=100, duration=0.1, burst_factor=10, burst_fraction=1.0
            )
        # factor 1, or a zero-length burst, is flat poisson traffic.
        plain = poisson_workload(test_X, qps=500, duration=0.1, seed=2)
        for flat in (
            poisson_workload(test_X, qps=500, duration=0.1, burst_factor=1.0, seed=2),
            poisson_workload(
                test_X, qps=500, duration=0.1, burst_factor=10, burst_fraction=0.0,
                seed=2,
            ),
        ):
            assert [r.arrival_time for r in flat] == [r.arrival_time for r in plain]
