"""The unified serving surface: Server/Workload protocols and the
SchedulerConfig/PolicyConfig split."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving import (
    AutoscaleConfig,
    BurstWorkload,
    PoissonWorkload,
    PolicyConfig,
    SLOConfig,
    SchedulerConfig,
    Server,
    TahoeServer,
    UserPopulationWorkload,
    Workload,
    make_workload,
)
from repro.serving.api import materialize_workload
from repro.serving.fleet import TahoeRouter


@pytest.fixture(scope="module")
def sched():
    return SchedulerConfig(max_wait=1e-3, max_batch=64)


class TestServerProtocol:
    def test_tahoe_server_is_a_server(self, small_forest, p100, sched):
        assert isinstance(TahoeServer(small_forest, p100, scheduler=sched), Server)

    def test_router_is_a_server(self, small_forest, p100, sched):
        router = TahoeRouter(small_forest, p100, n_shards=2, scheduler=sched)
        assert isinstance(router, Server)

    def test_a_list_is_not_a_server(self):
        assert not isinstance([], Server)


class TestWorkloadProtocol:
    def test_workload_classes_conform(self, test_X):
        for wl in (
            PoissonWorkload(test_X, qps=100.0, duration=0.1),
            BurstWorkload(test_X, qps=100.0, duration=0.1),
            UserPopulationWorkload(test_X, qps=100.0, duration=0.1, n_users=10),
        ):
            assert isinstance(wl, Workload)

    def test_a_request_list_is_not_a_workload(self):
        assert not isinstance([], Workload)

    def test_registry_lookup(self, test_X):
        kw = dict(qps=1.0, duration=0.1)
        assert isinstance(make_workload("poisson", test_X, **kw), PoissonWorkload)
        assert isinstance(make_workload("burst", test_X, **kw), BurstWorkload)
        assert isinstance(
            make_workload("user-population", test_X, n_users=5, **kw),
            UserPopulationWorkload,
        )

    def test_registry_rejects_unknown_traffic(self, test_X):
        with pytest.raises(ValueError, match="poisson"):
            make_workload("pareto", test_X, qps=1.0, duration=0.1)

    def test_registry_filters_foreign_kwargs(self, test_X):
        # burst_factor is a BurstWorkload knob; the registry drops it for
        # poisson instead of exploding, so one CLI surface serves all.
        wl = make_workload(
            "poisson", test_X, qps=1.0, duration=0.1, burst_factor=50.0
        )
        assert isinstance(wl, PoissonWorkload)

    def test_materialize_none_and_lists(self):
        assert materialize_workload(None, None) == []
        assert materialize_workload([1, 2], None) == [1, 2]

    def test_materialize_needs_a_horizon(self, test_X):
        class NoDuration:
            def arrivals(self, rng, horizon):
                return []

        with pytest.raises(ValueError, match="until"):
            materialize_workload(NoDuration(), None)
        assert materialize_workload(NoDuration(), 0.5) == []


class TestConfigSplit:
    def test_scheduler_config_does_not_warn(self, recwarn):
        SchedulerConfig(max_batch=32)
        assert not [w for w in recwarn if w.category is DeprecationWarning]

    def test_slo_moves_into_policy(self, small_forest, p100):
        slo = SLOConfig(latency_p95=1e-3)
        server = TahoeServer(small_forest, p100, policy=PolicyConfig(slo=slo))
        assert server.slo is not None
        with pytest.raises(TypeError, match="slo"):
            TahoeServer(small_forest, p100, policy=PolicyConfig(slo=slo), slo=slo)

    def test_scheduler_validation(self):
        with pytest.raises(ValueError):
            SchedulerConfig(n_engines=0)
        with pytest.raises(ValueError):
            SchedulerConfig(max_queue=0)

    def test_autoscale_needs_an_objective(self):
        with pytest.raises(ValueError, match="objective"):
            AutoscaleConfig()

    def test_autoscale_hysteresis_defaults(self):
        cfg = AutoscaleConfig(scale_up_latency_p95=4e-3, scale_up_queue_depth=100)
        assert cfg.down_latency == pytest.approx(1e-3)
        assert cfg.down_queue_depth == pytest.approx(25.0)


class TestIncrementalRun:
    def test_stepped_run_matches_one_shot(self, small_forest, p100, test_X, sched):
        wl = PoissonWorkload(test_X, qps=2000.0, duration=0.05, seed=3)
        stepped = TahoeServer(small_forest, p100, scheduler=sched)
        first = stepped.run(wl, until=0.02)
        rest = stepped.run()
        one_shot = TahoeServer(small_forest, p100, scheduler=sched).run(wl)
        got = {r.request_id: r for r in first.responses + rest.responses}
        want = {r.request_id: r for r in one_shot.responses}
        assert set(got) == set(want)
        assert all(
            np.array_equal(got[k].predictions, want[k].predictions) for k in want
        )

    def test_submit_then_drain(self, small_forest, p100, test_X, sched):
        from repro.serving import InferenceRequest

        server = TahoeServer(small_forest, p100, scheduler=sched)
        rejected = server.submit(
            InferenceRequest(request_id=0, X=test_X[0], arrival_time=0.0)
        )
        assert rejected is None  # queued, not rejected
        result = server.run()
        assert len(result.responses) == 1 and result.responses[0].ok

    def test_summary_and_metrics_surfaces(self, small_forest, p100, test_X, sched):
        wl = PoissonWorkload(test_X, qps=500.0, duration=0.02, seed=1)
        server = TahoeServer(small_forest, p100, scheduler=sched)
        server.run(wl)
        summary = server.summary()
        assert summary["completed"] == summary["requests"] > 0
        assert server.metrics().counter("serving.requests_total").value > 0
