"""The serving surface: SchedulerConfig and the incremental submit/run
loop of TahoeServer over request lists."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving import SchedulerConfig, TahoeServer, poisson_workload


@pytest.fixture(scope="module")
def sched():
    return SchedulerConfig(max_wait=1e-3, max_batch=64)


class TestConfigSplit:
    def test_scheduler_config_does_not_warn(self, recwarn):
        SchedulerConfig(max_batch=32)
        assert not [w for w in recwarn if w.category is DeprecationWarning]

    def test_scheduler_validation(self):
        with pytest.raises(ValueError):
            SchedulerConfig(n_engines=0)
        with pytest.raises(ValueError):
            SchedulerConfig(max_queue=0)


class TestIncrementalRun:
    def test_stepped_run_matches_one_shot(self, small_forest, p100, test_X, sched):
        wl = poisson_workload(test_X, qps=2000.0, duration=0.05, seed=3)
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
        wl = poisson_workload(test_X, qps=500.0, duration=0.02, seed=1)
        server = TahoeServer(small_forest, p100, scheduler=sched)
        server.run(wl)
        summary = server.summary()
        assert summary["completed"] == summary["requests"] > 0
        assert server.metrics().counter("serving.requests_total").value > 0
