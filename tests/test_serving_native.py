"""Serving on the native backend: wall-clock pools behind the same
micro-batching scheduler."""

import numpy as np
import pytest

from repro.core import TIME_DOMAIN_SIMULATED, TIME_DOMAIN_WALL
from repro.core.native import NativeEngine
from repro.modelstore import load_packed, pack_layout
from repro.perfmodel import NativeCostModel
from repro.serving import InferenceRequest, SchedulerConfig, TahoeServer


def make_server(forest, spec, **overrides):
    defaults = dict(n_engines=1, max_wait=1e-3, max_batch=256, backend="native")
    defaults.update(overrides)
    return TahoeServer(forest, spec, scheduler=SchedulerConfig(**defaults))


def requests_from(X, n, *, spacing=1e-5):
    return [
        InferenceRequest(
            request_id=i,
            X=X[i % X.shape[0]][None, :],
            arrival_time=i * spacing,
        )
        for i in range(n)
    ]


class TestNativePool:
    def test_serves_bit_identical_to_simulator_pool(
        self, small_forest, p100, test_X
    ):
        reqs = requests_from(test_X, 50)
        native = make_server(small_forest, p100).run(requests_from(test_X, 50))
        tahoe = make_server(small_forest, p100, backend="tahoe").run(reqs)
        assert all(r.ok for r in native.responses)
        for rn, rt in zip(
            sorted(native.responses, key=lambda r: r.request_id),
            sorted(tahoe.responses, key=lambda r: r.request_id),
        ):
            assert np.array_equal(rn.predictions, rt.predictions)

    def test_summary_reports_backend_and_clock(self, small_forest, p100, test_X):
        result = make_server(small_forest, p100).run(requests_from(test_X, 30))
        assert result.summary["backend"] == "native"
        assert result.summary["time_domain"] == TIME_DOMAIN_WALL

    def test_simulated_summary_keeps_its_clock(self, small_forest, p100, test_X):
        server = make_server(small_forest, p100, backend="tahoe")
        result = server.run(requests_from(test_X, 30))
        assert result.summary["backend"] == "tahoe"
        assert result.summary["time_domain"] == TIME_DOMAIN_SIMULATED

    def test_engines_are_native(self, small_forest, p100):
        server = make_server(small_forest, p100, n_engines=2)
        assert all(isinstance(e, NativeEngine) for e in server.engines)

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            SchedulerConfig(backend="fpga")


class TestFittedFlushPoint:
    def test_flush_point_is_knee_of_fitted_curve(self, small_forest, p100):
        server = make_server(small_forest, p100, max_batch=128)
        target = server.plan_flush_point()
        plan = server.flush_plan
        curve = {int(b): t for b, t in plan["curve"].items()}
        # Power-of-two candidate ladder, like the simulated planner's.
        assert sorted(curve) == [1, 2, 4, 8, 16, 32, 64, 128]
        floor = min(curve.values())
        assert target == min(b for b, t in curve.items() if t <= 1.05 * floor)
        model = server.engines[0].cost_model()
        assert plan["t_fixed"] == model.t_fixed
        assert plan["t_per_row"] == model.t_per_row
        assert plan["kernel"] == model.kernel

    def test_plan_from_fixed_model_is_analytic_knee(self, small_forest, p100):
        # An explicit target skips planning at construction (and the fit).
        server = make_server(small_forest, p100, max_batch=1024, target_batch=1)
        server.engines[0]._cost_model = NativeCostModel(
            t_fixed=200e-6, t_per_row=15e-6, kernel="numpy"
        )
        # 200 us / b + 15 us per row is within 5 % of its value at 1,024
        # rows from b = 210 on: the knee is the next power of two.
        assert [server.plan_flush_point() for _ in range(7)] == [256] * 7
        assert server.flush_plan["t_fixed"] == 200e-6
        assert server.flush_plan["t_per_row"] == 15e-6

    def test_summary_records_the_plan(self, small_forest, p100, test_X):
        server = make_server(small_forest, p100, max_batch=64)
        summary = server.run(requests_from(test_X, 10)).summary
        assert summary["flush_plan"] is server.flush_plan
        assert set(summary["flush_plan"]) == {"curve", "t_fixed", "t_per_row", "kernel"}

    def test_simulated_plan_records_the_curve_only(self, small_forest, p100):
        server = make_server(small_forest, p100, max_batch=64, backend="tahoe")
        assert set(server.flush_plan) == {"curve"}

    def test_explicit_target_batch_is_not_planned(self, small_forest, p100):
        server = make_server(small_forest, p100, target_batch=8)
        assert server.flush_plan is None
        assert server.engines[0]._cost_model is None


class TestPackedNativePool:
    def test_packed_artifact_backs_native_pool(
        self, small_forest, p100, test_X, tmp_path
    ):
        reference = NativeEngine(small_forest, p100)
        path = tmp_path / "model.tahoe"
        pack_layout(
            reference.layout,
            path,
            engine="tahoe",
            spec_name=p100.name,
            conversion_key=reference.config.conversion_key(),
            source_fingerprint=small_forest.fingerprint(),
        )
        server = TahoeServer(
            packed=load_packed(path),
            spec=p100,
            scheduler=SchedulerConfig(
                n_engines=2, max_wait=1e-3, max_batch=128, backend="native"
            ),
            )
        result = server.run(requests_from(test_X, 40))
        assert all(r.ok for r in result.responses)
        expected = reference.predict(test_X[:1]).predictions
        first = min(result.responses, key=lambda r: r.request_id)
        assert np.array_equal(first.predictions, expected)
