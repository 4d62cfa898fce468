"""Serving on the native backend: wall-clock pools behind the same
micro-batching scheduler."""

import numpy as np
import pytest

from repro.core import TIME_DOMAIN_SIMULATED, TIME_DOMAIN_WALL
from repro.core.native import NativeEngine
from repro.modelstore import load_packed, pack_layout
from repro.perfmodel import calibrate_native_model
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


class TestFlushAtMaxBatch:
    def test_building_a_server_fits_no_cost_model(self, small_forest, p100, monkeypatch):
        fits = []

        def fit(*args, **kwargs):
            fits.append(kwargs)
            return calibrate_native_model(*args, **kwargs)

        monkeypatch.setattr("repro.core.native.calibrate_native_model", fit)
        server = make_server(small_forest, p100, n_engines=2)
        assert fits == []
        assert all(engine._cost_model is None for engine in server.engines)

    @pytest.mark.parametrize("backend", ["tahoe", "native"])
    def test_flush_point_is_max_batch_across_a_swap(
        self, small_forest, small_gbdt, p100, backend
    ):
        # Far past any knee of the per-sample cost: a planner would stop short.
        max_batch = 1 << 16
        server = make_server(small_forest, p100, max_batch=max_batch, backend=backend)
        assert server.target_batch == max_batch
        server.swap(server.stage(forest=small_gbdt).version)
        assert server.target_batch == max_batch
        assert server.summary()["target_batch"] == max_batch
        assert "flush_plan" not in server.summary()


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
