"""Hot model swap in :class:`TahoeServer` and layout ownership under a
replica pool: staging happens off the hot path, the swap lands between
micro-batches, nothing is dropped, a pool converts once and shares one
layout, and a swapped-out version's layout is freed."""

import gc
import weakref

import numpy as np
import pytest

from repro.core.engine import TahoeEngine
from repro.modelstore import load_packed, pack_forest
from repro.serving.server import SchedulerConfig, TahoeServer
from repro.serving.workload import poisson_workload


def _server(forest, spec, **kwargs):
    kwargs.setdefault(
        "scheduler", SchedulerConfig(n_engines=2, max_wait=1e-3, max_batch=64)
    )
    return TahoeServer(forest, spec, **kwargs)


class TestHotSwapUnderTraffic:
    def test_swap_drops_nothing_and_serves_both_versions(
        self, small_forest, small_gbdt, p100, test_X
    ):
        srv = _server(small_forest, p100)
        requests = poisson_workload(test_X, qps=4000, duration=0.05, seed=5)
        srv.stage(forest=small_gbdt)
        srv.schedule_swap(at_time=0.025)
        result = srv.run(requests)

        assert len(result.responses) == len(requests)
        assert all(r.ok for r in result.responses)  # zero dropped
        model = result.summary["model"]
        assert model["swaps"] == 1
        assert model["active"] == "default@v2"
        served = model["served_by_version"]
        assert set(served) == {"default@v1", "default@v2"}
        assert all(count > 0 for count in served.values())
        assert sum(served.values()) == len(requests)

    def test_versions_are_monotone_across_the_swap(
        self, small_forest, small_gbdt, p100, test_X
    ):
        srv = _server(small_forest, p100)
        requests = poisson_workload(test_X, qps=4000, duration=0.05, seed=5)
        srv.stage(forest=small_gbdt)
        srv.schedule_swap(at_time=0.025)
        result = srv.run(requests)
        # Batches form in arrival order and the swap lands between
        # batches, so in request order v1 responses strictly precede v2.
        versions = [r.model_version for r in result.responses]
        first_v2 = versions.index("default@v2")
        assert all(v == "default@v1" for v in versions[:first_v2])
        assert all(v == "default@v2" for v in versions[first_v2:])

    def test_swap_event_recorded_everywhere(self, small_forest, small_gbdt, p100, test_X):
        srv = _server(small_forest, p100)
        srv.stage(forest=small_gbdt)
        srv.schedule_swap(at_time=0.01)
        result = srv.run(poisson_workload(test_X, qps=3000, duration=0.03, seed=2))
        events = result.summary["model"]["swap_events"]
        assert len(events) == 1
        assert set(events[0]) == {
            "model", "from_version", "to_version", "to_label", "source", "time",
            "from_label",
        }
        assert events[0]["model"] == "default"
        assert (events[0]["from_version"], events[0]["to_version"]) == (1, 2)
        assert events[0]["from_label"] == "default@v1"
        assert events[0]["to_label"] == "default@v2"
        assert events[0]["source"] == "object"
        assert events[0]["time"] >= 0.01
        assert srv.swap_events == events
        assert (
            srv.recorder.metrics.counter("serving.model_swaps").value == 1
        )

    def test_immediate_swap_flips_the_pool(self, small_forest, small_gbdt, p100):
        srv = _server(small_forest, p100)
        old_engines = srv.engines
        mv = srv.stage(forest=small_gbdt)
        assert srv.active_version.version == 1  # staging alone changes nothing
        event = srv.swap(mv.version)
        assert srv.active_version.version == 2
        assert srv.engines is not old_engines
        assert event["from_label"] == "default@v1"
        assert srv.target_batch == srv.config.max_batch  # a swap keeps the flush point

    def test_stage_numbers_versions_from_one_source(
        self, small_forest, small_gbdt, p100
    ):
        srv = _server(small_forest, p100)
        assert srv.active_version.label == "default@v1"
        assert srv.active_version.source == "object"
        staged = [srv.stage(forest=f) for f in (small_gbdt, small_forest)]
        assert [mv.label for mv in staged] == ["default@v2", "default@v3"]
        with pytest.raises(ValueError, match="exactly one"):
            srv.stage()
        with pytest.raises(ValueError, match="exactly one"):
            srv.stage(forest=small_gbdt, packed=object())
        assert srv.summary()["model"]["staged"] == [2, 3]

    def test_swap_requires_a_staged_version(self, small_forest, p100):
        srv = _server(small_forest, p100)
        with pytest.raises(ValueError, match="no staged version"):
            srv.schedule_swap()
        with pytest.raises(ValueError, match="no staged version"):
            srv.swap()
        with pytest.raises(ValueError, match="not staged"):
            srv.swap(7)


class TestStagingFromArtifact:
    def test_staged_pool_adopts_packed_layout_without_conversion(
        self, small_forest, small_gbdt, p100, tmp_path, test_X
    ):
        packed = load_packed(pack_forest(small_gbdt, p100, tmp_path / "v2.tahoe").path)
        srv = _server(small_forest, p100)
        mv = srv.stage(packed=packed)
        assert mv.source == "artifact"
        assert mv.layout is packed.layout
        assert srv.summary()["model"]["staged"] == [mv.version]
        event = srv.swap(mv.version)
        assert event["source"] == "artifact"
        # The swap only moves the staged pool in: it was built conversion-free.
        staged = srv.engines
        assert all(e.conversion_stats.source == "artifact" for e in staged)
        assert all(e.layout is packed.layout for e in staged)
        cold = TahoeEngine(small_gbdt, p100)
        np.testing.assert_array_equal(
            srv.engines[0].predict(test_X).predictions,
            cold.predict(test_X).predictions,
        )

    def test_server_boots_directly_from_artifact(
        self, small_forest, p100, tmp_path, test_X
    ):
        packed = load_packed(
            pack_forest(small_forest, p100, tmp_path / "boot.tahoe").path
        )
        srv = _server(None, p100, packed=packed)
        assert srv.active_version.source == "artifact"
        assert all(e.conversion_stats.source == "artifact" for e in srv.engines)
        result = srv.run(poisson_workload(test_X, qps=2000, duration=0.01, seed=1))
        assert all(r.ok for r in result.responses)


class TestLayoutOwnership:
    """The active and staged pools are the only owners of live layouts."""

    def test_forest_pool_converts_once_and_shares_one_layout(
        self, small_forest, p100, test_X
    ):
        srv = _server(small_forest, p100)
        first, second = srv.engines
        assert srv.metrics().counter("conversions_total").value == 1
        assert second.layout is first.layout
        assert first.conversion_stats.source == "pipeline"
        assert second.conversion_stats.source == "artifact"
        cold = TahoeEngine(small_forest, p100).predict(test_X).predictions
        for engine in srv.engines:
            np.testing.assert_array_equal(engine.predict(test_X).predictions, cold)

    def test_packed_pool_replicas_all_adopt(self, small_forest, p100, tmp_path):
        packed = load_packed(pack_forest(small_forest, p100, tmp_path / "p.tahoe").path)
        srv = _server(None, p100, packed=packed)
        assert [e.conversion_stats.source for e in srv.engines] == ["artifact"] * 2
        assert all(e.layout is packed.layout for e in srv.engines)
        assert srv.metrics().get("conversions_total") is None  # nothing converted

    def test_swapped_out_layout_is_freed(self, small_forest, small_gbdt, p100):
        srv = _server(small_forest, p100)
        old = weakref.ref(srv.engines[0].layout)
        srv.stage(forest=small_gbdt)
        assert old() is not None  # staging keeps the served version
        srv.swap()
        gc.collect()
        assert old() is None

    def test_layout_swapped_out_under_traffic_is_freed(
        self, small_forest, small_gbdt, p100, test_X
    ):
        srv = _server(small_forest, p100)
        old = weakref.ref(srv.engines[0].layout)
        srv.stage(forest=small_gbdt)
        srv.schedule_swap(at_time=0.01)
        result = srv.run(poisson_workload(test_X, qps=3000, duration=0.03, seed=2))
        assert result.summary["model"]["served_by_version"]["default@v1"] > 0
        gc.collect()
        assert old() is None
