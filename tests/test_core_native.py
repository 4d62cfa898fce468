"""NativeEngine: bit-identity with the simulator and engine-contract
behaviour of the wall-clock backend."""

import numpy as np
import pytest

from repro.core import (
    TIME_DOMAIN_SIMULATED,
    TIME_DOMAIN_WALL,
    FILEngine,
    TahoeEngine,
)
from repro.core.native import (
    HAVE_NUMBA,
    NativeEngine,
    _traverse_scalar,
    calibrate_native_model,
    flatten_native,
)
from repro.formats import build_reorg_layout
from repro.modelstore import load_packed, pack_layout
from repro.perfmodel import native as native_model


class TestBitIdentity:
    def test_matches_tahoe_on_random_forest(self, small_forest, p100, test_X):
        native = NativeEngine(small_forest, p100)
        tahoe = TahoeEngine(small_forest, p100)
        assert np.array_equal(
            native.predict(test_X).predictions,
            tahoe.predict(test_X).predictions,
        )

    def test_matches_tahoe_on_gbdt(self, small_gbdt, p100, test_X):
        native = NativeEngine(small_gbdt, p100)
        tahoe = TahoeEngine(small_gbdt, p100)
        assert np.array_equal(
            native.predict(test_X).predictions,
            tahoe.predict(test_X).predictions,
        )

    def test_matches_fil_on_reorg_layout(self, small_forest, p100, test_X):
        layout = build_reorg_layout(small_forest)
        native = NativeEngine.from_layout(layout, p100)
        fil = FILEngine(small_forest, p100)
        assert np.array_equal(
            native.predict(test_X).predictions,
            fil.predict(test_X).predictions,
        )

    def test_nan_takes_default_path_identically(self, small_forest, p100, test_X):
        X = test_X.copy()
        X[::3, 0] = np.nan
        X[1::5, 2] = np.nan
        native = NativeEngine(small_forest, p100)
        tahoe = TahoeEngine(small_forest, p100)
        assert np.array_equal(
            native.predict(X).predictions, tahoe.predict(X).predictions
        )

    def test_scalar_kernel_matches_numpy(self, small_forest, p100, test_X):
        engine = NativeEngine(small_forest, p100)
        flat = engine.flat
        sums = np.zeros((test_X.shape[0], flat.n_groups), dtype=np.float64)
        _traverse_scalar(test_X, *flat.scalar_args(), sums)
        assert np.array_equal(engine._leaf_sums(test_X), sums[:, 0])

    def test_batch_size_does_not_change_predictions(
        self, small_forest, p100, test_X
    ):
        engine = NativeEngine(small_forest, p100)
        whole = engine.predict(test_X).predictions
        batched = engine.predict(test_X, batch_size=17).predictions
        assert np.array_equal(whole, batched)


class TestEngineContract:
    def test_empty_batch_raises(self, small_forest, p100):
        engine = NativeEngine(small_forest, p100)
        with pytest.raises(ValueError, match="empty inference batch"):
            engine.predict(np.empty((0, small_forest.n_attributes)))

    def test_result_is_wall_domain(self, small_forest, p100, test_X):
        engine = NativeEngine(small_forest, p100)
        result = engine.predict(test_X)
        assert NativeEngine.time_domain == TIME_DOMAIN_WALL
        assert result.time_domain == TIME_DOMAIN_WALL
        assert result.time_domain != TIME_DOMAIN_SIMULATED

    def test_throughput_is_wall_samples_per_second(
        self, small_forest, p100, test_X
    ):
        result = NativeEngine(small_forest, p100).predict(test_X)
        assert result.total_time > 0
        assert result.throughput == pytest.approx(
            test_X.shape[0] / result.total_time
        )

    def test_update_forest_swaps_predictions(
        self, small_forest, small_gbdt, p100, test_X
    ):
        engine = NativeEngine(small_forest, p100)
        before = engine.predict(test_X).predictions
        stats = engine.update_forest(small_gbdt)
        assert stats.total > 0 or stats.source == "cache"
        after = engine.predict(test_X).predictions
        assert not np.array_equal(before, after)
        assert np.array_equal(
            after, TahoeEngine(small_gbdt, p100).predict(test_X).predictions
        )

    def test_kernel_follows_numba_availability(self, small_forest, p100):
        engine = NativeEngine(small_forest, p100)
        assert engine.kernel == ("numba" if HAVE_NUMBA else "numpy")
        with pytest.raises(AttributeError):
            engine.kernel = "numpy"

    def test_report_carries_native_identity(self, small_forest, p100, test_X):
        engine = NativeEngine(small_forest, p100)
        result = engine.predict(test_X, report=True)
        assert result.report is not None
        assert result.report.engine == "native"
        assert result.report.meta["time_domain"] == TIME_DOMAIN_WALL
        assert result.report.meta["kernel"] == engine.kernel
        assert result.report.decisions


class TestBoundaryChecks:
    """The kernel gathers unchecked; wrong input must fail before it."""

    @pytest.fixture()
    def guarded(self, small_forest, p100, monkeypatch):
        """A letter engine whose kernels fail the test if they ever run."""

        def kernel_ran(*args, **kwargs):
            raise AssertionError("a kernel ran on a rejected batch")

        engine = NativeEngine(small_forest, p100)
        monkeypatch.setattr(engine, "_leaf_sums", kernel_ran)
        monkeypatch.setattr("repro.explain.kernel.compute_shap", kernel_ran)
        return engine

    @pytest.mark.parametrize("width", [13, 17])
    @pytest.mark.parametrize("method", ["predict", "explain"])
    def test_wrong_width_rejected_before_kernel(
        self, guarded, small_forest, test_X, width, method
    ):
        assert small_forest.n_attributes == 16
        X = np.zeros((test_X.shape[0], width), dtype=np.float32)
        X[:, : min(width, 16)] = test_X[:, : min(width, 16)]
        with pytest.raises(ValueError, match=f"16 columns.*got {width} columns"):
            getattr(guarded, method)(X)

    @pytest.mark.parametrize("method", ["predict", "explain"])
    def test_non_2d_batch_rejected(self, guarded, test_X, method):
        with pytest.raises(ValueError, match="2-D"):
            getattr(guarded, method)(test_X[0])

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("left", lambda tree, forest: tree.n_nodes + 5),
            ("right", lambda tree, forest: -1),
            ("feature", lambda tree, forest: forest.n_attributes),
            ("feature", lambda tree, forest: -2),
        ],
    )
    def test_corrupt_layout_rejected_by_flatten(self, small_forest, field, bad):
        layout = build_reorg_layout(small_forest.copy())
        # Tree 1, so a child of -1 would land inside tree 0 globally.
        tree = layout.forest.trees[1]
        node = int(np.flatnonzero(tree.feature >= 0)[0])
        getattr(tree, field)[node] = bad(tree, layout.forest)
        with pytest.raises(ValueError, match=f"tree 1 node {node}"):
            flatten_native(layout)
        assert "_native" not in layout.metadata


class TestLayoutInterop:
    def test_packed_artifact_round_trip(self, small_forest, p100, test_X, tmp_path):
        direct = NativeEngine(small_forest, p100)
        path = tmp_path / "forest.tahoe"
        pack_layout(
            direct.layout,
            path,
            engine="tahoe",
            spec_name=p100.name,
            conversion_key=direct.config.conversion_key(),
            source_fingerprint=small_forest.fingerprint(),
        )
        packed = load_packed(path).make_engine(p100, backend="native")
        assert isinstance(packed, NativeEngine)
        assert packed.conversion_stats.source == "artifact"
        assert np.array_equal(
            packed.predict(test_X).predictions,
            direct.predict(test_X).predictions,
        )

    def test_flatten_is_cached_on_layout(self, small_forest, p100):
        engine = NativeEngine(small_forest, p100)
        flat = flatten_native(engine.layout)
        assert flat is engine.flat  # second call returns the cached object
        assert flat.n_trees == small_forest.n_trees
        # Leaves self-loop: both children point at the leaf itself.
        leaves = np.flatnonzero(flat.feature < 0)
        assert np.array_equal(flat.child_pair[2 * leaves], leaves)
        assert np.array_equal(flat.child_pair[2 * leaves + 1], leaves)


class FakeClock:
    """A ``perf_counter`` that each probe call advances by a set cost."""

    def __init__(self, cost):
        self.now = 0.0
        self.cost = cost
        self.calls = self.rows = 0

    def perf_counter(self):
        return self.now

    def run_batch(self, X):
        self.calls += 1
        self.rows += X.shape[0]
        self.now += self.cost(X.shape[0], self.calls)


def fit_on(monkeypatch, cost):
    clock = FakeClock(cost)
    monkeypatch.setattr(native_model, "time", clock)
    model = native_model.calibrate_native_model(
        clock.run_batch, n_attributes=4, kernel="numpy"
    )
    return model, clock


class TestCostModelFit:
    def test_recovers_linear_cost(self, monkeypatch):
        model, clock = fit_on(monkeypatch, lambda rows, call: 200e-6 + 15e-6 * rows)
        assert model.t_fixed == pytest.approx(200e-6)
        assert model.t_per_row == pytest.approx(15e-6)
        assert model.predict_time(256) == pytest.approx(200e-6 + 256 * 15e-6)
        # No dearer than the per-size curve it replaced: 4,094 rows in 22 calls.
        assert clock.rows <= 4094 and clock.calls <= 22

    def test_median_ignores_one_slow_and_one_lucky_call_per_size(self, monkeypatch):
        def cost(rows, call):
            true = 200e-6 + 15e-6 * rows
            # The first call at each size is slow, the second lucky.
            return {1: true + 0.05, 2: true / 2}.get(call % 3, true)

        model, _ = fit_on(monkeypatch, cost)
        assert model.t_fixed == pytest.approx(200e-6)
        assert model.t_per_row == pytest.approx(15e-6)

    def test_coefficients_are_floored_at_zero(self, monkeypatch):
        falling, _ = fit_on(monkeypatch, lambda rows, call: 1e-3 - 1e-6 * rows)
        assert falling.t_per_row == 0.0 and falling.t_fixed > 0.0
        convex, _ = fit_on(monkeypatch, lambda rows, call: 1e-6 * rows * rows)
        assert convex.t_fixed == 0.0 and convex.t_per_row > 0.0


class TestEngineCostModel:
    def test_fit_leaves_telemetry_untouched(self, small_forest, p100, test_X):
        engine = NativeEngine(small_forest, p100)
        engine.predict(test_X, batch_size=40, report=True)
        decisions = list(engine.recorder.decisions)
        batches = list(engine.recorder.batches)
        engine._cost_model = None  # refit with telemetry already recorded
        model = engine.cost_model()
        assert (len(decisions), len(batches)) == (1, 3)
        assert list(engine.recorder.decisions) == decisions
        assert list(engine.recorder.batches) == batches
        assert model.kernel == engine.kernel
        assert engine.cost_model() is model  # fitted once
        assert engine.predicted_batch_time(64) == model.predict_time(64)

    def test_reported_predict_on_fresh_engine_records_one_decision(
        self, small_forest, p100, test_X, monkeypatch
    ):
        # The fit runs predict probes, so it must run before this
        # predict's batch loop, not inside it.
        events = []
        run_batch_of_class = NativeEngine._run_batch

        def fit(*args, **kwargs):
            events.append("fit")
            return calibrate_native_model(*args, **kwargs)

        def run_batch(engine, *args):
            events.append("batch")
            return run_batch_of_class(engine, *args)

        monkeypatch.setattr("repro.core.native.calibrate_native_model", fit)
        monkeypatch.setattr(NativeEngine, "_run_batch", run_batch)
        engine = NativeEngine(small_forest, p100)
        engine.predict(test_X, report=True)
        assert events[0] == "fit" and events.count("fit") == 1
        assert len(engine.recorder.decisions) == 1
        assert len(engine.recorder.batches) == 1

    def test_engine_build_does_not_fit(self, small_forest, p100, test_X):
        engine = NativeEngine(small_forest, p100)
        engine.predict(test_X)
        assert engine._cost_model is None


class TestHardwareRanking:
    def test_decisions_record_both_targets(self, small_forest, p100, test_X):
        engine = NativeEngine(small_forest, p100)
        engine.predict(test_X, batch_size=17, report=True)
        # One decision per reported call, not one per batch.
        assert len(engine.recorder.decisions) == 1
        decision = engine.recorder.decisions[0]
        names = {c.strategy for c in decision.candidates}
        assert decision.chosen == "native_cpu"
        assert decision.batch_size == 17
        assert any(name.startswith("gpusim_") for name in names)
        # Closed by the first batch's measured wall time.
        assert decision.simulated_time == engine.recorder.batches[0].simulated_time

    def test_unreported_predict_records_no_decision(
        self, small_forest, p100, test_X
    ):
        engine = NativeEngine(small_forest, p100)
        engine.predict(test_X, batch_size=17)
        assert len(engine.recorder.decisions) == 0
        assert len(engine.recorder.batches) > 1
