"""API-contract tests: every engine behind the one unified surface.

Drives ``TahoeEngine``, ``FILEngine`` and ``NativeEngine`` through the
shared :class:`repro.core.Engine` protocol — construction keywords,
uniform ``predict``, result shape, ``update_forest`` return type,
empty-batch error — and through the lifecycle they share
(:class:`repro.core.LayoutEngine`): where a layout comes from, and what
its ``ConversionStats`` say.
"""

import copy

import numpy as np
import pytest

from repro import (
    ConversionStats,
    Engine,
    EngineResult,
    FILEngine,
    TahoeConfig,
    TahoeEngine,
)
from repro.core import NativeEngine, engine_class
from repro.trees.forest import Forest

ENGINES = {"tahoe": TahoeEngine, "fil": FILEngine, "native": NativeEngine}


@pytest.fixture(scope="module")
def multiclass_forest(small_forest, small_gbdt):
    """The 40 trees of small_forest and small_gbdt as a 3-class sum
    ensemble."""
    trees = copy.deepcopy(small_forest.trees + small_gbdt.trees)
    for i, tree in enumerate(trees):
        tree.group = i % 3
    return Forest(
        trees=trees,
        n_attributes=small_forest.n_attributes,
        aggregation="sum",
        n_classes=3,
    )


@pytest.fixture(scope="module", params=sorted(ENGINES))
def any_engine(request):
    forest = request.getfixturevalue("small_forest")
    p100 = request.getfixturevalue("p100")
    return request.param, ENGINES[request.param](forest, p100)


class TestEngineProtocol:
    def test_conforms_to_protocol(self, any_engine):
        _, engine = any_engine
        assert isinstance(engine, Engine)

    def test_accepts_unified_keywords(self, small_forest, p100, any_engine):
        name, _ = any_engine
        engine = ENGINES[name](
            small_forest, p100, config=TahoeConfig(), hardware=None, recorder=None
        )
        assert isinstance(engine, Engine)

    def test_empty_batch_raises(self, any_engine, small_forest):
        _, engine = any_engine
        empty = np.zeros((0, small_forest.n_attributes), np.float32)
        with pytest.raises(ValueError, match="empty inference batch"):
            engine.predict(empty)

    def test_predict_result_shape(self, any_engine, small_forest, test_X):
        _, engine = any_engine
        result = engine.predict(test_X, batch_size=40)
        assert isinstance(result, EngineResult)
        np.testing.assert_allclose(
            result.predictions, small_forest.predict(test_X), rtol=1e-5
        )
        assert result.total_time > 0
        assert result.throughput > 0
        assert len(result.batches) == len(result.strategies_used) > 0
        assert result.report is None

    def test_report_flag(self, any_engine, test_X):
        name, engine = any_engine
        result = engine.predict(test_X, report=True)
        assert result.report is not None
        assert result.report.n_samples == test_X.shape[0]
        assert result.report.total_time == pytest.approx(result.total_time)
        assert result.report.engine == name

    def test_update_forest_returns_stats(self, any_engine, small_gbdt, p100, test_X):
        name, _ = any_engine
        # Fresh engine: update_forest mutates layout state.
        forest = small_gbdt
        engine = ENGINES[name](forest, p100, config=TahoeConfig())
        stats = engine.update_forest(forest)
        assert isinstance(stats, ConversionStats)
        assert stats.total >= 0
        np.testing.assert_allclose(
            engine.predict(test_X).predictions, forest.predict(test_X), rtol=1e-4
        )

    def test_multiclass_matches_tahoe(self, any_engine, multiclass_forest, p100, test_X):
        name, _ = any_engine
        reference = TahoeEngine(multiclass_forest, p100).predict(test_X).predictions
        assert reference.shape == (test_X.shape[0], 3)
        engine = ENGINES[name](multiclass_forest, p100)
        predictions = engine.predict(test_X, batch_size=32).predictions
        assert np.array_equal(predictions, reference)


class TestLayoutLifecycle:
    """Pipeline and artifact: the two places a layout comes from."""

    STAGES = (
        "t_fetch_probabilities",
        "t_node_rearrangement",
        "t_similarity_detection",
        "t_format_conversion",
        "t_copy_to_gpu",
    )

    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_conversion_sources(self, name, small_forest, p100):
        cls = ENGINES[name]
        cold = cls(small_forest, p100)
        label = cold.layout.record.encoding_label
        stats = cold.conversion_stats
        assert (stats.source, stats.node_encoding) == ("pipeline", label)
        assert len(cold.recorder.conversions) == 1

        adopted = cls.from_layout(cold.layout, p100)
        stats = adopted.conversion_stats
        assert (stats.source, stats.node_encoding) == ("artifact", label)
        assert adopted.layout is cold.layout
        assert all(getattr(stats, stage) == 0.0 for stage in self.STAGES)
        assert stats.total == 0
        assert adopted.recorder.conversions == []  # adoption converts nothing

        # An update always runs the pipeline, even for an unchanged forest.
        stats = cold.update_forest(small_forest)
        assert (stats.source, stats.node_encoding) == ("pipeline", label)
        assert stats.t_format_conversion > 0
        assert cold.layout is not adopted.layout
        assert len(cold.recorder.conversions) == 2

    def test_engine_kinds(self):
        assert engine_class("tahoe") is TahoeEngine
        assert engine_class("fil", "tahoe") is FILEngine
        assert engine_class("fil", "native") is NativeEngine
        assert FILEngine.conversion_key(None) != TahoeEngine.conversion_key(None)
        assert NativeEngine.conversion_key(None) == TahoeEngine.conversion_key(None)
        with pytest.raises(KeyError):
            engine_class("native")


class TestBatchWidth:
    """A batch of the wrong width fails at the engine boundary.

    Strategies are stubbed to fail if reached: the width check must run
    before any of them sees the batch.
    """

    @pytest.fixture()
    def strategies_unreachable(self, monkeypatch):
        import repro.strategies as strategies

        def reached(*args, **kwargs):
            raise AssertionError("a strategy ran on a malformed batch")

        for cls in (
            *strategies.ALL_STRATEGIES,
            strategies.ExplainDirectStrategy,
            strategies.ExplainSharedPathsStrategy,
        ):
            monkeypatch.setattr(cls, "run", reached)

    @pytest.mark.parametrize("width", [13, 17])
    def test_predict_rejects_wrong_width(
        self, any_engine, small_forest, strategies_unreachable, width
    ):
        assert small_forest.n_attributes == 16
        _, engine = any_engine
        with pytest.raises(ValueError, match="16 columns"):
            engine.predict(np.zeros((4, width), np.float32))

    @pytest.mark.parametrize("width", [13, 17])
    @pytest.mark.parametrize("name", ["tahoe", "fil"])
    def test_explain_rejects_wrong_width(
        self, small_forest, p100, strategies_unreachable, name, width
    ):
        engine = ENGINES[name](small_forest, p100)
        with pytest.raises(ValueError, match="16 columns"):
            engine.explain(np.zeros((4, width), np.float32))


class TestKeywordOnlySurface:
    """The deprecation grace period is over: positionals are TypeErrors."""

    def test_tahoe_rejects_positional_config(self, small_forest, p100):
        with pytest.raises(TypeError):
            TahoeEngine(small_forest, p100, TahoeConfig())

    def test_predict_rejects_positional_batch_size(self, small_forest, p100, test_X):
        engine = TahoeEngine(small_forest, p100)
        with pytest.raises(TypeError):
            engine.predict(test_X, 32)

