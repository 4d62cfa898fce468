"""Tests for the engine's COA_rate probe and model integration."""

import dataclasses

import numpy as np
import pytest

from repro.core import TahoeEngine
from repro.perfmodel import measure_hardware_parameters, predict_direct
from repro.perfmodel.notation import workload_params
from repro.strategies import DirectStrategy


class TestCoaProbe:
    def test_probe_runs_on_first_batch(self, small_forest, p100, test_X):
        engine = TahoeEngine(small_forest, p100)
        assert "coa_rate" not in engine.layout.metadata
        engine.predict(test_X)
        assert "coa_rate" in engine.layout.metadata

    def test_probed_rate_in_unit_interval(self, small_forest, p100, test_X):
        engine = TahoeEngine(small_forest, p100)
        engine.predict(test_X)
        rate = engine.layout.metadata["coa_rate"]
        assert 0.01 <= rate <= 1.0

    def test_workload_params_pick_up_probe(self, small_forest, p100, test_X):
        engine = TahoeEngine(small_forest, p100)
        _, fp_before = workload_params(engine.layout, 100)
        assert fp_before.coa_rate == 0.5  # the paper's default assumption
        engine.predict(test_X)
        _, fp_after = workload_params(engine.layout, 100)
        assert fp_after.coa_rate == engine.layout.metadata["coa_rate"]

    def test_reconversion_clears_probe(self, small_forest, small_gbdt, p100, test_X):
        engine = TahoeEngine(small_forest, p100)
        engine.predict(test_X)
        engine.update_forest(small_gbdt)
        assert "coa_rate" not in engine.layout.metadata
        assert "coa_rate_direct" not in engine.layout.metadata

    def test_predictions_unaffected_by_probe(self, small_forest, p100, test_X):
        engine = TahoeEngine(small_forest, p100)
        result = engine.predict(test_X)
        np.testing.assert_allclose(
            result.predictions, small_forest.predict(test_X), rtol=1e-5
        )


class TestDirectCoaProbe:
    """The probe's second rate: direct's sample-parallel walk."""

    def test_probe_measures_both_patterns(self, small_forest, p100, test_X):
        engine = TahoeEngine(small_forest, p100)
        _, fp_before = workload_params(engine.layout, 100)
        assert fp_before.coa_rate_direct == 0.5  # the paper's default assumption
        engine.predict(test_X)
        rate = engine.layout.metadata["coa_rate_direct"]
        assert 0.01 <= rate <= 1.0
        _, fp_after = workload_params(engine.layout, 100)
        assert fp_after.coa_rate_direct == rate

    @pytest.mark.parametrize("forest_name", ["small_forest", "small_gbdt"])
    def test_sample_parallel_coalesces_better(self, request, forest_name, p100, test_X):
        # A warp's lanes walk one tree together and share its upper
        # levels' cache lines; tree-parallel lanes each walk their own.
        engine = TahoeEngine(request.getfixturevalue(forest_name), p100)
        engine.predict(test_X)
        meta = engine.layout.metadata
        assert meta["coa_rate_direct"] > meta["coa_rate"]

    @pytest.mark.parametrize("forest_name", ["small_forest", "small_gbdt"])
    def test_direct_forest_bytes_match_simulation(
        self, request, forest_name, p100, test_X
    ):
        """The model's forest traffic for direct (N_batch x D_tree x
        N_trees x S_node / COA_rate) is what the simulator fetches."""
        engine = TahoeEngine(request.getfixturevalue(forest_name), p100)
        engine.predict(test_X)
        sample, fp = workload_params(engine.layout, test_X.shape[0])
        predicted = sample.n_batch * fp.d_tree * fp.n_trees * fp.s_node / fp.coa_rate_direct
        result = DirectStrategy().run(engine.layout, test_X, p100)
        fetched = result.counters.forest_global.fetched_bytes
        assert predicted == pytest.approx(fetched, rel=0.15)

    def test_probe_fills_a_missing_rate_and_keeps_a_stored_one(
        self, small_forest, p100, test_X
    ):
        # A layout packed before the direct rate existed carries only
        # the tree-parallel one.
        engine = TahoeEngine(small_forest, p100)
        engine.layout.metadata["coa_rate"] = 0.123
        engine.predict(test_X)
        assert engine.layout.metadata["coa_rate"] == 0.123
        assert 0.01 <= engine.layout.metadata["coa_rate_direct"] <= 1.0

    def test_direct_model_reads_the_direct_rate(self, small_forest, p100, test_X):
        engine = TahoeEngine(small_forest, p100)
        engine.predict(test_X)
        hw = measure_hardware_parameters(p100)
        # A batch large enough to be bandwidth-bound, not latency-bound.
        sample, fp = workload_params(engine.layout, 100_000)
        base = predict_direct(sample, fp, hw).t_gmem
        assert predict_direct(sample, dataclasses.replace(fp, coa_rate=0.01), hw).t_gmem == base
        slower = dataclasses.replace(fp, coa_rate_direct=fp.coa_rate_direct / 2)
        assert predict_direct(sample, slower, hw).t_gmem > base
