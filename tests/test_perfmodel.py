"""Tests for the performance models, microbenchmarks, and selector."""

import dataclasses
import math

import numpy as np
import pytest

from repro.core import TahoeConfig, convert_forest
from repro.perfmodel import (
    measure_hardware_parameters,
    predict_direct,
    predict_shared_data,
    predict_shared_forest,
    predict_splitting_shared_forest,
    rank_strategies,
    select_strategy,
    workload_params,
)
from repro.perfmodel.models import cached_part_work, expected_imbalance, splitting_geometry


@pytest.fixture(scope="module")
def hw(request):
    p100 = request.getfixturevalue("p100")
    return measure_hardware_parameters(p100)


@pytest.fixture(scope="module")
def layout(request):
    forest = request.getfixturevalue("small_forest")
    return convert_forest(forest, TahoeConfig())[0]


class TestMicrobench:
    def test_coalesced_faster_than_uncoalesced(self, hw):
        assert hw.bw_r_gmem_coa > hw.bw_r_gmem_ncoa

    def test_uncoalesced_ratio_matches_transaction_waste(self, hw):
        """Random 4-byte reads each fetch one 32-byte sector: 1/8 efficiency."""
        ratio = hw.bw_r_gmem_ncoa / hw.bw_r_gmem_coa
        assert ratio == pytest.approx(1 / 8, rel=0.2)

    def test_shared_faster_than_global(self, hw):
        assert hw.bw_r_smem > hw.bw_r_gmem_coa

    def test_utilization_curves_sane(self, hw):
        assert 0 < hw.bw_floor < 1
        assert hw.bw_knee_threads > 1000
        assert 0 < hw.smem_block_fraction <= 1
        assert hw.gmem_utilization(10**9) == 1.0
        assert hw.gmem_utilization(1) == hw.bw_floor

    def test_generations_ordered(self):
        from repro.gpusim.specs import GPU_SPECS

        k80 = measure_hardware_parameters(GPU_SPECS["K80"])
        v100 = measure_hardware_parameters(GPU_SPECS["V100"])
        assert k80.bw_r_gmem_coa < v100.bw_r_gmem_coa


class TestWorkloadParams:
    def test_values(self, layout):
        sample, fp = workload_params(layout, 500)
        assert sample.n_batch == 500
        assert sample.s_sample == layout.forest.n_attributes * 4
        assert fp.n_trees == layout.forest.n_trees
        assert fp.s_node == layout.node_size
        assert fp.s_forest == layout.total_bytes
        assert fp.d_tree == pytest.approx(layout.forest.tree_depths().mean() + 1)


class TestModels:
    def test_all_models_positive(self, layout, hw):
        sample, fp = workload_params(layout, 1000)
        for predict in (
            predict_direct,
            predict_shared_forest,
            predict_splitting_shared_forest,
        ):
            assert predict(sample, fp, hw).total > 0
        assert predict_shared_data(sample, fp, hw, layout).total > 0

    def test_shared_data_scales_with_batch(self, layout, hw):
        s1, fp = workload_params(layout, 100)
        s2, _ = workload_params(layout, 10000)
        t1 = predict_shared_data(s1, fp, hw, layout).total
        t2 = predict_shared_data(s2, fp, hw, layout).total
        assert t2 > t1

    def test_shared_forest_inapplicable_when_too_big(self, layout, hw):
        sample, fp = workload_params(layout, 100)
        small_hw = dataclasses.replace(hw, shared_capacity=16)
        p = predict_shared_forest(sample, fp, small_hw)
        assert not p.applicable
        assert p.total == math.inf

    def test_direct_has_no_reductions(self, layout, hw):
        sample, fp = workload_params(layout, 100)
        p = predict_direct(sample, fp, hw)
        assert p.t_block_reduce == 0 and p.t_global_reduce == 0

    def test_splitting_reports_parts(self, layout, hw):
        sample, fp = workload_params(layout, 100)
        small_hw = dataclasses.replace(hw, shared_capacity=4096)
        p = predict_splitting_shared_forest(sample, fp, small_hw)
        parts = int(p.note.split("=")[1])
        assert parts == math.ceil(fp.s_forest / 4096)

    @pytest.mark.parametrize(
        "compute,smem", [(1 / 16, 0.125), (1 / 56, 0.25), (1 / 56, 0.125)]
    )
    def test_splitting_wave_count_matches_strategy(
        self, layout, test_X, monkeypatch, compute, smem
    ):
        """The model counts the waves the strategy launches: residency
        follows the bytes the parts stage, not a full block of shared
        memory per part."""
        from repro.gpusim.specs import GPU_SPECS
        from repro.strategies import splitting_shared_forest as module

        spec = GPU_SPECS["P100"].scaled(compute=compute, shared_capacity=smem)
        seen = {}
        real = module.execution_time

        def spy(*args, **kwargs):
            seen.update(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, "execution_time", spy)
        module.SplittingSharedForestStrategy().run(
            layout, test_X, spec, sample_rows=np.arange(64)
        )
        strategy_waves = seen["chain_steps"] / seen["per_thread_steps"].max()
        _, fp = workload_params(layout, 64)
        geometry = splitting_geometry(fp, measure_hardware_parameters(spec), layout)
        assert geometry.parts > 1
        assert geometry.waves == strategy_waves

    def test_expected_imbalance_at_least_one(self, layout):
        assert expected_imbalance(layout, 32) >= 1.0

    def test_expected_imbalance_detects_skew(self, layout):
        # One thread gets everything -> stretch = n_threads.
        stretch = expected_imbalance(layout, layout.forest.n_trees * 2)
        assert stretch > 1.0

    def test_part_work_memoised(self, small_forest):
        """The per-part work splitting_geometry reads is built once per
        capacity, equals a fresh computation, and repeated rankings are
        identical."""
        from repro.formats.partition import cached_partition
        from repro.gpusim.specs import GPU_SPECS

        spec = GPU_SPECS["P100"].scaled(compute=1 / 16, shared_capacity=0.125)
        small_hw = measure_hardware_parameters(spec)
        capacity = small_hw.shared_capacity
        fresh = convert_forest(small_forest, TahoeConfig())[0]
        first = rank_strategies(fresh, 64, spec, small_hw)
        memo = fresh.metadata["_part_work"][capacity]
        work = fresh.block.tree_depths() + 1.0
        expected = [work[p].sum() for p in cached_partition(fresh, capacity)]
        assert len(expected) > 1
        np.testing.assert_array_equal(memo, expected)
        assert cached_part_work(fresh, capacity) is memo
        second = rank_strategies(fresh, 64, spec, small_hw)
        assert [(c.name, c.predicted_time) for c in second] == [
            (c.name, c.predicted_time) for c in first
        ]


class TestSelector:
    def test_rank_returns_all_four(self, layout, p100, hw):
        ranked = rank_strategies(layout, 1000, p100, hw)
        assert len(ranked) == 4
        names = {c.name for c in ranked}
        assert names == {
            "shared_data", "direct", "shared_forest", "splitting_shared_forest",
        }

    def test_rank_sorted(self, layout, p100, hw):
        ranked = rank_strategies(layout, 1000, p100, hw)
        times = [c.predicted_time for c in ranked]
        assert times == sorted(times)

    def test_select_returns_applicable(self, layout, p100, hw):
        choice = select_strategy(layout, 1000, p100, hw)
        assert choice.predicted_time < math.inf
        strategy = choice.instantiate()
        assert strategy.name == choice.name

    def test_selection_prefers_model_winner_on_simulator(
        self, layout, p100, hw, test_X, small_forest
    ):
        """The selected strategy must be near-optimal when actually run:
        within 2x of the best measured strategy (the paper reports 87/90
        exact orders; we only demand near-optimality here)."""
        from repro.strategies import ALL_STRATEGIES, StrategyNotApplicable

        measured = {}
        for cls in ALL_STRATEGIES:
            try:
                measured[cls.name] = cls().run(layout, test_X, p100).time
            except StrategyNotApplicable:
                pass
        choice = select_strategy(layout, test_X.shape[0], p100, hw)
        best = min(measured.values())
        assert measured[choice.name] <= 2.0 * best
