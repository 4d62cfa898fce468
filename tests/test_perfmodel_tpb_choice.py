"""Tests for the model-guided shared-data block-size choice."""

import pytest

from repro.core import TahoeConfig, convert_forest
from repro.perfmodel import measure_hardware_parameters, workload_params
from repro.perfmodel.models import choose_shared_data_tpb, predict_shared_data


@pytest.fixture(scope="module")
def setup(request):
    forest = request.getfixturevalue("small_forest")
    p100 = request.getfixturevalue("p100")
    layout = convert_forest(forest, TahoeConfig())[0]
    hw = measure_hardware_parameters(p100)
    return layout, hw


class TestChooseTpb:
    def test_warp_multiple(self, setup):
        layout, hw = setup
        sample, fp = workload_params(layout, 1000)
        tpb = choose_shared_data_tpb(sample, fp, hw, layout)
        assert tpb % 32 == 0
        assert 32 <= tpb <= 256

    def test_chosen_is_argmin_of_model(self, setup):
        layout, hw = setup
        sample, fp = workload_params(layout, 1000)
        best = choose_shared_data_tpb(sample, fp, hw, layout)
        t_best = predict_shared_data(sample, fp, hw, layout, tpb=best).total
        for tpb in (32, 64, 128, 256):
            t = predict_shared_data(sample, fp, hw, layout, tpb=tpb).total
            assert t_best <= t + 1e-12

    def test_varies_with_batch_size(self, setup):
        """The chain/balance trade-off depends on the batch: the choice
        must be batch-aware (it need not differ, but must be valid at
        both extremes)."""
        layout, hw = setup
        for batch in (50, 100000):
            sample, fp = workload_params(layout, batch)
            tpb = choose_shared_data_tpb(sample, fp, hw, layout)
            assert 32 <= tpb <= 256

    def test_explicit_tpb_respected_by_model(self, setup):
        layout, hw = setup
        sample, fp = workload_params(layout, 1000)
        a = predict_shared_data(sample, fp, hw, layout, tpb=32)
        b = predict_shared_data(sample, fp, hw, layout, tpb=256)
        assert a.total != b.total  # geometry actually feeds the model
