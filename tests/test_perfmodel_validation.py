"""Tests for the selection-validation utility."""

import pytest

from repro.core import TahoeConfig, convert_forest
from repro.perfmodel.validation import validate_selection


@pytest.fixture(scope="module")
def layout(request):
    return convert_forest(request.getfixturevalue("small_forest"), TahoeConfig())[0]


class TestValidateSelection:
    def test_report_structure(self, layout, test_X, p100):
        report = validate_selection(layout, test_X, p100, [40, 120], label="letter")
        assert report.n_cases == 2
        assert 0 <= report.n_exact <= 2
        for case in report.cases:
            assert case.penalty >= 1.0
            assert case.predicted in case.measured
            assert case.best in case.measured
            assert case.label.startswith("letter@")

    def test_exactness_implies_unit_penalty(self, layout, test_X, p100):
        report = validate_selection(layout, test_X, p100, [60])
        for case in report.cases:
            if case.exact:
                assert case.penalty == pytest.approx(1.0)

    def test_near_optimal_counts(self, layout, test_X, p100):
        report = validate_selection(layout, test_X, p100, [60, 120])
        assert report.near_optimal(tolerance=1e9) == report.n_cases
        assert report.near_optimal(tolerance=1.0 + 1e-9) >= report.n_exact

    def test_selector_is_reasonable_here(self, layout, test_X, p100):
        """On this small forest the models should pick something within
        2x of optimal at every batch size."""
        report = validate_selection(layout, test_X, p100, [40, 120])
        assert report.worst_penalty <= 2.0

    def test_mispredictions_listed(self, layout, test_X, p100):
        report = validate_selection(layout, test_X, p100, [40, 120])
        assert len(report.mispredictions()) == report.n_cases - report.n_exact
