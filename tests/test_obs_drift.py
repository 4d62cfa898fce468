"""Calibration drift: ranking-risk accounting over selector decisions."""

from types import SimpleNamespace

import pytest

from repro.obs import CalibrationDriftWarning, CalibrationTracker


def decision(
    predicted=1.0, simulated=1.0, chosen="shared_data", runner_up=None
):
    candidates = [
        SimpleNamespace(strategy=chosen, predicted_time=predicted, applicable=True)
    ]
    if runner_up is not None:
        candidates.append(
            SimpleNamespace(
                strategy="direct", predicted_time=runner_up, applicable=True
            )
        )
    return SimpleNamespace(
        chosen=chosen,
        predicted_time=predicted,
        simulated_time=simulated,
        candidates=candidates,
    )


class TestDecisionMargin:
    def test_margin_is_gap_to_runner_up(self):
        d = decision(predicted=1.0, runner_up=1.4)
        assert CalibrationTracker.decision_margin(d) == pytest.approx(0.4)

    def test_no_runner_up_means_unbounded_margin(self):
        assert CalibrationTracker.decision_margin(decision()) is None

    def test_margin_is_absolute_gap_when_chosen_ranked_second(self):
        # Rival predicted *faster* than the choice (strategy overrides,
        # hardware-target rankings where the executing backend runs
        # regardless of rank).  The flip threshold is still the distance
        # to the nearest rival, not zero.
        d = decision(predicted=1.0, runner_up=0.8)
        assert CalibrationTracker.decision_margin(d) == pytest.approx(0.2)


class TestTracker:
    def test_accurate_predictions_are_healthy(self):
        tracker = CalibrationTracker(warn=False)
        for _ in range(50):
            tracker.record(decision(predicted=1.0, simulated=1.02, runner_up=2.0))
        assert tracker.n_decisions == 50
        assert tracker.at_risk_fraction == 0.0
        assert not tracker.drifted

    def test_residual_beyond_margin_counts_at_risk(self):
        tracker = CalibrationTracker(warn=False)
        # |1.0 - 2.0| = 1.0 residual against a 0.1 margin: could flip.
        tracker.record(decision(predicted=1.0, simulated=2.0, runner_up=1.1))
        assert tracker.at_risk_fraction == 1.0

    def test_min_decisions_floor_gates_drift(self):
        tracker = CalibrationTracker(warn=False, min_decisions=20)
        for _ in range(10):
            tracker.record(decision(predicted=1.0, simulated=3.0, runner_up=1.01))
        assert tracker.at_risk_fraction == 1.0
        assert not tracker.drifted  # too few decisions to call it

    def test_drift_warns_exactly_once(self):
        tracker = CalibrationTracker(min_decisions=20)
        with pytest.warns(CalibrationDriftWarning, match="ranking error"):
            for _ in range(25):
                tracker.record(decision(predicted=1.0, simulated=3.0, runner_up=1.01))
        assert tracker.drifted
        # Further at-risk decisions never re-warn.
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tracker.record(decision(predicted=1.0, simulated=3.0, runner_up=1.01))

    def test_unclosed_decisions_are_ignored(self):
        tracker = CalibrationTracker(warn=False)
        tracker.record(decision(predicted=None))
        tracker.record(decision(simulated=None))
        tracker.record(decision(simulated=0.0))
        assert tracker.n_decisions == 0

    def test_merge_folds_replicas(self):
        a = CalibrationTracker(warn=False)
        b = CalibrationTracker(warn=False)
        for _ in range(5):
            a.record(decision(predicted=1.0, simulated=1.01, runner_up=2.0))
            b.record(decision(predicted=1.0, simulated=5.0, runner_up=1.05))
        a.merge(b)
        assert a.n_decisions == 10
        assert a.at_risk_fraction == pytest.approx(0.5)
        s = a.summary()
        assert s["per_strategy"]["shared_data"]["n"] == 10

    def test_summary_shape(self):
        tracker = CalibrationTracker(warn=False)
        tracker.record(decision(predicted=1.0, simulated=1.1, runner_up=2.0))
        s = tracker.summary()
        assert set(s) == {
            "n_decisions",
            "ranking_at_risk_fraction",
            "ranking_risk_threshold",
            "drifted",
            "per_strategy",
        }
        per = s["per_strategy"]["shared_data"]
        assert per["n"] == 1
        assert per["mean_abs_rel_error"] == pytest.approx(0.1 / 1.1)


    def test_term_ratios_name_the_residual(self):
        tracker = CalibrationTracker(warn=False)
        for sim_gmem in (2.0, 4.0):
            d = decision(predicted=1.0, simulated=1.0, runner_up=2.0)
            d.predicted_terms = {"t_gmem": 4.0, "t_smem": 1.0, "t_block_reduce": 0.5}
            d.simulated_terms = {"t_gmem": sim_gmem, "t_smem": 1.0, "t_block_reduce": 0.0}
            tracker.record(d)
        tracker.record(decision(predicted=1.0, simulated=1.0, runner_up=2.0))
        ratios = tracker.summary()["per_strategy"]["shared_data"]["mean_term_ratio"]
        # A term the simulator spent no time on has no ratio.
        assert ratios == {"t_gmem": pytest.approx(1.5), "t_smem": 1.0}
        other = CalibrationTracker(warn=False)
        d = decision(predicted=1.0, simulated=1.0)
        d.predicted_terms, d.simulated_terms = {"t_gmem": 3.0}, {"t_gmem": 1.0}
        other.record(d)
        tracker.merge(other)
        per = tracker.summary()["per_strategy"]["shared_data"]
        assert per["mean_term_ratio"]["t_gmem"] == pytest.approx(2.0)

    def test_no_term_ratios_without_terms(self):
        tracker = CalibrationTracker(warn=False)
        tracker.record(decision(predicted=1.0, simulated=1.1, runner_up=2.0))
        assert "mean_term_ratio" not in tracker.summary()["per_strategy"]["shared_data"]


class TestEngineIntegration:
    def test_engine_report_carries_calibration(self, small_forest, p100, test_X):
        from repro.core import TahoeEngine

        engine = TahoeEngine(small_forest, p100)
        result = engine.predict(test_X, report=True)
        calib = result.report.calibration
        assert calib["n_decisions"] >= 1
        assert calib["drifted"] in (False, True)
        assert calib["per_strategy"]
        assert calib["n_decisions"] == sum(
            s["n"] for s in calib["per_strategy"].values()
        )

    def test_serving_report_merges_engine_calibration(
        self, small_forest, p100, test_X
    ):
        from repro.serving import InferenceRequest, SchedulerConfig, TahoeServer

        server = TahoeServer(
            small_forest,
            p100,
            scheduler=SchedulerConfig(n_engines=2, target_batch=4, max_wait=1e-3),
        )
        reqs = [
            InferenceRequest(
                request_id=i, X=test_X[i][None, :], arrival_time=i * 1e-5
            )
            for i in range(24)
        ]
        result = server.run(reqs, report=True)
        calib = result.report.calibration
        assert calib["n_decisions"] == result.summary["batches"]

    def test_reported_run_splits_decisions_into_terms(self, small_forest, p100, test_X):
        from repro.core import TahoeEngine
        from repro.perfmodel.models import TERMS

        engine = TahoeEngine(small_forest, p100)
        report = engine.predict(test_X, batch_size=90, report=True).report
        for d in report.decisions:
            assert set(d.predicted_terms) == set(TERMS)
            assert set(d.simulated_terms) == set(TERMS)
            # Both splits add up to their totals (t_chain is folded in).
            predicted = sum(v for k, v in d.predicted_terms.items() if k != "t_chain")
            simulated = sum(v for k, v in d.simulated_terms.items() if k != "t_chain")
            assert predicted == pytest.approx(d.predicted_time)
            assert simulated == pytest.approx(d.simulated_time)
        for per in report.calibration["per_strategy"].values():
            assert per["mean_term_ratio"]["t_launch"] == pytest.approx(1.0)

    def test_unreported_run_records_no_terms(self, small_forest, p100, test_X):
        from repro.core import TahoeEngine

        engine = TahoeEngine(small_forest, p100)
        engine.predict(test_X, batch_size=90)
        assert all(d.predicted_terms is None for d in engine.recorder.decisions)
        assert all(d.simulated_terms is None for d in engine.recorder.decisions)
        for per in engine.recorder.calibration.summary()["per_strategy"].values():
            assert "mean_term_ratio" not in per
