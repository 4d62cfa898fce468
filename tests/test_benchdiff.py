"""Bench envelope and the noise-aware regression differ."""

import json

import pytest

from repro.cli import main
from repro.obs.benchdiff import (
    ENVELOPE_VERSION,
    bench_envelope,
    classify_metric,
    diff_envelopes,
    diff_payloads,
    flatten_numeric,
    format_diff,
    load_envelope,
)


class TestEnvelope:
    def test_envelope_shape_and_provenance(self):
        env = bench_envelope("fig6", {"qps": 10.0}, kind="summary", scenario="fig6/a")
        assert env["schema_version"] == ENVELOPE_VERSION
        assert env["benchmark"] == "fig6"
        assert env["kind"] == "summary"
        assert env["payload"] == {"qps": 10.0}
        run = env["run"]
        assert run["scenario"] == "fig6/a"
        assert len(run["run_id"]) == 12
        assert run["git_sha"]
        assert "T" in run["timestamp"]
        env = run["env"]
        assert env["python"].count(".") == 2 and env["numpy"]
        assert isinstance(env["numba"], bool) and env["cpu_count"] >= 1

    def test_run_ids_are_unique(self):
        a = bench_envelope("x", {})
        b = bench_envelope("x", {})
        assert a["run"]["run_id"] != b["run"]["run_id"]

    def test_load_envelope_tolerates_v1_artifacts(self, tmp_path):
        p = tmp_path / "BENCH_old.json"
        p.write_text(json.dumps({"benchmark": "x", "payload": {"qps": 1.0}}))
        env = load_envelope(p)
        assert env["run"] == {}
        p.write_text("[1, 2]")
        with pytest.raises(ValueError):
            load_envelope(p)


class TestFlattenAndClassify:
    def test_flatten_nested_payload(self):
        flat = flatten_numeric(
            {
                "a": {"b": 1.5, "list": [1, 2]},
                "skip_bool": True,
                "skip_str": "x",
                "skip_none": None,
                "nan": float("nan"),
                "run": {"timestamp": 123},
            }
        )
        assert flat == {"a.b": 1.5, "a.list.0": 1.0, "a.list.1": 2.0}

    def test_classification_precedence(self):
        # Informational tokens win even when a gating token also matches:
        # conversion *time* is host wall clock, never a gate.
        assert classify_metric("conversions.0.total_s.time") == "info"
        assert classify_metric("config.max_wait") == "info"
        assert classify_metric("latency_s.p95") == "lower"
        assert classify_metric("queue_wait_s.p99") == "lower"
        assert classify_metric("achieved_qps") == "higher"
        assert classify_metric("speedup.Higgs") == "higher"
        assert classify_metric("some_unknown_metric") == "info"

    def test_request_rate_is_tracked_while_request_counts_stay_info(self):
        assert classify_metric("scenarios.serve/x/n2000.requests_per_s") == "higher"
        assert classify_metric("scenarios.serve/x/n2000.requests") == "info"
        assert classify_metric("summary.requests") == "info"


class TestDiff:
    def test_identical_payloads_diff_clean(self):
        payload = {"latency_s": {"p95": 0.004}, "achieved_qps": 1900.0}
        diff = diff_payloads(payload, json.loads(json.dumps(payload)))
        assert diff.ok and diff.compared == 2
        assert not diff.regressions and not diff.improvements

    def test_injected_latency_regression_detected(self):
        old = {"latency_s": {"p95": 0.004, "p50": 0.001}, "achieved_qps": 1900.0}
        new = {"latency_s": {"p95": 0.004 * 1.2, "p50": 0.001}, "achieved_qps": 1900.0}
        diff = diff_payloads(old, new)
        assert not diff.ok
        (reg,) = diff.regressions
        assert reg.path == "latency_s.p95"
        assert reg.rel_change == pytest.approx(0.2)

    def test_throughput_drop_is_regression_and_rise_improvement(self):
        old = {"achieved_qps": 1000.0}
        assert not diff_payloads(old, {"achieved_qps": 700.0}).ok
        diff = diff_payloads(old, {"achieved_qps": 1500.0})
        assert diff.ok and len(diff.improvements) == 1

    def test_noise_within_threshold_ignored(self):
        old = {"latency_s": {"p95": 0.004}}
        new = {"latency_s": {"p95": 0.004 * 1.09}}
        assert diff_payloads(old, new, rel_threshold=0.10).ok
        assert not diff_payloads(old, new, rel_threshold=0.05).ok

    def test_abs_floor_swallows_float_jitter(self):
        diff = diff_payloads({"error_rate": 0.0}, {"error_rate": 1e-12})
        assert diff.ok and not diff.info_changes

    def test_info_metrics_never_gate(self):
        old = {"conversion_total_s": 1.0, "offered_qps": 2000.0}
        new = {"conversion_total_s": 5.0, "offered_qps": 4000.0}
        diff = diff_payloads(old, new)
        assert diff.ok
        assert len(diff.info_changes) == 2

    def test_added_and_removed_tracked(self):
        diff = diff_payloads({"a": 1.0}, {"b": 2.0})
        assert diff.added == ["b"] and diff.removed == ["a"]
        assert diff.compared == 0 and diff.ok

    def test_scenario_mismatch_warns_but_does_not_fail(self):
        old = bench_envelope("serving", {"x": 1.0}, scenario="serving/a")
        new = bench_envelope("serving", {"x": 1.0}, scenario="serving/b")
        diff = diff_envelopes(old, new)
        assert diff.ok
        assert diff.scenario_mismatch == ("serving/a", "serving/b")
        assert "WARNING" in format_diff(diff)

    def test_env_mismatch_is_one_line_and_changes_no_verdict(self):
        old = bench_envelope("serving", {"latency_s": 1.0}, scenario="s")
        new = bench_envelope("serving", {"latency_s": 2.0}, scenario="s")
        assert diff_envelopes(old, new).env_mismatch is None
        new["run"]["env"] = dict(old["run"]["env"], numba=not old["run"]["env"]["numba"])
        diff = diff_envelopes(old, new)
        assert not diff.ok and len(diff.regressions) == 1
        notes = [line for line in format_diff(diff).splitlines() if "environments" in line]
        assert len(notes) == 1 and "numba" in notes[0]
        assert diff.to_dict()["env_mismatch"] == [old["run"]["env"], new["run"]["env"]]

    def test_cross_time_domain_refused(self):
        old = bench_envelope(
            "serving", {"time_domain": "simulated", "qps": 100.0}, scenario="s"
        )
        new = bench_envelope(
            "serving", {"time_domain": "wall", "qps": 900.0}, scenario="s"
        )
        with pytest.raises(ValueError, match="refusing to diff across time domains"):
            diff_envelopes(old, new)

    def test_same_time_domain_diffs_normally(self):
        old = bench_envelope("b", {"time_domain": "wall", "qps": 100.0}, scenario="s")
        new = bench_envelope("b", {"time_domain": "wall", "qps": 101.0}, scenario="s")
        assert diff_envelopes(old, new).ok

    def test_missing_time_domain_tolerated(self):
        # Pre-native artifacts carry no domain marker; they diff as before.
        old = bench_envelope("b", {"qps": 100.0}, scenario="s")
        new = bench_envelope("b", {"time_domain": "wall", "qps": 100.0}, scenario="s")
        assert diff_envelopes(old, new).ok

    def test_format_diff_verdict_line(self):
        clean = diff_payloads({"a": 1.0}, {"a": 1.0})
        assert format_diff(clean).endswith("RESULT: clean")
        bad = diff_payloads({"latency": 1.0}, {"latency": 2.0})
        out = format_diff(bad)
        assert out.endswith("RESULT: REGRESSION")
        assert "latency: 1 -> 2" in out


class TestCli:
    def _write(self, path, payload, scenario="s"):
        path.write_text(json.dumps(bench_envelope("t", payload, scenario=scenario)))
        return path

    def test_identical_runs_exit_zero(self, tmp_path, capsys):
        old = self._write(tmp_path / "old.json", {"latency_s": {"p95": 0.004}})
        new = self._write(tmp_path / "new.json", {"latency_s": {"p95": 0.004}})
        assert main(["bench", "diff", str(old), str(new)]) == 0
        assert "RESULT: clean" in capsys.readouterr().out

    def test_regression_exits_nonzero_unless_warn_only(self, tmp_path, capsys):
        old = self._write(tmp_path / "old.json", {"latency_s": {"p95": 0.004}})
        new = self._write(tmp_path / "new.json", {"latency_s": {"p95": 0.0048}})
        assert main(["bench", "diff", str(old), str(new)]) == 1
        assert "RESULT: REGRESSION" in capsys.readouterr().out
        assert main(["bench", "diff", "--warn-only", str(old), str(new)]) == 0

    def test_threshold_flag_loosens_gate(self, tmp_path):
        old = self._write(tmp_path / "old.json", {"latency_s": {"p95": 0.004}})
        new = self._write(tmp_path / "new.json", {"latency_s": {"p95": 0.0048}})
        assert main(["bench", "diff", "--threshold", "0.25", str(old), str(new)]) == 0

    def test_json_output_mode(self, tmp_path, capsys):
        old = self._write(tmp_path / "old.json", {"qps": 100.0})
        new = self._write(tmp_path / "new.json", {"qps": 50.0})
        assert main(["bench", "diff", "--json", str(old), str(new)]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is False
        assert data["regressions"][0]["path"] == "qps"

    def test_unreadable_artifact_exits_two(self, tmp_path, capsys):
        good = self._write(tmp_path / "old.json", {"qps": 1.0})
        missing = tmp_path / "nope.json"
        assert main(["bench", "diff", str(good), str(missing)]) == 2

    def test_cross_domain_diff_exits_two_with_message(self, tmp_path, capsys):
        old = self._write(
            tmp_path / "old.json", {"time_domain": "simulated", "qps": 100.0}
        )
        new = self._write(
            tmp_path / "new.json", {"time_domain": "wall", "qps": 100.0}
        )
        assert main(["bench", "diff", str(old), str(new)]) == 2
        err = capsys.readouterr().err
        assert "refusing to diff across time domains" in err
