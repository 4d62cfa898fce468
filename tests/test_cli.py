"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.trees.io import load_forest, save_forest


@pytest.fixture()
def forest_file(small_forest, tmp_path):
    path = tmp_path / "forest.json"
    save_forest(small_forest, path)
    return path


class TestCli:
    def test_specs(self, capsys):
        assert main(["specs"]) == 0
        out = capsys.readouterr().out
        assert "K80" in out and "P100" in out and "V100" in out

    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "Higgs" in out and "letter" in out
        assert out.count("\n") >= 16  # header + 15 rows

    def test_train_writes_forest(self, tmp_path, capsys):
        out_path = tmp_path / "f.json"
        code = main(
            ["train", "--dataset", "letter", "--scale", "0.08",
             "--tree-scale", "0.05", "--out", str(out_path)]
        )
        assert code == 0
        forest = load_forest(out_path)
        assert forest.n_trees >= 4

    def test_train_rejects_unknown_dataset(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["train", "--dataset", "mnist", "--out", str(tmp_path / "x.json")])

    def test_convert_reports_saving(self, forest_file, capsys):
        assert main(["convert", "--forest", str(forest_file)]) == 0
        out = capsys.readouterr().out
        assert "adaptive layout" in out
        assert "saved" in out

    def test_rank_lists_strategies(self, forest_file, capsys):
        assert main(
            ["rank", "--forest", str(forest_file), "--gpu", "P100", "--batch", "1000"]
        ) == 0
        out = capsys.readouterr().out
        for name in ("shared_data", "direct", "shared_forest", "splitting"):
            assert name in out

    def test_predict_compares_engines(self, forest_file, capsys):
        code = main(
            ["predict", "--forest", str(forest_file), "--dataset", "letter",
             "--scale", "0.08", "--limit", "80"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "Tahoe" in out and "FIL" in out

    def test_predict_cprofile_dumps_pstats(self, forest_file, tmp_path, capsys):
        stats_path = tmp_path / "run.pstats"
        code = main(
            ["predict", "--forest", str(forest_file), "--dataset", "letter",
             "--scale", "0.08", "--limit", "60", "--cprofile", str(stats_path)]
        )
        assert code == 0
        assert "run.pstats" in capsys.readouterr().out
        import pstats

        stats = pstats.Stats(str(stats_path))
        functions = {name for _, _, name in stats.stats}
        assert "_traverse_chunk" in functions

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


@pytest.mark.parametrize("packed", [False, True], ids=["json", "tahoe"])
@pytest.mark.parametrize(
    "argv",
    [
        ["convert"],
        ["profile"],
        ["rank", "--batch", "500"],
        ["trace", "--dataset", "letter", "--scale", "0.05", "--limit", "40"],
    ],
    ids=lambda argv: argv[0],
)
def test_forest_commands_accept_any_model_format(
    argv, packed, forest_file, tmp_path, capsys
):
    """Every ``--forest`` command loads native JSON and packed ``.tahoe``."""
    model = forest_file
    if packed:
        model = tmp_path / "model.tahoe"
        assert main(["pack", "--forest", str(forest_file), "--out", str(model)]) == 0
    extra = ["--out", str(tmp_path / "trace.json")] if argv[0] == "trace" else []
    assert main([argv[0], "--forest", str(model), *argv[1:], *extra]) == 0


class TestProfileCommand:
    def test_profile_reports_structure(self, forest_file, capsys):
        assert main(["profile", "--forest", str(forest_file)]) == 0
        out = capsys.readouterr().out
        assert "hot-path skew" in out
        assert "work dispersion" in out
        assert "depth histogram" in out


class TestServeCommand:
    def test_serve_bench_quick_writes_artifact(self, tmp_path, capsys):
        out_path = tmp_path / "BENCH_serving.json"
        code = main(
            ["serve", "--quick", "--scale", "0.05",
             "--tree-scale", "0.04", "--out", str(out_path)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "qps" in stdout and "p99" in stdout
        envelope = json.loads(out_path.read_text())
        assert envelope["kind"] == "serving_bench"
        assert envelope["schema_version"] == 2
        # Shared provenance block: what `repro bench diff` keys off.
        run = envelope["run"]
        assert run["run_id"] and run["git_sha"] and run["timestamp"]
        assert run["scenario"].startswith("serving/")
        payload = envelope["payload"]
        s = payload["summary"]
        # The acceptance surface: latency quantiles, batch-size
        # histogram, deadline/rejection counters, conversion.
        assert s["completed"] > 0
        assert s["latency_s"]["p50"] > 0 and s["latency_s"]["p99"] > 0
        assert s["batch_size_histogram"]
        assert "rejected_queue_full" in s and "deadline_misses" in s
        assert s["achieved_qps"] >= 0.9 * min(
            payload["config"]["qps"], s["offered_qps"]
        )
        # The pool converted once; the second replica adopted the layout.
        assert s["n_engines"] == 2
        assert s["conversion"]["source"] == "pipeline"
        assert s["conversion"]["total_s"] > 0
        assert payload["report"]["metrics"]["counters"]["conversions_total"] == 1
        assert "shared by 2 engine(s)" in stdout
        assert payload["report"]["engine"] == "tahoe-serving"

    def test_serve_baseline_trims_artifact(self, tmp_path, capsys):
        out_path = tmp_path / "BENCH_serving.json"
        code = main(
            ["serve", "--quick", "--baseline", "--scale", "0.05",
             "--tree-scale", "0.04", "--out", str(out_path)]
        )
        assert code == 0
        envelope = json.loads(out_path.read_text())
        payload = envelope["payload"]
        # Baseline mode keeps the summary metrics the regression differ
        # gates on but drops the embedded report (the 20k-line bulk:
        # traces, decision logs, per-batch telemetry).
        assert "report" not in payload
        assert payload["config"]["baseline"] is True
        assert payload["summary"]["completed"] > 0
        assert payload["time_domain"] == "simulated"
        assert len(out_path.read_text().splitlines()) < 500

    def test_serve_native_backend_runs_on_wall_clock(self, tmp_path, capsys):
        out_path = tmp_path / "BENCH_serving.json"
        code = main(
            ["serve", "--quick", "--baseline", "--backend", "native",
             "--scale", "0.05", "--tree-scale", "0.04", "--out", str(out_path)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "backend: native (wall clock)" in stdout
        envelope = json.loads(out_path.read_text())
        payload = envelope["payload"]
        assert payload["time_domain"] == "wall"
        assert payload["config"]["backend"] == "native"
        assert envelope["run"]["scenario"].endswith("/native")

    def test_serve_native_records_wall_layers(self, tmp_path, capsys):
        out_path = tmp_path / "BENCH_serving.json"
        code = main(
            ["serve", "--quick", "--baseline", "--backend", "native",
             "--scale", "0.05", "--tree-scale", "0.04", "--out", str(out_path)]
        )
        assert code == 0
        assert "wall layers of run()" in capsys.readouterr().out
        layers = json.loads(out_path.read_text())["payload"]["layers"]
        assert layers["time_domain"] == "wall"
        assert set(layers["parts_s"]) == {
            "admission", "assembly", "engine", "telemetry", "fanout", "result"
        }
        covered = sum(layers["parts_s"].values())
        assert covered + layers["unaccounted_s"] == pytest.approx(layers["run_s"])
        assert 0.9 <= layers["coverage"] <= 1.0 + 1e-9

    @pytest.mark.parametrize(
        "flags, factor",
        [([], 1), (["--burst-factor", "20"], 20), (["--burst-factor", "5"], 5)],
        ids=["flat", "burst", "burst-factor-only"],
    )
    def test_serve_traffic_models(self, flags, factor, tmp_path, capsys):
        out_path = tmp_path / "BENCH_serving.json"
        code = main(
            ["serve", "--quick", "--baseline", "--scale", "0.05",
             "--tree-scale", "0.04", *flags, "--out", str(out_path)]
        )
        assert code == 0
        envelope = json.loads(out_path.read_text())
        assert envelope["kind"] == "serving_bench"
        # The factor names the traffic: no separate traffic suffix or field.
        assert f"/qps500x{factor}/" in envelope["run"]["scenario"]
        assert envelope["run"]["scenario"].endswith("/e2/tahoe")
        assert envelope["payload"]["config"]["burst_factor"] == factor
        assert "traffic" not in envelope["payload"]["config"]
        assert envelope["payload"]["summary"]["completed"] > 0

    def test_serve_burst_factor_is_the_factor_traffic_runs_with(self, tmp_path, capsys):
        def serve(*flags):
            out_path = tmp_path / "b.json"
            code = main(
                ["serve", "--quick", "--baseline", "--scale", "0.05",
                 "--tree-scale", "0.04", *flags, "--out", str(out_path)]
            )
            assert code == 0
            envelope = json.loads(out_path.read_text())
            return envelope["run"]["scenario"], envelope["payload"]

        # A factor of 1 is flat traffic: the same arrivals as the default.
        flat_scenario, flat = serve("--burst-factor", "1")
        poisson_scenario, poisson = serve()
        assert flat["summary"]["requests"] == poisson["summary"]["requests"]
        assert flat["config"]["burst_factor"] == 1
        assert "x1/" in flat_scenario and flat_scenario == poisson_scenario
        burst_scenario, burst = serve("--burst-factor", "10")
        assert burst["config"]["burst_factor"] == 10
        assert "x10/" in burst_scenario
        assert burst["summary"]["requests"] > poisson["summary"]["requests"]
        assert poisson["config"]["burst_factor"] == 1

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--burst-factor", "0.5"),
            ("--qps", "-1"),
            ("--duration", "0"),
            ("--n-engines", "0"),
            ("--max-batch", "0"),
            ("--max-queue", "0"),
            ("--max-wait-ms", "-1"),
            ("--slo-window-ms", "0"),
            ("--deadline-ms", "-5"),
        ],
    )
    def test_serve_bad_flag_is_a_usage_error(self, flag, value, tmp_path, capsys):
        out_path = tmp_path / "b.json"
        assert main(["serve", "--quick", flag, value, "--out", str(out_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro serve: error: ") and err.count("\n") == 1
        assert flag in err
        assert not out_path.exists()

    def test_predict_native_backend_bit_identical(self, forest_file, capsys):
        code = main(
            ["predict", "--forest", str(forest_file), "--dataset", "letter",
             "--scale", "0.05", "--limit", "80", "--backend", "native"]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "bit-identical to the simulator: yes" in stdout
        assert "wall" in stdout
