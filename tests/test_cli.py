import json

import numpy as np
import pytest
from click.testing import CliRunner

import fieldcluster
from fieldcluster import PointCloud, load_ply, save_ply
from fieldcluster.cli import main


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def small_field(tmp_path, runner):
    truth = tmp_path / "truth.ply"
    result = runner.invoke(main, [
        "synth", str(truth), "--rows", "3", "--cols", "3",
        "--points-per-plant", "120", "--double-plant-prob", "0", "--seed", "11"])
    assert result.exit_code == 0, result.output
    return truth


class TestSynth:
    def test_announces_plants_and_points(self, tmp_path, runner):
        out = tmp_path / "f.ply"
        result = runner.invoke(main, ["synth", str(out), "--rows", "2", "--cols", "2",
                                      "--points-per-plant", "30", "--double-plant-prob", "0"])
        assert result.exit_code == 0
        assert "plants: 4" in result.output and "points: 120" in result.output

    def test_same_seed_byte_identical(self, tmp_path, runner):
        a, b = tmp_path / "a.ply", tmp_path / "b.ply"
        for path in (a, b):
            result = runner.invoke(main, ["synth", str(path), "--rows", "2", "--cols", "2",
                                          "--points-per-plant", "25", "--seed", "8"])
            assert result.exit_code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_rows_zero_usage_error(self, tmp_path, runner):
        result = runner.invoke(main, ["synth", str(tmp_path / "x.ply"), "--rows", "0"])
        assert result.exit_code == 2
        assert "1x1" in result.output

    def test_config_file(self, tmp_path, runner):
        cfg = tmp_path / "field.cfg"
        cfg.write_text("rows = 2\ncols = 2\npoints_per_plant = 10\ndouble_plant_prob = 0\n")
        result = runner.invoke(main, ["synth", str(tmp_path / "f.ply"), "--config", str(cfg)])
        assert result.exit_code == 0
        assert "plants: 4" in result.output

    def test_flag_overrides_config(self, tmp_path, runner):
        cfg = tmp_path / "field.cfg"
        cfg.write_text("rows = 2\ncols = 2\npoints_per_plant = 10\ndouble_plant_prob = 0\n")
        result = runner.invoke(main, ["synth", str(tmp_path / "f.ply"),
                                      "--config", str(cfg), "--cols", "3"])
        assert result.exit_code == 0
        assert "plants: 6" in result.output


class TestCluster:
    def test_paper_default_parameters_accepted(self, small_field, tmp_path, runner):
        out = tmp_path / "pred.ply"
        result = runner.invoke(main, ["cluster", str(small_field), str(out),
                                      "--algo", "gdqspp", "--k", "60", "--beta", "0.3"])
        assert result.exit_code == 0, result.output
        assert "clusters:" in result.output and "time:" in result.output
        assert load_ply(out).labels.max() >= 1

    def test_missing_d_is_usage_error(self, small_field, tmp_path, runner):
        result = runner.invoke(main, ["cluster", str(small_field), str(tmp_path / "o.ply"),
                                      "--algo", "rain"])
        assert result.exit_code == 2
        assert "missing d" in result.output

    def test_gdqspp_rejects_d(self, small_field, tmp_path, runner):
        result = runner.invoke(main, ["cluster", str(small_field), str(tmp_path / "o.ply"),
                                      "--algo", "gdqspp", "--k", "60", "--d", "0.1"])
        assert result.exit_code == 2
        assert "not accept d" in result.output

    def test_empty_cloud_ok(self, tmp_path, runner):
        empty = tmp_path / "empty.ply"
        save_ply(PointCloud(np.empty((0, 3))), np.empty(0, int), empty)
        out = tmp_path / "out.ply"
        result = runner.invoke(main, ["cluster", str(empty), str(out), "--algo", "rain",
                                      "--d", "0.5"])
        assert result.exit_code == 0
        assert load_ply(out).n == 0

    def test_report_json_stable_across_threads(self, small_field, tmp_path, runner):
        reports = []
        outs = []
        for threads, tag in (("1", "a"), ("2", "b")):
            out = tmp_path / f"pred_{tag}.ply"
            rep = tmp_path / f"rep_{tag}.json"
            result = runner.invoke(main, ["cluster", str(small_field), str(out),
                                          "--algo", "gdqspp", "--k", "60",
                                          "--threads", threads, "--report", str(rep),
                                          "--binary"])
            assert result.exit_code == 0, result.output
            reports.append(rep.read_bytes())
            outs.append(out.read_bytes())
        assert reports[0] == reports[1]
        assert outs[0] == outs[1]

    def test_report_schema(self, small_field, tmp_path, runner):
        rep = tmp_path / "rep.json"
        result = runner.invoke(main, ["cluster", str(small_field), str(tmp_path / "o.ply"),
                                      "--algo", "zqs", "--d", "0.2", "--report", str(rep)])
        assert result.exit_code == 0
        doc = json.loads(rep.read_text())
        assert doc["schema"] == 1 and doc["algorithm"] == "zqs"

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_must_be_positive(self, small_field, tmp_path, runner, threads):
        result = runner.invoke(main, ["cluster", str(small_field), str(tmp_path / "o.ply"),
                                      "--algo", "zqs", "--d", "0.2", "--threads", threads])
        assert result.exit_code == 2
        assert "--threads" in result.output


class TestEval:
    def test_perfect_prediction(self, small_field, tmp_path, runner):
        result = runner.invoke(main, ["eval", str(small_field), str(small_field)])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["schema"] == 1
        assert doc["match"]["mean_iou"] == 1.0
        assert doc["counts"]["multi_plant_clusters"] == 0

    def test_pipeline_and_report_file(self, small_field, tmp_path, runner):
        pred = tmp_path / "pred.ply"
        assert runner.invoke(main, ["cluster", str(small_field), str(pred),
                                    "--algo", "gdqspp", "--k", "60"]).exit_code == 0
        rep = tmp_path / "eval.json"
        result = runner.invoke(main, ["eval", str(pred), str(small_field),
                                      "--report", str(rep)])
        assert result.exit_code == 0
        doc = json.loads(rep.read_text())
        assert 0.0 <= doc["match"]["mean_iou"] <= 1.0
        assert doc["counts"]["total_truth_plants"] == 9

    def test_unlabeled_input_fails(self, tmp_path, runner):
        bare = tmp_path / "bare.ply"
        bare.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\nend_header\n0 0 0\n")
        result = runner.invoke(main, ["eval", str(bare), str(bare)])
        assert result.exit_code == 1
        assert "no labels" in result.output

    def test_eval_json_byte_identical_across_runs(self, small_field, tmp_path, runner):
        pred = tmp_path / "pred.ply"
        runner.invoke(main, ["cluster", str(small_field), str(pred),
                             "--algo", "gdqspp", "--k", "60"])
        outs = [runner.invoke(main, ["eval", str(pred), str(small_field)]).output
                for _ in range(2)]
        assert outs[0] == outs[1]

    def test_sweep_selects_within_20pct(self, small_field, tmp_path, runner):
        result = runner.invoke(main, ["eval", str(small_field), str(small_field),
                                      "--sweep-d", "0.05:0.15:0.05",
                                      "--algo", "gdqs", "--k", "60"])
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert doc["command"] == "eval-sweep"
        assert len(doc["runs"]) == 3
        assert doc["truth_clusters"] == 9
        if doc["selected"] is not None:
            assert doc["selected"]["within_20pct"] is True
            best = max((r for r in doc["runs"] if r["within_20pct"]),
                       key=lambda r: r["mean_iou"])
            assert doc["selected"]["mean_iou"] == best["mean_iou"]

    def test_sweep_requires_algo(self, small_field, runner):
        result = runner.invoke(main, ["eval", str(small_field), str(small_field),
                                      "--sweep-d", "0.1:0.2:0.1"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("sweep", ["nan:1:0.1", "0.1:inf:0.1", "0.1:1:nan", "-inf:1:0.1",
                                       "1:0.1:0.1", "0.1:1:0", "a:b:c", "0.1:1:1e-12",
                                       "0:1:1e-320"])
    def test_sweep_rejects_bad_range(self, small_field, runner, sweep):
        result = runner.invoke(main, ["eval", str(small_field), str(small_field),
                                      "--sweep-d", sweep, "--algo", "zqs"])
        assert result.exit_code == 2
        assert "--sweep-d" in result.output

    @pytest.mark.parametrize("algo,k", [("zqs", "5"), ("gdqs", "0")])
    def test_sweep_rejects_bad_params_before_loading(self, tmp_path, runner, algo, k):
        # not a PLY file: a load would fail with exit 1
        junk = tmp_path / "junk.ply"
        junk.write_text("not a point cloud\n")
        result = runner.invoke(main, ["eval", str(junk), str(junk),
                                      "--sweep-d", "0.1:0.1:0.1", "--algo", algo, "--k", k])
        assert result.exit_code == 2, result.output
        assert "k" in result.output and "error: " not in result.output

    @pytest.mark.parametrize("extra", [["--k", "5"], ["--algo", "gdqs"]])
    def test_sweep_options_need_sweep(self, small_field, runner, extra):
        result = runner.invoke(main, ["eval", str(small_field), str(small_field)] + extra)
        assert result.exit_code == 2
        assert "--sweep-d" in result.output

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_must_be_positive(self, small_field, runner, threads):
        result = runner.invoke(main, ["eval", str(small_field), str(small_field),
                                      "--sweep-d", "0.1:0.1:0.1", "--algo", "zqs",
                                      "--threads", threads])
        assert result.exit_code == 2
        assert "--threads" in result.output


class TestBench:
    def test_single_size_row(self, runner):
        result = runner.invoke(main, ["bench", "--sizes", "2000", "--algo", "zqs",
                                      "--d", "0.1", "--repeats", "1"])
        assert result.exit_code == 0, result.output
        lines = [ln for ln in result.output.splitlines() if ln.strip()]
        assert "median of 1" in lines[0] and "warmup" in lines[0]
        assert len(lines) == 3  # header comment, column header, one row
        assert lines[2].split()[-1] == "-"

    def test_ratio_reported_between_sizes(self, tmp_path, runner):
        rep = tmp_path / "bench.json"
        result = runner.invoke(main, ["bench", "--sizes", "1000,2000", "--algo", "gdqspp",
                                      "--k", "16", "--repeats", "1", "--report", str(rep)])
        assert result.exit_code == 0, result.output
        doc = json.loads(rep.read_text())
        assert doc["schema"] == 1
        assert len(doc["rows"]) == 2
        assert doc["rows"][0]["ratio"] is None
        assert doc["rows"][1]["ratio"] > 0

    @pytest.mark.parametrize("repeats", ["0", "-1"])
    def test_repeats_must_be_positive(self, runner, repeats):
        result = runner.invoke(main, ["bench", "--sizes", "2000", "--algo", "zqs",
                                      "--d", "0.1", "--repeats", repeats])
        assert result.exit_code == 2

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_must_be_positive(self, runner, threads):
        result = runner.invoke(main, ["bench", "--sizes", "2000", "--algo", "zqs",
                                      "--d", "0.1", "--repeats", "1", "--threads", threads])
        assert result.exit_code == 2
        assert "--threads" in result.output

    def test_sizes_must_ascend(self, runner):
        result = runner.invoke(main, ["bench", "--sizes", "2000,1000", "--algo", "zqs",
                                      "--d", "0.1"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("sizes,params", [
        ("-5,0", ["--algo", "zqs", "--d", "0.1"]),
        ("0", ["--algo", "gdqspp", "--k", "5"]),
    ])
    def test_sizes_must_be_positive(self, runner, sizes, params):
        result = runner.invoke(main, ["bench", f"--sizes={sizes}", *params, "--repeats", "1"])
        assert result.exit_code == 2, result.output
        assert "--sizes must be positive" in result.output


def test_version(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0, result.output
    assert result.output == f"fieldcluster, version {fieldcluster.__version__}\n"
