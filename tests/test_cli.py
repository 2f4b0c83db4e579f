import inspect
import json
import os
import statistics
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import fieldcluster
from fieldcluster import FieldSpec, PointCloud, cli, load_ply, save_ply, spatial
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

    @pytest.mark.parametrize("flag, value", [("--ground-point-density", "inf"),
                                             ("--noise-sigma", "nan")])
    def test_non_finite_float_usage_error(self, tmp_path, runner, flag, value):
        result = runner.invoke(main, ["synth", str(tmp_path / "x.ply"), flag, value])
        assert result.exit_code == 2
        assert flag[2:].replace("-", "_") + " must be finite" in result.output

    def test_config_file(self, tmp_path, runner):
        cfg = tmp_path / "field.cfg"
        cfg.write_text("rows = 2\ncols = 2\npoints_per_plant = 10\ndouble_plant_prob = 0\n")
        result = runner.invoke(main, ["synth", str(tmp_path / "f.ply"), "--config", str(cfg)])
        assert result.exit_code == 0
        assert "plants: 4" in result.output

    def test_help_lists_one_typed_flag_per_field(self, runner):
        help_text = runner.invoke(main, ["synth", "--help"]).output
        metavar = {"int": "INTEGER", "float": "FLOAT"}
        for f in fields(FieldSpec):
            assert f"--{f.name.replace('_', '-')} {metavar[f.type]}" in help_text

    def test_flag_overrides_config(self, tmp_path, runner):
        cfg = tmp_path / "field.cfg"
        cfg.write_text("rows = 2\ncols = 2\npoints_per_plant = 10\ndouble_plant_prob = 0\n")
        result = runner.invoke(main, ["synth", str(tmp_path / "f.ply"),
                                      "--config", str(cfg), "--cols", "3"])
        assert result.exit_code == 0
        assert "plants: 6" in result.output

    def test_invalid_config_value_is_an_error_even_when_overridden(self, tmp_path, runner):
        cfg = tmp_path / "field.cfg"
        cfg.write_text("rows = 0\ncols = 2\n")
        result = runner.invoke(main, ["synth", str(tmp_path / "f.ply"),
                                      "--config", str(cfg), "--rows", "2"])
        assert result.exit_code == 2
        assert "grid must be at least 1x1, got 0x2" in result.output


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

    def test_default_k_filled_for_gdqs(self, tmp_path, runner):
        # 1,260 points, so the default k = 1200 is valid
        field = tmp_path / "field.ply"
        assert runner.invoke(main, ["synth", str(field), "--rows", "3", "--cols", "3",
                                    "--points-per-plant", "140", "--seed", "11"]).exit_code == 0
        rep = tmp_path / "r.json"
        result = runner.invoke(main, ["cluster", str(field), str(tmp_path / "o.ply"),
                                      "--algo", "gdqs", "--d", "0.3", "--report", str(rep)])
        assert result.exit_code == 0, result.output
        assert json.loads(rep.read_text())["params"] == {"d": 0.3, "k": 1200, "beta": None}

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

    @pytest.mark.parametrize("sweep", [[], ["--sweep-d", "0.1:0.1:0.1", "--algo", "zqs"]],
                             ids=["labels", "sweep"])
    def test_point_count_mismatch_fails(self, small_field, tmp_path, runner, sweep):
        other = tmp_path / "other.ply"
        assert runner.invoke(main, ["synth", str(other), "--rows", "2", "--cols", "2",
                                    "--points-per-plant", "30"]).exit_code == 0
        result = runner.invoke(main, ["eval", str(other), str(small_field), *sweep])
        assert result.exit_code == 1
        assert "point count: 120 vs 1080" in result.output

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

    def test_sweep_values_are_the_named_decimals(self, small_field, runner):
        for sweep, want in (("0.05:0.15:0.05", [0.05, 0.1, 0.15]),
                            ("0.2:0.23:0.01", [0.2, 0.21, 0.22, 0.23]),
                            ("0.12:0.24:0.06", [0.12, 0.18, 0.24])):
            result = runner.invoke(main, ["eval", str(small_field), str(small_field),
                                          "--sweep-d", sweep, "--algo", "zqs"])
            assert result.exit_code == 0, result.output
            assert [run["d"] for run in json.loads(result.output)["runs"]] == want

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
                                      "--k", "16", "--repeats", "3", "--report", str(rep)])
        assert result.exit_code == 0, result.output
        doc = json.loads(rep.read_text())
        assert doc["schema"] == 1
        assert len(doc["rows"]) == 2
        assert doc["rows"][0]["ratio"] is None
        assert doc["rows"][1]["ratio"] > 0
        for row in doc["rows"]:
            assert len(row["times"]) == doc["repeats"]
            assert statistics.median(row["times"]) == row["seconds"]

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

    def test_sizes_take_turns_within_each_repeat(self, runner, monkeypatch):
        # every size is made and warmed up first; then each repeat times
        # every size in turn, so a slow phase of the machine hits them all
        timed = []

        def counted(field, *args, **kwargs):
            timed.append(field.n)
            return cluster(field, *args, **kwargs)

        cluster = cli.cluster
        monkeypatch.setattr(cli, "cluster", counted)
        result = runner.invoke(main, ["bench", "--sizes", "1000,2000", "--algo", "zqs",
                                      "--d", "0.1", "--repeats", "2"])
        assert result.exit_code == 0, result.output
        small, large = (int(line.split()[1]) for line in result.output.splitlines()[2:])
        assert timed == [small, large] * 3

    def test_sizes_must_be_integers(self, runner):
        result = runner.invoke(main, ["bench", "--sizes", "1000,abc", "--algo", "zqs",
                                      "--d", "0.1"])
        assert result.exit_code == 2
        assert "--sizes expects integers" in result.output

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


@pytest.mark.parametrize("args", [
    ["cluster", "{field}", "{out}", "--algo", "zqs", "--d", "0.2"],
    ["eval", "{field}", "{field}", "--sweep-d", "0.1:0.1:0.1", "--algo", "zqs"],
    ["bench", "--sizes", "2000", "--algo", "zqs", "--d", "0.1", "--repeats", "1"],
])
@pytest.mark.parametrize("threads", [str(spatial._MAX_WORKERS + 1), "100000"])
def test_threads_above_the_bound_usage_error(small_field, tmp_path, runner, monkeypatch,
                                             args, threads):
    # refused before a cloud is read or made, so no thread starts
    def unreachable(*args, **kwargs):
        raise AssertionError("a cloud was read or made")

    monkeypatch.setattr(cli, "load_ply", unreachable)
    monkeypatch.setattr(cli, "generate_field", unreachable)
    args = [a.format(field=small_field, out=tmp_path / "o.ply") for a in args]
    result = runner.invoke(main, args + ["--threads", threads])
    assert result.exit_code == 2
    assert "--threads" in result.output


def test_version(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0, result.output
    assert result.output == f"fieldcluster, version {fieldcluster.__version__}\n"


def test_public_names_are_pinned():
    # a new public name needs an edit here
    assert sorted(fieldcluster.__all__) == [
        "ContractError", "CoreSet", "CountReport", "DataError", "DensityField",
        "FieldClusterError", "FieldSpec", "MatchReport", "ParameterError", "Params",
        "ParentForest", "PlyError", "PointCloud", "SpatialIndex", "__version__",
        "cluster", "cluster_over_d", "count_report", "extract_cores", "forest_to_labels",
        "gdqs_parents", "gdqspp_assign", "generate_field", "knn_density_2d", "load_ply",
        "match_clusters", "parse_field_spec", "rain_parents", "save_ply", "zqs_parents",
    ]


def test_threads_are_set_where_a_run_starts():
    # the step functions run on the index they are given, whose thread count
    # was set when it was built
    takes_workers = sorted(
        name for name in fieldcluster.__all__
        if callable(obj := getattr(fieldcluster, name))
        # the exception classes have no signature
        and not (isinstance(obj, type) and issubclass(obj, Exception))
        and "workers" in inspect.signature(obj).parameters)
    assert takes_workers == ["SpatialIndex", "cluster", "cluster_over_d", "knn_density_2d"]
    # the index's public queries are the four that the algorithms ask
    assert sorted(name for name in vars(fieldcluster.SpatialIndex)
                  if not name.startswith("_")) == [
        "argmin_rank_in_ball", "directed_radius_lists", "knn_window", "nearest_below_rank"]


def _scipy_loaded_after(code: str) -> str:
    """Whether scipy.optimize and scipy.spatial are imported after a fresh
    interpreter runs code, as the last line it prints."""
    src = str(Path(fieldcluster.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code += ("\nimport sys\n"
             "print([m in sys.modules for m in ('scipy.optimize', 'scipy.spatial')])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return out.splitlines()[-1]


def test_startup_does_not_import_scipy_optimize():
    # only a built index needs scipy.spatial; a command without one would pay
    # its import
    assert _scipy_loaded_after("import fieldcluster.cli") == "[False, False]"


@pytest.mark.parametrize("sweep, loaded", [
    ([], "[False, False]"),
    # the sweep clusters, so it builds an index; its matching still needs no scipy
    (["--sweep-d", "0.1:0.2:0.05", "--algo", "zqs"], "[False, True]"),
], ids=["match", "sweep"])
def test_eval_does_not_import_scipy_optimize(small_field, sweep, loaded):
    args = ["eval", str(small_field), str(small_field), *sweep]
    code = ("from fieldcluster.cli import main\n"
            f"main({args!r}, standalone_mode=False)")
    assert _scipy_loaded_after(code) == loaded
