"""Tests of the benchmark itself, on the 2x2-plant smoke field.

    python3 -m pytest perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _results(trace: int) -> list[dict]:
    out = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--smoke", "--workload", "all",
         "--seed", "42", "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300, check=True)
    lines = out.stdout.strip().splitlines()
    assert lines[-1].startswith("{")
    return [json.loads(line) for line in lines if line.startswith("{")]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_unit(trace, section):
    results = _results(trace)
    assert len(results) == len(run.WORKLOADS)
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    for res in results:
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
        if trace:
            assert res["metrics"]["trace.missing"]["value"] == 0
        else:
            assert all(v["value"] > 0 for v in res["metrics"].values())


def test_corrupted_pin_is_a_failed_operation(monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))
    pins = json.loads((run.BENCH_DIR / "pins.json").read_text())
    pins["smoke"]["42"]["height-rain-zqs"]["cluster-zqs"] = "0" * 64
    res = run.run_workload("height-rain-zqs", 42, 1.0, False, smoke=True, pins=pins)
    assert not res["correct"]
    assert res["failed"] >= 1 and res["attempted"] > res["failed"]


def test_missing_trace_targets_are_reported_not_fatal():
    t = tracer.Tracer()
    t.install([("gone.function", "fieldcluster.spatial", "no_such_function", None),
               ("gone.method", "fieldcluster.spatial", "SpatialIndex.no_such_method", None),
               ("gone.module", "fieldcluster.no_such_module", "f", None)])
    assert t.missing == ["gone.function", "gone.method", "gone.module"]


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "tracer.py", "pins.json"):
        (bench / name).write_bytes((run.BENCH_DIR / name).read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    out = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "ref-gdqspp",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
