"""scripts/record_bench.py with perfbench stubbed out: what it writes, and when
it refuses to write."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "record_bench.py"
MACHINE = {"nproc": 2, "cpu": "stub"}
WORKLOADS = ("ref-gdqspp", "height-rain-zqs", "sweep-gdqs")


def result(correct=True):
    return {"correct": correct, "attempted": 3, "failed": 0 if correct else 1,
            "metrics": {"wall_s": 1.0}}


@pytest.fixture
def script(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("record_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "ROOT", tmp_path)
    subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True)
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
                    "commit", "-q", "--allow-empty", "-m", "init"], cwd=tmp_path, check=True)
    return module


def stub(monkeypatch, script, by_trace):
    traces = []

    def run_perfbench(trace):
        traces.append(trace)
        return MACHINE, by_trace[trace]

    monkeypatch.setattr(script, "run_perfbench", run_perfbench)
    return traces


def test_writes_both_traces(script, monkeypatch, tmp_path):
    results = {w: result() for w in WORKLOADS}
    traces = stub(monkeypatch, script, {0: results, 1: results})
    assert script.main(["9"]) == 0
    assert traces == [0, 1]
    doc = json.loads((tmp_path / "BENCH_9.json").read_text())
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tmp_path, check=True,
                          capture_output=True, text=True).stdout.strip()
    assert doc == {"pr": 9, "commit": head, "machine": MACHINE,
                   "trace0": results, "trace1": results}


@pytest.mark.parametrize("trace", [0, 1])
def test_incorrect_result_writes_nothing(script, monkeypatch, tmp_path, trace):
    by_trace = {t: {w: result() for w in WORKLOADS} for t in (0, 1)}
    by_trace[trace]["sweep-gdqs"] = result(correct=False)
    stub(monkeypatch, script, by_trace)
    assert script.main(["9"]) == 1
    assert list(tmp_path.glob("BENCH_*")) == []


def test_workload_mismatch_writes_nothing(script, monkeypatch, tmp_path):
    stub(monkeypatch, script, {0: {w: result() for w in WORKLOADS},
                               1: {w: result() for w in WORKLOADS[:2]}})
    assert script.main(["9"]) == 1
    assert list(tmp_path.glob("BENCH_*")) == []
