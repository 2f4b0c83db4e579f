"""End-to-end benchmark of the fieldcluster CLI on three reference-field workloads.

    python3 perfbench/run.py --workload ref-gdqspp --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --smoke      # 2x2-plant field, a few seconds

Run from the repository root; the package is used from ``src/`` (no install).
The input is ``FieldSpec(seed=SEED)`` written as binary PLY. Every command of a
workload runs as ``python -m fieldcluster.cli`` in a fresh child process, one
at a time (closed loop, one client), with ``--threads`` equal to the CPUs this
process may use. Iterations repeat while another one still fits in
``--seconds``; there is always at least one.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` it runs one untraced and one traced iteration, then a
memory pass of the commands that reach a tracemalloc span, and reports the
per-layer metrics; traced commands run under perfbench/tracer.py.

Every command's output is checked: its labels (or the deterministic part of
its JSON report) are hashed and compared with perfbench/pins.json for pinned
seeds, and across all iterations of the run otherwise. A nonzero exit or a
digest mismatch is a failed operation. The last line of stdout is the result
object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import MEMORY_SPANS, layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 7
DEADLINE_S = 170.0  # every run must end within 180 s
REFERENCE_K = 500

SETUP_CODE = ("import sys, fieldcluster.cli\n"
              "from fieldcluster.pointcloud import load_ply\n"
              "load_ply(sys.argv[1])\n")

WORKLOADS = ("ref-gdqspp", "height-rain-zqs", "sweep-gdqs")


@dataclass
class Command:
    """One CLI invocation and how to check what it wrote.

    ``check`` is "labels" (hash the labels of the output PLY), "match" (hash
    the eval report's match and counts) or "selected" (hash the sweep's
    selected run).
    """

    name: str
    args: list[str]
    output: Path
    check: str
    clusters: int  # clustering calls the command makes


def workload_commands(workload: str, inp: Path, out: Path, k: int, threads: int) -> list[Command]:
    t = ["--threads", str(threads)]
    if workload == "ref-gdqspp":
        pred, report = out / "gdqspp.ply", out / "eval.json"
        return [
            Command("cluster-gdqspp", ["cluster", str(inp), str(pred), "--algo", "gdqspp",
                                       "--k", str(k), "--beta", "0.3", *t], pred, "labels", 1),
            Command("eval", ["eval", str(pred), str(inp), "--report", str(report)],
                    report, "match", 0),
        ]
    if workload == "height-rain-zqs":
        return [
            Command(f"cluster-{algo}", ["cluster", str(inp), str(out / f"{algo}.ply"),
                                        "--algo", algo, "--d", "0.22", *t],
                    out / f"{algo}.ply", "labels", 1)
            for algo in ("rain", "zqs")
        ]
    if workload == "sweep-gdqs":
        report = out / "sweep.json"
        return [Command("eval-sweep", ["eval", str(inp), str(inp), "--sweep-d", "0.12:0.24:0.06",
                                       "--algo", "gdqs", "--k", str(k), "--report", str(report),
                                       *t], report, "selected", 3)]
    raise ValueError(f"unknown workload {workload!r}")


def machine(threads: int, seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    mem = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {"nproc": len(os.sched_getaffinity(0)), "mem_total_gb": round(mem / 2**30, 2),
            "cpu": cpu, "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "threads": threads, "seed": seed}


class Runner:
    """Spawns children one at a time and keeps the run's operation counts."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))

    def spawn(self, argv: list[str], log_name: str) -> tuple[float, int, float]:
        """Run one child to completion: (wall seconds, exit code, max RSS in MB).

        The child is killed at the run's deadline, which counts as a failure.
        """
        with open(self.workdir / log_name, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT)
            killer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss * 1024 / 1e6

    def operation(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)

    def expired(self, reserve: float = 0.0) -> bool:
        return time.monotonic() + reserve >= self.deadline


def digest_and_iou(cmd: Command, truth_labels) -> tuple[str, float | None]:
    """The command's output digest and the mean IoU it shows against truth.

    Raises OSError, ValueError (PlyError, bad JSON), KeyError or TypeError
    when the output is missing or malformed.
    """
    from fieldcluster.evaluation import match_clusters
    from fieldcluster.pointcloud import load_ply
    import numpy as np

    if cmd.check == "labels":
        labels = np.ascontiguousarray(load_ply(cmd.output).labels, dtype="<i8")
        return (hashlib.sha256(labels.tobytes()).hexdigest(),
                match_clusters(labels, truth_labels).mean_iou)
    doc = json.loads(cmd.output.read_text())
    if cmd.check == "match":
        part = {"match": doc["match"], "counts": doc["counts"]}
        iou = doc["match"]["mean_iou"]
    else:
        part = doc["selected"]
        iou = part["mean_iou"] if part else None
    return hashlib.sha256(json.dumps(part, sort_keys=True).encode()).hexdigest(), iou


def run_iteration(runner: Runner, cmds: list[Command], tag: str, truth_labels,
                  expected: dict[str, str], tracer_flags: list[str] | None = None) -> dict | None:
    """Run the workload's commands once; None when the run ran out of time.

    With ``tracer_flags`` (a list, possibly empty) each command runs under
    tracer.py with those flags, and ``docs`` maps command names to its output.
    """
    wall, rss, ious, docs = 0.0, 0.0, [], {}
    for cmd in cmds:
        if runner.expired():
            return None
        spans = runner.workdir / f"{tag}-{cmd.name}.spans.json"
        for stale in (cmd.output, spans):
            stale.unlink(missing_ok=True)
        if tracer_flags is None:
            argv = ["-m", "fieldcluster.cli", *cmd.args]
        else:
            argv = [str(BENCH_DIR / "tracer.py"), *tracer_flags, str(spans), "--", *cmd.args]
        seconds, code, peak = runner.spawn(argv, f"{tag}-{cmd.name}.log")
        wall += seconds
        rss = max(rss, peak)
        if code != 0:
            log = (runner.workdir / f"{tag}-{cmd.name}.log").read_text(errors="replace")
            runner.operation(False, f"{cmd.name} exited with {code}; its output ends:\n{log[-2000:]}")
            continue
        try:
            digest, iou = digest_and_iou(cmd, truth_labels)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            runner.operation(False, f"{cmd.name} output unreadable: {exc!r}")
            continue
        want = expected.setdefault(cmd.name, digest)
        runner.operation(digest == want, f"{cmd.name} output digest {digest} != {want}")
        print(f"  {tag} {cmd.name}: {seconds:.3f} s, {peak:.1f} MB, sha256 {digest}")
        if iou is not None:
            ious.append(iou)
        if tracer_flags is not None:
            docs[cmd.name] = json.loads(spans.read_text())
    return {"wall": wall, "rss": rss, "iou": statistics.fmean(ious) if ious else None,
            "docs": docs}


def end_to_end_metrics(runner: Runner, cmds: list[Command], inp: Path, field,
                       expected: dict, seconds: float) -> tuple[dict, dict]:
    """Set-up probes, then untraced iterations; medians and their sample counts."""
    setup = []
    for i in range(SETUP_PROBES):
        wall, code, _ = runner.spawn(["-c", SETUP_CODE, str(inp)], f"setup-{i}.log")
        runner.operation(code == 0, f"setup probe exited with {code}")
        setup.append(wall)
    iters: list[dict] = []
    measure_start = time.perf_counter()
    while True:
        it = run_iteration(runner, cmds, f"iter{len(iters)}", field.labels, expected)
        if it is None:
            break
        iters.append(it)
        used = time.perf_counter() - measure_start
        typical = statistics.median(x["wall"] for x in iters)
        if used + typical > seconds or runner.expired(reserve=1.5 * typical):
            break
    if not iters:
        raise RuntimeError("no iteration finished before the deadline")
    calls = sum(c.clusters for c in cmds)
    ious = [x["iou"] for x in iters if x["iou"] is not None]
    found = {
        "wall_s": statistics.median(x["wall"] for x in iters),
        "points_per_s": statistics.median(field.n * calls / x["wall"] for x in iters),
        "peak_rss_mb": statistics.median(x["rss"] for x in iters),
        "setup_s": statistics.median(setup),
        "mean_iou": statistics.median(ious) if ious else 0.0,
    }
    counts = {name: len(iters) for name in found}
    counts.update(setup_s=len(setup), mean_iou=len(ious))
    return found, counts


def trace_metrics(runner: Runner, cmds: list[Command], truth_labels, expected: dict) -> dict:
    """One untraced and one traced iteration, then a memory pass.

    The memory pass re-runs only the commands that reach a memory span,
    because tracemalloc slows the spans it watches.
    """
    base = run_iteration(runner, cmds, "untraced", truth_labels, expected)
    traced = base and run_iteration(runner, cmds, "traced", truth_labels, expected, [])
    if not traced:
        raise RuntimeError("trace run did not finish before its deadline")
    found = layer_metrics(traced["docs"].values())
    mem_cmds = [c for c in cmds if c.name in traced["docs"] and any(
        span["name"] in MEMORY_SPANS for span in traced["docs"][c.name]["spans"])]
    memory = mem_cmds and run_iteration(runner, mem_cmds, "memory", truth_labels, expected,
                                        ["--memory"])
    if memory:
        found.update((key, val) for key, val in layer_metrics(memory["docs"].values()).items()
                     if key.endswith(".peak_traced_mb"))
    found["trace.overhead_s"] = traced["wall"] - base["wall"]
    missing = sorted({m for doc in traced["docs"].values() for m in doc["missing"]})
    found["trace.missing"] = len(missing)
    if missing:
        print("missing: " + ", ".join(missing))
    return found


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
                 pins: dict | None = None) -> dict:
    """One benchmark run; returns the result object (last stdout line)."""
    from fieldcluster.pointcloud import save_ply
    from fieldcluster.synth import FieldSpec, generate_field

    spec_name = "smoke" if smoke else "reference"
    if pins is None:
        pins = json.loads((BENCH_DIR / "pins.json").read_text())
    expected = dict(pins.get(spec_name, {}).get(str(seed), {}).get(workload, {}))
    threads = len(os.sched_getaffinity(0))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        runner = Runner(workdir, time.monotonic() + DEADLINE_S)
        start = time.perf_counter()
        spec = FieldSpec(rows=2, cols=2, seed=seed) if smoke else FieldSpec(seed=seed)
        field = generate_field(spec)
        generate_s = time.perf_counter() - start
        inp = workdir / "field.ply"
        save_ply(field, field.labels, inp, binary=True)
        k = min(REFERENCE_K, field.n - 1)
        cmds = workload_commands(workload, inp, workdir, k, threads)
        print(f"workload {workload} ({spec_name} field, seed {seed}): {field.n} points, "
              f"{len(cmds)} commands, --threads {threads}")
        print("machine " + json.dumps(machine(threads, seed)))

        if trace:
            found = trace_metrics(runner, cmds, field.labels, expected)
            found["synth.generate_field.s"] = generate_s
            metrics = select_metrics("per_layer", found, {})
        else:
            found, counts = end_to_end_metrics(runner, cmds, inp, field, expected, seconds)
            metrics = select_metrics("end_to_end", found, counts)
        return {"correct": runner.failed == 0, "attempted": runner.attempted,
                "failed": runner.failed, "metrics": metrics}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass


def select_metrics(section: str, found: dict, counts: dict) -> dict:
    """Every metric BENCHMARK.json names in ``section``, with its unit.

    A per-layer metric of a function the workload never calls reads 0.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    out = {}
    for m in spec:
        value = found.get(m["name"], 0)
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        samples = counts.get(m["name"], 1)
        shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
        print(f"  {m['name']:<40} {shown} {m['unit']:<6} (samples: {samples})")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="2x2-plant field with k capped at n-1, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "fieldcluster" / "cli.py").is_file():
        print(f"error: {SRC / 'fieldcluster'} not found; run from a fieldcluster checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for workload in (WORKLOADS if args.workload == "all" else (args.workload,)):
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace), args.smoke)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
