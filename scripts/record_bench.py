"""Record the benchmark of the current commit as BENCH_<pr>.json.

    python3 scripts/record_bench.py 8

Runs ``python3 perfbench/run.py --workload all`` with ``--trace 0`` (the
end-to-end metrics) and then with ``--trace 1`` (the per-layer metrics), and
writes BENCH_<pr>.json at the repository root: the git commit, perfbench's
``machine`` object and each workload's result object for both traces. Later
performance changes compare against these files. Nothing is written, and the
exit status is 1, if perfbench fails or any result is not correct.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_perfbench(trace: int) -> tuple[dict, dict]:
    """(machine, {workload: result}) from one perfbench run over all workloads."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "all",
                           "--trace", str(trace)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    sys.stdout.write(proc.stdout)
    if proc.returncode:
        raise SystemExit(f"error: perfbench --trace {trace} exited with {proc.returncode}")
    machine, results, workload = None, {}, None
    for line in proc.stdout.splitlines():
        if line.startswith("workload "):
            workload = line.split()[1]
        elif line.startswith("machine "):
            machine = json.loads(line[len("machine "):])
        elif line.startswith("{"):
            results[workload] = json.loads(line)
    return machine, results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("pr", type=int, help="number in the output file name")
    args = parser.parse_args(argv)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                            stdout=subprocess.PIPE, text=True).stdout.strip()
    machine, trace0 = run_perfbench(0)
    _, trace1 = run_perfbench(1)
    bad = [f"trace {t} {w}" for t, results in ((0, trace0), (1, trace1))
           for w, r in results.items() if not r["correct"]]
    if bad or not trace0 or trace0.keys() != trace1.keys():
        print("error: not recorded; incorrect or missing results: " + ", ".join(bad),
              file=sys.stderr)
        return 1
    doc = {"pr": args.pr, "commit": commit, "machine": machine,
           "trace0": trace0, "trace1": trace1}
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
