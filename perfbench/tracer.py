"""Per-layer tracing of one fieldcluster CLI command, run in its own process.

    python3 perfbench/tracer.py [--memory] SPANS_JSON -- <fieldcluster cli arguments>

Imports ``fieldcluster.cli`` (timed), replaces each traced public function by
a wrapper that records a span (name, start, end, parent) and a few
deterministic counters, runs the command in-process through
``fieldcluster.cli.main`` and writes the spans and counters to SPANS_JSON.
Nothing in the program changes: wrappers are installed on the defining module
and on every ``fieldcluster`` module that imported the name.

A traced name the program no longer has is reported under ``missing`` and
skipped. With ``--memory``, ``tracemalloc`` also runs inside the spans listed
in MEMORY_SPANS and records their peak allocation. It roughly doubles the time
of the Python-heavy core sweep, so timings come from a run without it. It sees
numpy buffers but not cKDTree's internal allocations, so the
``*.peak_traced_mb`` figures understate real memory.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import tracemalloc


def _directed_edges(bound, result):
    offsets = result[0]
    return {"spatial.directed_edges": int(offsets[-1])}


def _members(bound, result):
    subset = bound.arguments.get("subset")
    return {"spatial.nearest_below_rank.members":
            bound.arguments["self"].n if subset is None else len(subset)}


def _cores(bound, result):
    return {"cluster.cores": len(result.cores),
            "cluster.core_points": sum(len(c) for c in result.cores)}


def _noncore(bound, result):
    cores = bound.arguments["cores"]
    return {"cluster.noncore_points": cores.n - sum(len(c) for c in cores.cores)}


def _clusters(bound, result):
    return {"cluster.clusters": int(result.max()) if result.size else 0}


# span name, defining module, attribute path, counter extractor or None
TARGETS = [
    ("pointcloud.load_ply", "fieldcluster.pointcloud", "load_ply", None),
    ("pointcloud.save_ply", "fieldcluster.pointcloud", "save_ply", None),
    ("spatial.index_build", "fieldcluster.spatial", "SpatialIndex.__init__", None),
    ("spatial.knn_window", "fieldcluster.spatial", "SpatialIndex.knn_window", None),
    ("spatial.directed_radius_lists", "fieldcluster.spatial",
     "SpatialIndex.directed_radius_lists", _directed_edges),
    ("spatial.argmin_rank_in_ball", "fieldcluster.spatial",
     "SpatialIndex.argmin_rank_in_ball", None),
    ("spatial.nearest_below_rank", "fieldcluster.spatial",
     "SpatialIndex.nearest_below_rank", _members),
    ("cluster.cluster", "fieldcluster.cluster", "cluster", _clusters),
    ("cluster.knn_density_2d", "fieldcluster.cluster", "knn_density_2d", None),
    ("cluster.extract_cores", "fieldcluster.cluster", "extract_cores", _cores),
    ("cluster.gdqspp_assign", "fieldcluster.cluster", "gdqspp_assign", _noncore),
    ("cluster.rain_parents", "fieldcluster.cluster", "rain_parents", None),
    ("cluster.zqs_parents", "fieldcluster.cluster", "zqs_parents", None),
    ("cluster.gdqs_parents", "fieldcluster.cluster", "gdqs_parents", None),
    ("cluster.forest_to_labels", "fieldcluster.cluster", "forest_to_labels", None),
    ("evaluation.match_clusters", "fieldcluster.evaluation", "match_clusters", None),
    ("evaluation.count_report", "fieldcluster.evaluation", "count_report", None),
]

# spans that also record their peak tracemalloc allocation; they never nest
MEMORY_SPANS = {"cluster.knn_density_2d", "cluster.extract_cores"}


class Tracer:
    """In-memory span and counter store; written out once at the end."""

    def __init__(self, memory: bool = False) -> None:
        self.memory = memory
        self.spans: list[dict] = []
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []

    def span(self, name: str, fn, *args, **kwargs):
        sid = len(self.spans)
        rec = {"name": name, "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(sid)
        traced = self.memory and name in MEMORY_SPANS
        if traced:
            tracemalloc.start()
        rec["start"] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec["end"] = time.perf_counter()
            if traced:
                rec["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self._stack.pop()

    def count(self, values: dict) -> None:
        for key, val in values.items():
            self.counters[key] = self.counters.get(key, 0) + val

    def wrap(self, name: str, fn, counter):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if counter is not None:
                try:
                    self.count(counter(sig.bind(*args, **kwargs), result))
                except (AttributeError, KeyError, IndexError, TypeError):
                    if name not in self.missing:
                        self.missing.append(name)
            return result

        return wrapper

    def install(self, targets=TARGETS) -> None:
        """Wrap every target the program has; record the others as missing."""
        loaded = [m for key, m in sys.modules.items()
                  if key == "fieldcluster" or key.startswith("fieldcluster.")]
        for name, module_name, attr_path, counter in targets:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = attr_path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, original, counter)
            setattr(owner, attr, wrapper)
            if not outer:
                for module in loaded:
                    for key, val in list(vars(module).items()):
                        if val is original:
                            setattr(module, key, wrapper)


def main(argv: list[str]) -> int:
    memory = argv[:1] == ["--memory"]
    if memory:
        argv = argv[1:]
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py [--memory] SPANS_JSON -- <cli arguments>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    start = time.perf_counter()
    cli = importlib.import_module("fieldcluster.cli")
    import_s = time.perf_counter() - start
    tracer = Tracer(memory)
    tracer.install()
    exit_code = 0
    try:
        tracer.span("cli", cli.main, args=cli_args, standalone_mode=False)
    except SystemExit as exc:
        exit_code = exc.code if isinstance(exc.code, int) else 1
    with open(out_path, "w") as fh:
        json.dump({"import_s": import_s, "exit_code": exit_code, "spans": tracer.spans,
                   "counters": tracer.counters, "missing": tracer.missing}, fh)
    return exit_code


def layer_metrics(docs) -> dict[str, float]:
    """Totals over the traced commands of one iteration: inclusive time
    (``.s``), self time (``.self_s``), calls, peak traced MB, and counters."""
    out: dict[str, float] = {}

    def add(key, val):
        out[key] = out.get(key, 0) + val

    for doc in docs:
        add("cli.import_s", doc["import_s"])
        spans = doc["spans"]
        child_time = [0.0] * len(spans)
        for rec in spans:
            if rec["parent"] is not None:
                child_time[rec["parent"]] += rec["end"] - rec["start"]
        for rec, inner in zip(spans, child_time):
            name, dur = rec["name"], rec["end"] - rec["start"]
            if name == "cli":
                add("cli.self_s", dur - inner)
                continue
            add(f"{name}.s", dur)
            add(f"{name}.self_s", dur - inner)
            add(f"{name}.calls", 1)
            if "peak_bytes" in rec:
                key = f"{name}.peak_traced_mb"
                out[key] = max(out.get(key, 0.0), rec["peak_bytes"] / 1e6)
        for key, val in doc["counters"].items():
            add(key, val)
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
