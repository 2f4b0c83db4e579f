"""Command-line entry point: cluster, eval, synth, and bench subcommands.

Data and JSON reports go to stdout or files; diagnostics go to stderr. The
exit status is 0 iff no error was reported. ``--threads`` sets the threads
of every kD-tree index the command builds, and never changes any output
byte. ``eval --sweep-d`` answers every d of a zqs or gdqs sweep from one
nearest-below-rank query, at the largest d.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import click

from . import __version__
from .cluster import _ALGO_PARAMS, Params, cluster, cluster_over_d
from .errors import DataError, FieldClusterError, ParameterError
from .evaluation import count_report, match_clusters
from .pointcloud import PointCloud, load_ply, save_ply
from .spatial import _MAX_WORKERS
from .synth import _FIELD_TYPES, FieldSpec, generate_field, parse_field_spec

_DEFAULT_K = 1200
_DEFAULT_BETA = 0.3
# one clustering per value: a sweep longer than this is a typo in the step
_MAX_SWEEP_VALUES = 1000


def _build_params(algo: str, d: float | None, k: int | None, beta: float | None) -> Params:
    """Fill in defaults only for parameters the algorithm accepts; an invalid
    combination is a usage error."""
    if "k" in _ALGO_PARAMS[algo] and k is None:
        k = _DEFAULT_K
    if "beta" in _ALGO_PARAMS[algo] and beta is None:
        beta = _DEFAULT_BETA
    try:
        return Params(algorithm=algo, d=d, k=k, beta=beta)
    except ParameterError as exc:
        raise click.UsageError(str(exc)) from None


# an absent --threads becomes -1, one thread per CPU
_threads_option = click.option(
    "--threads", type=click.IntRange(min=1, max=_MAX_WORKERS),
    callback=lambda ctx, param, value: value or -1,
    help="threads of every kD-tree index the command builds; outputs do not "
         "depend on it [default: one per CPU]")


def _report_head(command: str, params: Params) -> dict:
    """The fields that open the run report of ``cluster`` and ``bench``."""
    return {"schema": 1, "command": command, "algorithm": params.algorithm,
            "params": {"d": params.d, "k": params.k, "beta": params.beta}}


def _write_report(doc: dict, path: str | None) -> None:
    if path:
        Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def _fail(exc: Exception) -> None:
    click.echo(f"error: {exc}", err=True)
    sys.exit(1)


@click.group()
@click.version_option(version=__version__, prog_name="fieldcluster")
def main() -> None:
    """Partition crop-field point clouds into per-plant clusters."""


@main.command("cluster")
@click.argument("input_ply", type=click.Path(exists=True, dir_okay=False))
@click.argument("output_ply", type=click.Path(dir_okay=False))
@click.option("--algo", required=True, type=click.Choice(list(_ALGO_PARAMS)))
@click.option("--d", type=float, default=None, help="neighborhood distance (native units)")
@click.option("--k", type=int, default=None, help=f"density kernel size [default: {_DEFAULT_K}]")
@click.option("--beta", type=float, default=None,
              help=f"core density fraction in [0,1] [default: {_DEFAULT_BETA}]")
@click.option("--binary/--ascii", "binary", default=False, help="output PLY encoding")
@_threads_option
@click.option("--report", "report_path", type=click.Path(), default=None,
              help="write a JSON run report")
def cmd_cluster(input_ply, output_ply, algo, d, k, beta, binary, threads, report_path):
    """Cluster INPUT_PLY and write the labeled cloud to OUTPUT_PLY."""
    params = _build_params(algo, d, k, beta)
    try:
        cloud = load_ply(input_ply)
        start = time.perf_counter()
        labels = cluster(cloud, params, workers=threads)
        elapsed = time.perf_counter() - start
        save_ply(cloud, labels, output_ply, binary=binary)
    except FieldClusterError as exc:
        _fail(exc)
    n_clusters = int(labels.max()) if labels.size else 0
    click.echo(f"clusters: {n_clusters}  points: {cloud.n}  time: {elapsed:.3f}s")
    _write_report({**_report_head("cluster", params), "points": cloud.n,
                   "clusters": n_clusters}, report_path)


def _require_labels(path: str, color_mode: str) -> PointCloud:
    cloud = load_ply(path, color_mode=color_mode)
    if cloud.labels is None:
        raise DataError(f"{path}: point cloud carries no labels")
    return cloud


def _truth_for(pred: PointCloud, truth_ply: str, truth_mode: str) -> PointCloud:
    """The labeled truth cloud, which must have as many points as ``pred``."""
    truth = _require_labels(truth_ply, truth_mode)
    if pred.n != truth.n:
        raise DataError(f"clouds disagree on point count: {pred.n} vs {truth.n}")
    return truth


def _parse_sweep(text: str) -> list[float]:
    """The d values start, start + step, ... up to stop, summed exactly from
    their decimal strings and rounded to float once, so 0.05:0.15:0.05 ends at
    0.15 and not at 0.15000000000000002."""
    parts = text.split(":")
    try:
        start, stop, step = (float(x) for x in parts)
    except ValueError:
        raise click.UsageError(f"--sweep-d expects start:stop:step, got {text!r}") from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise click.UsageError(f"--sweep-d bounds and step must be finite: {text!r}")
    start, stop, step = (Fraction(x) for x in parts)
    if step <= 0 or stop < start:
        raise click.UsageError(f"--sweep-d range is empty: {text!r}")
    count = (stop - start) // step + 1
    if count > _MAX_SWEEP_VALUES:
        raise click.UsageError(f"--sweep-d {text!r} gives {count} values; "
                               f"at most {_MAX_SWEEP_VALUES} are allowed")
    return [float(start + i * step) for i in range(count)]


@main.command("eval")
@click.argument("pred_ply", type=click.Path(exists=True, dir_okay=False))
@click.argument("truth_ply", type=click.Path(exists=True, dir_okay=False))
@click.option("--ignore-ground/--include-ground", default=True,
              help="exclude truth label 0 from the matching [default: ignore]")
@click.option("--distinct-colors", is_flag=True,
              help="read truth labels as one label per unique color")
@click.option("--report", "report_path", type=click.Path(), default=None)
@click.option("--sweep-d", default=None,
              help="start:stop:step: treat PRED_PLY as an unlabeled input, cluster it "
                   "at each d (building its density or index once), and report the best "
                   "run with a cluster count within 20% of the truth count")
@click.option("--algo", type=click.Choice([a for a, p in _ALGO_PARAMS.items() if "d" in p]),
              default=None, help="algorithm for --sweep-d runs")
@click.option("--k", type=int, default=None, help="density kernel size for --sweep-d runs")
@_threads_option
def cmd_eval(pred_ply, truth_ply, ignore_ground, distinct_colors, report_path,
             sweep_d, algo, k, threads):
    """Match PRED_PLY clusters against TRUTH_PLY and print a JSON report."""
    truth_mode = "distinct" if distinct_colors else "palette"
    if sweep_d is None:
        if algo is not None or k is not None:
            raise click.UsageError("--algo and --k apply only with --sweep-d")
    else:
        if algo is None:
            raise click.UsageError("--sweep-d requires --algo")
        values = _parse_sweep(sweep_d)
        # every d of the sweep is valid iff the first, the smallest, is
        k = _build_params(algo, values[0], k, None).k
    try:
        if sweep_d is None:
            pred = _require_labels(pred_ply, "palette")
            truth = _truth_for(pred, truth_ply, truth_mode)
            match = match_clusters(pred.labels, truth.labels,
                                   ignore_truth_label_zero=ignore_ground)
            counts = count_report(pred.labels, truth.labels)
            doc = {"schema": 1, "command": "eval",
                   "match": match.to_dict(), "counts": counts.to_dict()}
        else:
            doc = _run_sweep(pred_ply, truth_ply, truth_mode, ignore_ground,
                             values, algo, k, threads)
    except FieldClusterError as exc:
        _fail(exc)
    text = json.dumps(doc, indent=2)
    click.echo(text)
    _write_report(doc, report_path)


def _run_sweep(input_ply, truth_ply, truth_mode, ignore_ground, values,
               algo, k, threads) -> dict:
    """The 20%-count selection protocol: keep the best mean IoU among runs whose
    cluster count is within 20% of the truth cluster count."""
    input_cloud = load_ply(input_ply)
    truth = _truth_for(input_cloud, truth_ply, truth_mode)
    runs = []
    for d, labels in zip(values, cluster_over_d(input_cloud, algo, values, k, threads)):
        match = match_clusters(labels, truth.labels, ignore_truth_label_zero=ignore_ground)
        runs.append({
            "d": d,
            "clusters": match.num_predicted,
            "mean_iou": match.mean_iou,
            "median_iou": match.median_iou,
            "within_20pct": abs(match.num_predicted - match.num_truth) <= 0.2 * match.num_truth,
        })
    eligible = [r for r in runs if r["within_20pct"]]
    selected = max(eligible, key=lambda r: r["mean_iou"]) if eligible else None
    # values holds at least one d, so the loop has bound match
    return {"schema": 1, "command": "eval-sweep", "algorithm": algo,
            "truth_clusters": match.num_truth, "runs": runs, "selected": selected}


def _field_spec_options(fn):
    """One flag per FieldSpec field, typed like its default; an absent flag
    leaves the config file's value, or the default, in place."""
    for name, type_ in reversed(_FIELD_TYPES.items()):
        fn = click.option("--" + name.replace("_", "-"), type=type_, default=None,
                          help=f"[default: {getattr(FieldSpec, name)}]")(fn)
    return fn


@main.command("synth")
@click.argument("output_ply", type=click.Path(dir_okay=False))
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="flat key-value FieldSpec file")
@_field_spec_options
@click.option("--binary/--ascii", "binary", default=False)
def cmd_synth(output_ply, config_path, binary, **flags):
    """Generate a labeled synthetic field and write it to OUTPUT_PLY."""
    try:
        spec = parse_field_spec(Path(config_path).read_text()) if config_path else FieldSpec()
        overrides = {key: val for key, val in flags.items() if val is not None}
        if overrides:
            spec = FieldSpec(**{**spec.__dict__, **overrides})
    except ParameterError as exc:
        raise click.UsageError(str(exc)) from None
    try:
        field = generate_field(spec)
        save_ply(field, field.labels, output_ply, binary=binary)
    except FieldClusterError as exc:
        _fail(exc)
    n_plants = int(field.labels.max()) if field.n else 0
    click.echo(f"plants: {n_plants}  points: {field.n}")


def _bench_spec(n: int, seed: int) -> FieldSpec:
    """Square-ish field sized to roughly n points (1000-point plants)."""
    plant_count = max(1, round(n / 1000))
    rows = max(1, round(math.sqrt(plant_count)))
    cols = max(1, round(plant_count / rows))
    ppp = max(1, round(n / (rows * cols)))
    return FieldSpec(rows=rows, cols=cols, points_per_plant=ppp,
                     double_plant_prob=0.0, seed=seed)


@main.command("bench")
@click.option("--sizes", default="50000,100000,200000,400000",
              help="comma-separated ascending positive point counts")
@click.option("--algo", required=True, type=click.Choice(list(_ALGO_PARAMS)))
@click.option("--d", type=float, default=None)
@click.option("--k", type=int, default=None)
@click.option("--beta", type=float, default=None)
@click.option("--repeats", type=click.IntRange(min=1), default=3, show_default=True)
@click.option("--seed", type=int, default=7, show_default=True)
@_threads_option
@click.option("--report", "report_path", type=click.Path(), default=None)
def cmd_bench(sizes, algo, d, k, beta, repeats, seed, threads, report_path):
    """Time the clustering (I/O excluded) on synthetic fields of growing size."""
    params = _build_params(algo, d, k, beta)
    try:
        size_list = [int(s) for s in sizes.split(",") if s.strip()]
    except ValueError:
        raise click.UsageError(f"--sizes expects integers, got {sizes!r}") from None
    if size_list != sorted(size_list) or not size_list:
        raise click.UsageError("--sizes must be ascending and non-empty")
    if size_list[0] < 1:
        raise click.UsageError(f"--sizes must be positive, got {sizes!r}")
    click.echo(f"# {algo}: median of {repeats} cluster() runs per size after one "
               "untimed warmup, I/O excluded")
    click.echo(f"{'n':>10}  {'points':>10}  {'seconds':>10}  {'ratio':>7}")
    try:
        fields = [generate_field(_bench_spec(n, seed)) for n in size_list]
        # an untimed warmup round, then one round per repeat. The sizes take
        # turns in each round, so a slow phase of the machine, which can
        # outlast all the repeats of one size, slows every size instead of
        # skewing one doubling ratio
        times = [[] for _ in fields]
        for _ in range(repeats + 1):
            for field, field_times in zip(fields, times):
                start = time.perf_counter()
                cluster(field, params, workers=threads)
                field_times.append(time.perf_counter() - start)
    except FieldClusterError as exc:
        _fail(exc)
    rows_out = []
    prev = None
    for n, field, (_, *field_times) in zip(size_list, fields, times):
        med = statistics.median(field_times)
        ratio = med / prev if prev else None
        prev = med
        click.echo(f"{n:>10}  {field.n:>10}  {med:>10.3f}  "
                   + (f"{ratio:>7.2f}" if ratio else f"{'-':>7}"))
        rows_out.append({"requested": n, "points": field.n,
                         "seconds": med, "times": field_times, "ratio": ratio})
    _write_report({**_report_head("bench", params), "repeats": repeats, "rows": rows_out},
                  report_path)


if __name__ == "__main__":
    main()
