"""The four mode-seeking clustering algorithms, as parent-forest construction
plus label extraction.

All four share the same skeleton: define a strict order on points ("denser
than"), link every point to a neighbor higher in that order, and read clusters
off the resulting forest.

* ``rain``    - link to the (z, index)-minimum of the d-ball (lowest neighbor).
* ``zqs``     - quickshift with height as inverse density: link to the nearest
                strictly lower neighbor within d.
* ``gdqs``    - quickshift in the ground-plane projection with a k-NN density:
                link to the nearest strictly denser 2D neighbor within d.
* ``gdqspp``  - quickshift++ style: extract dense 2D cores first, then climb
                remaining points through 3D nearest-denser links (no distance
                parameter, hence scale free).

Ordering conventions (used consistently everywhere):

* densities are compared through the k-th smallest squared 2D neighbor
  distance ``rho`` (density = rho^-1, i.e. r_k^-2); comparisons on rho are
  exact where float inversion might collapse;
* coincident 2D projections (rho == 0) form the infinite-density class,
  internally ordered by ascending point index;
* the full sweep key (density, then -index) is a strict total order; parent
  links always move strictly up in the relevant order, so forests are acyclic
  by construction.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DataError, ParameterError
from .pointcloud import PointCloud, _renumber_first_appearance
from .spatial import _CHUNK_ELEMS, SpatialIndex, _check_d

__all__ = [
    "DensityField", "ParentForest", "CoreSet", "Params",
    "rain_parents", "zqs_parents", "knn_density_2d", "gdqs_parents",
    "extract_cores", "gdqspp_assign", "forest_to_labels", "cluster", "cluster_over_d",
]


# --------------------------------------------------------------------- types

@dataclass(frozen=True)
class DensityField:
    """Per-point 2D k-NN density with the package's canonical orderings.

    rho holds the k-th smallest squared distance to another point in the
    ground-plane projection; density values are rho^-1 (+inf on coincident
    projections). ``sweep_rank`` is the strict total order (denser first,
    index breaks ties); ``parent_rank`` is the value-strict order key used for
    quickshift parenting: rho itself, so equal finite densities tie, with the
    infinite class keyed by index below every finite rho.
    """

    rho: np.ndarray
    k: int
    index2d: SpatialIndex
    knn_idx: np.ndarray | None = None
    values: np.ndarray = field(init=False)
    sweep_order: np.ndarray = field(init=False)
    sweep_rank: np.ndarray = field(init=False)
    parent_rank: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        rho = np.array(self.rho, dtype=np.float64, order="C")
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)
        n = rho.shape[0]
        with np.errstate(divide="ignore"):
            values = 1.0 / rho
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        order, rank = _order_and_rank(rho)
        object.__setattr__(self, "sweep_order", order)
        object.__setattr__(self, "sweep_rank", rank)
        object.__setattr__(self, "parent_rank", np.where(rho == 0.0, np.arange(n) - n, rho))

    @property
    def n(self) -> int:
        return self.rho.shape[0]


@dataclass(frozen=True)
class ParentForest:
    """Per-point parent pointers; parent[i] == i marks a root (mode)."""

    parent: np.ndarray

    def __post_init__(self) -> None:
        parent = np.array(self.parent, dtype=np.int64, order="C")
        parent.setflags(write=False)
        object.__setattr__(self, "parent", parent)


@dataclass(frozen=True)
class CoreSet:
    """Disjoint high-density point sets seeding quickshift++ clusters.

    Cores are ordered densest mode first; members are ascending point
    indices. ``n`` is the size of the originating cloud.
    """

    cores: tuple
    mode_indices: np.ndarray
    n: int

    def membership(self) -> np.ndarray:
        """Core id per point, -1 for non-core points."""
        out = np.full(self.n, -1, dtype=np.int64)
        for ci, members in enumerate(self.cores):
            out[members] = ci
        return out


_ALGO_PARAMS = {"rain": ("d",), "zqs": ("d",), "gdqs": ("d", "k"), "gdqspp": ("k", "beta")}


@dataclass(frozen=True)
class Params:
    """Algorithm selector plus its parameters, checked when built: arity
    strictly, and each value's range."""

    algorithm: str
    d: float | None = None
    k: int | None = None
    beta: float | None = None

    def __post_init__(self) -> None:
        if self.algorithm not in _ALGO_PARAMS:
            raise ParameterError(
                f"unknown algorithm {self.algorithm!r}; expected one of rain, zqs, gdqs, gdqspp")
        required = _ALGO_PARAMS[self.algorithm]
        supplied = tuple(name for name in ("d", "k", "beta") if getattr(self, name) is not None)
        missing = [p for p in required if p not in supplied]
        extra = [p for p in supplied if p not in required]
        if missing or extra:
            detail = []
            if missing:
                detail.append("missing " + ", ".join(missing))
            if extra:
                detail.append("does not accept " + ", ".join(extra))
            raise ParameterError(
                f"algorithm {self.algorithm!r} takes exactly ({', '.join(required)}): "
                + "; ".join(detail))
        if self.d is not None:
            _check_d(self.d)
        if self.k is not None and not (1 <= self.k < np.inf and int(self.k) == self.k):
            raise ParameterError(f"k must be a positive integer, got {self.k}")
        if self.beta is not None:
            _check_beta(self.beta)


# ------------------------------------------------------------ shared helpers

def _check_beta(beta: float) -> None:
    if not 0.0 <= beta <= 1.0:
        raise ParameterError(f"beta must lie in [0, 1], got {beta}")


def _check_sizes(cloud: PointCloud, **parts) -> None:
    """Raise ContractError unless every structure given (an index, a density
    or a core set; None is skipped) covers exactly the cloud's points."""
    for name, part in parts.items():
        if part is not None and part.n != cloud.n:
            raise ContractError(f"{name} covers {part.n} points, cloud has {cloud.n}")


def _order_and_rank(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The permutation sorting (key, index) ascending, and its inverse: the
    rank of each point under that strict total order."""
    order = np.argsort(key, kind="stable")
    rank = np.empty(order.shape[0], dtype=np.int64)
    rank[order] = np.arange(order.shape[0])
    return order, rank


def _quickshift_parents(nb: np.ndarray) -> np.ndarray:
    """Quickshift forest from nearest-higher links: each point links to nb[i],
    and a point without one (nb[i] == -1) is a root."""
    return np.where(nb < 0, np.arange(nb.shape[0]), nb)


def _resolve_to_fixpoint(parent: np.ndarray) -> np.ndarray:
    """Follow parent pointers to their fixpoints by pointer doubling, in the
    parent array's own integer dtype.

    A power-of-two cycle squares to the identity and would look converged, so
    the fixpoints are verified to be genuine roots afterwards.
    """
    x = parent.copy()
    for _ in range(70):
        nxt = x[x]
        if np.array_equal(nxt, x):
            if (parent[x] != x).any():
                break
            return x
        x = nxt
    raise ContractError("parent pointers contain a cycle")


# ----------------------------------------------------------------- algorithms

def rain_parents(cloud: PointCloud, d: float, *,
                 index: SpatialIndex | None = None) -> ParentForest:
    """Link every point to the (z, index)-minimum of its open d-ball.

    The ball contains the point itself, so roots are exactly the points that
    are the lowest in their own neighborhood; (z, index) never increases along
    an edge, which makes the forest acyclic. ``index`` reuses a prebuilt 3D
    index over the cloud's points.
    """
    _check_sizes(cloud, index=index)
    if index is None:
        index = SpatialIndex(cloud.points)
    return ParentForest(index.argmin_rank_in_ball(_order_and_rank(cloud.points[:, 2])[1], d))


def zqs_parents(cloud: PointCloud, d: float, *,
                index: SpatialIndex | None = None) -> ParentForest:
    """Quickshift with height as inverse density: link each point to its
    nearest strictly lower (z, then index) neighbor within d; roots have no
    lower neighbor in range."""
    _check_sizes(cloud, index=index)
    if index is None:
        index = SpatialIndex(cloud.points)
    nb = index.nearest_below_rank(_order_and_rank(cloud.points[:, 2])[1], d=d)
    return ParentForest(_quickshift_parents(nb))


def knn_density_2d(cloud: PointCloud, k: int, workers: int = 1,
                   keep_windows: bool = False) -> DensityField:
    """k-NN density in the ground-plane projection (drop z; cloud is gravity
    aligned). Coincident projections get the infinite-density class.

    rho comes from ``SpatialIndex.knn_window``, which scans the 2D points in
    kD-tree blocks, each against one candidate set, and is exact. ``keep_windows``
    caches the neighbor windows (each point's k+2 nearest, unordered) on the
    result, so a following core extraction reuses this scan instead of running
    its own. ``workers`` threads the scan (-1: one per CPU), the only query
    that takes threads; the result does not depend on it.
    """
    index2d = SpatialIndex(cloud.points[:, :2])
    rho, idx = index2d.knn_window(k, workers=workers, return_indices=keep_windows)
    return DensityField(rho=rho, k=int(k), index2d=index2d, knn_idx=idx)


def gdqs_parents(cloud: PointCloud, d: float, density: DensityField) -> ParentForest:
    """2D quickshift under the k-NN density: link each point to its nearest
    (2D distance, then index) neighbor of strictly higher density within d.

    Equal finite densities do not parent each other; coincident projections
    resolve through the infinite class's index order. Labels derived from the
    forest apply to the 3D points unchanged.
    """
    _check_sizes(cloud, density=density)
    nb = density.index2d.nearest_below_rank(density.parent_rank, d=d)
    return ParentForest(_quickshift_parents(nb))


def _sweep_edges(density: DensityField):
    """Earlier-neighbor lists within each point's own k-NN radius, and the
    mutual edges the core sweep merges along, grouped by owner.

    Row i holds the j sweeping before i with dist2d(i,j)^2 <= rho_i (tie
    inclusive); the entry is mutual iff also dist2d(i,j)^2 <= rho_j, so each
    mutual edge appears once, in the row of its later endpoint (its owner),
    and fires at the owner's sweep step. Each point links to its row's first
    mutual entry (a root if it has none). Links point to earlier points, so
    the swept part of every link tree is connected through links at every
    step; a mutual edge inside one tree never joins two components and is
    dropped. Links and tree-crossing edges span the same components as all
    mutual edges for every sweep prefix. A density built without
    ``keep_windows`` has its windows queried again here, on one thread.

    Returns ``(offsets, flat, eoff, early)``: the earlier-neighbor lists as
    CSR, and the kept edges of owner i as ``early[eoff[i]:eoff[i + 1]]``.
    """
    n = density.n
    if n >= 1 << 31:
        raise DataError("clouds beyond 2^31 points are not supported")
    knn_idx = density.knn_idx
    if knn_idx is None:
        _, knn_idx = density.index2d.knn_window(density.k, return_indices=True)
    offsets, flat, mutual = density.index2d.directed_radius_lists(
        density.rho, density.sweep_rank, knn_idx)
    owner = np.repeat(np.arange(n, dtype=np.int32), np.diff(offsets))[mutual]
    early = flat[mutual]
    first = np.ones(owner.shape[0], dtype=bool)
    first[1:] = owner[1:] != owner[:-1]
    link = np.arange(n, dtype=np.int32)
    link[owner[first]] = early[first]
    tree = _resolve_to_fixpoint(link)
    keep = first
    for a in range(0, keep.shape[0], _CHUNK_ELEMS):
        # in slices: the two gathered tree columns would add 8 bytes per edge at the peak
        part = slice(a, a + _CHUNK_ELEMS)
        keep[part] |= tree[owner[part]] != tree[early[part]]
    eoff = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner[keep], minlength=n), out=eoff[1:])
    return offsets, flat, eoff, early[keep]


def extract_cores(cloud: PointCloud, density: DensityField, k: int, beta: float) -> CoreSet:
    """Find the dense 2D regions that seed quickshift++ clusters.

    Sweeps points in decreasing density order over the mutual k-NN graph,
    merging components with union-find. A component locks (freezing its
    membership as a core) once the sweep level falls below (1 - beta) times
    its mode's density; locked components absorb later arrivals without
    extending their snapshot. A point whose component is still unlocked after
    its merges is likewise absorbed (and stays core-less) when an already
    locked component lies within its own k-NN radius, so sparse stragglers
    attach to existing cores instead of nucleating new ones. Components that
    never lock mid-sweep freeze in full when the sweep ends.

    The merges run along link-tree edges (see ``_sweep_edges``), which span
    the same components as all mutual edges after every step. Every edge
    firing at a step touches that step's point, so the merged sets, modes and
    lock states do not depend on which spanning edges are used.

    Locking needs no heap: a pointer ``due`` walks the sweep order behind the
    current step. The lock threshold (1 - beta) * density never rises along
    the sweep (float multiplication by a constant >= 0 is monotone), so the
    points whose threshold the level has crossed form a prefix of it. A
    component's mode is its first point in sweep order, so the first due
    point of a component is its mode: a due point that finds its component
    unlocked locks it, and cores come out densest mode first. Walking the
    rest of the order at the end locks the leftover components in the same
    order. Infinite-density modes (coincident projections) lock when the
    sweep reaches finite densities; with beta == 0 every swept infinite
    point is due at once, which locks each such mode right after its step.
    With beta == 1 the threshold is 0 (NaN for infinite densities) and
    nothing comes due. A point absorbed by a locked neighbor marks its own
    component locked instead of joining that neighbor's: merging two locked
    components changes no snapshot, so which one takes the point is moot.
    """
    _check_beta(beta)
    if density.k != k:
        raise ContractError(f"density was computed with k={density.k}, asked to use k={k}")
    _check_sizes(cloud, density=density)
    n = cloud.n
    if n == 0:
        return CoreSet((), np.empty(0, np.int64), 0)

    offsets, targets, eoff, early = _sweep_edges(density)
    parent = list(range(n))
    members = [[x] for x in range(n)]
    locked = [False] * n
    locked_pt = np.zeros(n, dtype=bool)
    core_members: list[np.ndarray] = []
    core_modes: list[int] = []

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def freeze(r: int) -> None:
        locked[r] = True
        for x in members[r]:
            locked_pt[x] = True

    def lock(m: int) -> None:
        r = find(m)
        if not locked[r]:
            freeze(r)
            core_members.append(np.asarray(sorted(members[r]), dtype=np.int64))
            core_modes.append(m)

    def union(ra: int, rb: int) -> None:
        if ra == rb:
            return
        if len(members[ra]) < len(members[rb]):
            ra, rb = rb, ra
        parent[rb] = ra
        if not (locked[ra] or locked[rb]):
            members[ra] += members[rb]
        elif not locked[ra]:
            freeze(ra)
        elif not locked[rb]:
            freeze(rb)

    inf = float("inf")
    keep = 1.0 - beta
    order = density.sweep_order.tolist()
    vals = density.values.tolist()
    offsets = offsets.tolist()
    eoff = eoff.tolist()
    early = early.tolist()
    due = 0
    for t in range(n):
        p = order[t]
        lam = vals[p]
        # (a) lock components whose relative threshold the level has crossed
        while due < t and (keep * vals[order[due]] > lam
                           or beta == 0.0 and vals[order[due]] == inf):
            lock(order[due])
            due += 1
        # (b) merge the point's component along its activated edges
        for j in early[eoff[p]:eoff[p + 1]]:
            union(find(p), find(j))
        # (c) absorb into a locked component reachable within own k-NN radius
        r = find(p)
        if not locked[r] and np.count_nonzero(locked_pt[targets[offsets[p]:offsets[p + 1]]]):
            freeze(r)
    for m in order[due:]:
        lock(m)

    return CoreSet(tuple(core_members), np.asarray(core_modes, dtype=np.int64), n)


def gdqspp_assign(cloud: PointCloud, density: DensityField, cores: CoreSet, *,
                  index3: SpatialIndex | None = None) -> np.ndarray:
    """Label core points by their core, then climb every remaining point through
    its nearest strictly-denser 3D neighbor (uncapped search) until a core is
    reached. Returns labels renumbered 1..C by first appearance."""
    _check_sizes(cloud, density=density, cores=cores, index3=index3)
    n = cloud.n
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if not cores.cores:
        raise ContractError("empty core set on a non-empty cloud")
    core_id = cores.membership()
    noncore = np.flatnonzero(core_id < 0)
    nb = np.full(n, -1, dtype=np.int64)
    if noncore.size:
        if index3 is None:
            index3 = SpatialIndex(cloud.points)
        nb = index3.nearest_below_rank(density.sweep_rank, subset=noncore)
        if (nb[noncore] < 0).any():
            raise ContractError("a non-core point has no denser point to climb to")
    target = _resolve_to_fixpoint(_quickshift_parents(nb))
    raw = core_id[target]
    if (raw < 0).any():
        raise ContractError("a climb terminated outside every core")
    # shifted by one, because the renumbering keeps id 0 as label 0
    return _renumber_first_appearance(raw + 1)


def forest_to_labels(forest: ParentForest) -> np.ndarray:
    """Labels from a parent forest: one cluster per root, renumbered to
    consecutive integers from 1 in order of first appearance by point index."""
    # shifted by one, because the renumbering keeps id 0 as label 0
    return _renumber_first_appearance(_resolve_to_fixpoint(forest.parent) + 1)


def _need_two_points(algo: str, n: int) -> None:
    if n < 2:
        raise DataError(f"algorithm {algo!r} needs at least 2 points, got {n}")


def cluster_over_d(cloud: PointCloud, algorithm: str, ds: Iterable[float],
                   k: int | None = None, workers: int = 1) -> Iterator[np.ndarray]:
    """Yield the labels of ``rain``, ``zqs`` or ``gdqs`` for each d of ``ds`` in
    order, each equal to ``cluster(cloud, Params(algorithm, d=d, k=k), workers)``.

    What does not depend on d is built once, at the first d: the 3D index of
    ``rain`` and ``zqs``, and the 2D k-NN density of ``gdqs``. Each d's
    ``Params`` is built, and so checked, just before its labels are computed,
    so errors surface at the same d as with one ``cluster`` call per d.
    """
    return _labels_per_params(cloud, (Params(algorithm, d=d, k=k) for d in ds), workers)


def _labels_per_params(cloud: PointCloud, runs: Iterable[Params],
                       workers: int) -> Iterator[np.ndarray]:
    """The labels of each of ``runs``: one of ``rain``, ``zqs`` or ``gdqs`` and
    one k, at any d; see ``cluster_over_d``."""
    n = cloud.n
    shared = None
    for params in runs:
        if n == 0:
            yield np.empty(0, dtype=np.int64)
        elif params.algorithm == "gdqs":
            if shared is None:
                _need_two_points(params.algorithm, n)
                shared = knn_density_2d(cloud, params.k, workers=workers)
            yield forest_to_labels(gdqs_parents(cloud, params.d, shared))
        else:
            if shared is None:
                shared = SpatialIndex(cloud.points)
            parents = rain_parents if params.algorithm == "rain" else zqs_parents
            yield forest_to_labels(parents(cloud, params.d, index=shared))


def cluster(cloud: PointCloud, params: Params, workers: int = 1) -> np.ndarray:
    """Run the selected algorithm end to end, building every structure afresh;
    deterministic for fixed input, parameters, and any ``workers``, which threads
    only the k-NN density scan. ``rain``, ``zqs`` and ``gdqs`` run as a
    one-value ``cluster_over_d`` over ``params`` itself."""
    if params.algorithm != "gdqspp":
        return next(_labels_per_params(cloud, [params], workers))
    n = cloud.n
    if n == 0:
        return np.empty(0, dtype=np.int64)
    _need_two_points(params.algorithm, n)
    density = knn_density_2d(cloud, params.k, workers=workers, keep_windows=True)
    cores = extract_cores(cloud, density, params.k, params.beta)
    return gdqspp_assign(cloud, density, cores)
