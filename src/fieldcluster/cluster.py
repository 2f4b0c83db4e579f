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

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DataError, ParameterError
from .pointcloud import PointCloud
from .spatial import SpatialIndex

__all__ = [
    "DensityField", "ParentForest", "CoreSet", "Params",
    "rain_parents", "zqs_parents", "knn_density_2d", "gdqs_parents",
    "extract_cores", "gdqspp_assign", "forest_to_labels", "cluster",
]


# --------------------------------------------------------------------- types

@dataclass(frozen=True)
class DensityField:
    """Per-point 2D k-NN density with the package's canonical orderings.

    rho holds the k-th smallest squared distance to another point in the
    ground-plane projection; density values are rho^-1 (+inf on coincident
    projections). ``sweep_rank`` is the strict total order (denser first,
    index breaks ties); ``parent_rank`` is the value-strict order used for
    quickshift parenting, where only the infinite class is index-refined.
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
        order = np.lexsort((np.arange(n), rho))
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)
        object.__setattr__(self, "sweep_order", order)
        object.__setattr__(self, "sweep_rank", rank)
        rho_sorted = rho[order]
        new_group = np.ones(n, dtype=bool)
        if n > 1:
            new_group[1:] = rho_sorted[1:] != rho_sorted[:-1]
        new_group[rho_sorted == 0.0] = True
        grank = np.empty(n, dtype=np.int64)
        grank[order] = np.cumsum(new_group) - 1
        object.__setattr__(self, "parent_rank", grank)

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

    @property
    def n(self) -> int:
        return self.parent.shape[0]


@dataclass(frozen=True)
class CoreSet:
    """Disjoint high-density point sets seeding quickshift++ clusters.

    Cores are ordered densest mode first; members are ascending point
    indices. ``n`` is the size of the originating cloud.
    """

    cores: tuple
    mode_indices: np.ndarray
    mode_densities: np.ndarray
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
    """Algorithm selector plus its parameters; arity is checked strictly."""

    algorithm: str
    d: float | None = None
    k: int | None = None
    beta: float | None = None

    def validate(self) -> None:
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
        if self.d is not None and not self.d > 0:
            raise ParameterError(f"d must be positive, got {self.d}")
        if self.k is not None and not (1 <= self.k < np.inf and int(self.k) == self.k):
            raise ParameterError(f"k must be a positive integer, got {self.k}")
        if self.beta is not None and not 0.0 <= self.beta <= 1.0:
            raise ParameterError(f"beta must lie in [0, 1], got {self.beta}")


# --------------------------------------------------------------- rank helpers

def _height_rank(cloud: PointCloud) -> np.ndarray:
    """Permutation rank under (z, index) ascending: rank 0 is the lowest point."""
    n = cloud.n
    order = np.lexsort((np.arange(n), cloud.points[:, 2]))
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    return rank


def _renumber_first_appearance(ids: np.ndarray) -> np.ndarray:
    """Relabel arbitrary ids to consecutive 1..C in order of first appearance."""
    if ids.size == 0:
        return ids.astype(np.int64)
    uniq, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    new_id = np.empty(uniq.shape[0], dtype=np.int64)
    new_id[np.argsort(first, kind="stable")] = np.arange(1, uniq.shape[0] + 1)
    return new_id[inverse]


def _resolve_to_fixpoint(parent: np.ndarray) -> np.ndarray:
    """Follow parent pointers to their fixpoints by pointer doubling.

    A power-of-two cycle squares to the identity and would look converged, so
    the fixpoints are verified to be genuine roots afterwards.
    """
    x = parent.astype(np.int64, copy=True)
    for _ in range(70):
        nxt = x[x]
        if np.array_equal(nxt, x):
            if x.size and (parent[x] != x).any():
                break
            return x
        x = nxt
    raise ContractError("parent pointers contain a cycle")


# ----------------------------------------------------------------- algorithms

def rain_parents(cloud: PointCloud, d: float,
                 index: SpatialIndex | None = None) -> ParentForest:
    """Link every point to the (z, index)-minimum of its open d-ball.

    The ball contains the point itself, so roots are exactly the points that
    are the lowest in their own neighborhood; (z, index) never increases along
    an edge, which makes the forest acyclic. ``index`` reuses a prebuilt 3D
    index over the cloud's points.
    """
    if not d > 0:
        raise ParameterError(f"d must be positive, got {d}")
    if cloud.n == 0:
        return ParentForest(np.empty(0, dtype=np.int64))
    if index is None:
        index = SpatialIndex(cloud.points)
    return ParentForest(index.argmin_rank_in_ball(_height_rank(cloud), d))


def zqs_parents(cloud: PointCloud, d: float, workers: int = 1,
                index: SpatialIndex | None = None) -> ParentForest:
    """Quickshift with height as inverse density: link each point to its
    nearest strictly lower (z, then index) neighbor within d; roots have no
    lower neighbor in range."""
    if not d > 0:
        raise ParameterError(f"d must be positive, got {d}")
    n = cloud.n
    if n == 0:
        return ParentForest(np.empty(0, dtype=np.int64))
    if index is None:
        index = SpatialIndex(cloud.points)
    nb = index.nearest_below_rank(_height_rank(cloud), d=d, workers=workers)
    return ParentForest(np.where(nb < 0, np.arange(n), nb))


def knn_density_2d(cloud: PointCloud, k: int, workers: int = 1,
                   keep_windows: bool = False) -> DensityField:
    """k-NN density in the ground-plane projection (drop z; cloud is gravity
    aligned). Coincident projections get the infinite-density class.

    ``keep_windows`` caches the neighbor windows on the result so a following
    core extraction reuses this query instead of issuing its own.
    """
    index2d = SpatialIndex(cloud.points[:, :2])
    rho, idx = index2d.knn_window(k, workers=workers, return_indices=keep_windows)
    return DensityField(rho=rho, k=int(k), index2d=index2d, knn_idx=idx)


def gdqs_parents(cloud: PointCloud, d: float, density: DensityField,
                 workers: int = 1) -> ParentForest:
    """2D quickshift under the k-NN density: link each point to its nearest
    (2D distance, then index) neighbor of strictly higher density within d.

    Equal finite densities do not parent each other; coincident projections
    resolve through the infinite class's index order. Labels derived from the
    forest apply to the 3D points unchanged.
    """
    if not d > 0:
        raise ParameterError(f"d must be positive, got {d}")
    n = cloud.n
    if density.n != n:
        raise ContractError(f"density covers {density.n} points, cloud has {n}")
    nb = density.index2d.nearest_below_rank(density.parent_rank, d=d, workers=workers)
    return ParentForest(np.where(nb < 0, np.arange(n), nb))


def _sweep_edges(density: DensityField, workers: int):
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
    mutual edges for every sweep prefix.

    Returns ``(offsets, flat, eoff, early)``: the earlier-neighbor lists as
    CSR, and the kept edges of owner i as ``early[eoff[i]:eoff[i + 1]]``.
    """
    n = density.n
    if n >= 1 << 31:
        raise DataError("clouds beyond 2^31 points are not supported")
    knn_idx = density.knn_idx
    if knn_idx is None:
        _, knn_idx = density.index2d.knn_window(density.k, workers=workers, return_indices=True)
    offsets, flat, mutual = density.index2d.directed_radius_lists(
        density.rho, density.sweep_rank, knn_idx)
    owner = np.repeat(np.arange(n, dtype=np.int32), np.diff(offsets))[mutual]
    early = flat[mutual]
    first = np.ones(owner.shape[0], dtype=bool)
    first[1:] = owner[1:] != owner[:-1]
    link = np.arange(n)
    link[owner[first]] = early[first]
    tree = _resolve_to_fixpoint(link)
    keep = first | (tree[owner] != tree[early])
    eoff = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner[keep], minlength=n), out=eoff[1:])
    return offsets, flat, eoff, early[keep]


def extract_cores(cloud: PointCloud, density: DensityField, k: int, beta: float,
                  workers: int = 1) -> CoreSet:
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
    if not 0.0 <= beta <= 1.0:
        raise ParameterError(f"beta must lie in [0, 1], got {beta}")
    if density.k != k:
        raise ContractError(f"density was computed with k={density.k}, asked to use k={k}")
    n = cloud.n
    if density.n != n:
        raise ContractError(f"density covers {density.n} points, cloud has {n}")
    if n == 0:
        return CoreSet((), np.empty(0, np.int64), np.empty(0, np.float64), 0)

    offsets, targets, eoff, early = _sweep_edges(density, workers)
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

    mode_idx = np.asarray(core_modes, dtype=np.int64)
    return CoreSet(tuple(core_members), mode_idx, density.values[mode_idx], n)


def gdqspp_assign(cloud: PointCloud, density: DensityField, cores: CoreSet,
                  workers: int = 1, index3: SpatialIndex | None = None) -> np.ndarray:
    """Label core points by their core, then climb every remaining point through
    its nearest strictly-denser 3D neighbor (uncapped search) until a core is
    reached. Returns labels renumbered 1..C by first appearance."""
    n = cloud.n
    if density.n != n or cores.n != n:
        raise ContractError("cloud, density, and cores disagree on point count")
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if not cores.cores:
        raise ContractError("empty core set on a non-empty cloud")
    core_id = cores.membership()
    noncore = np.flatnonzero(core_id < 0)
    parent = np.arange(n, dtype=np.int64)
    if noncore.size:
        if index3 is None:
            index3 = SpatialIndex(cloud.points)
        nb = index3.nearest_below_rank(density.sweep_rank, workers=workers, subset=noncore)
        if (nb[noncore] < 0).any():
            raise ContractError("a non-core point has no denser point to climb to")
        parent[noncore] = nb[noncore]
    target = _resolve_to_fixpoint(parent)
    raw = core_id[target]
    if (raw < 0).any():
        raise ContractError("a climb terminated outside every core")
    return _renumber_first_appearance(raw)


def forest_to_labels(forest: ParentForest) -> np.ndarray:
    """Labels from a parent forest: one cluster per root, renumbered to
    consecutive integers from 1 in order of first appearance by point index."""
    if forest.n == 0:
        return np.empty(0, dtype=np.int64)
    return _renumber_first_appearance(_resolve_to_fixpoint(forest.parent))


def cluster(cloud: PointCloud, params: Params, workers: int = 1) -> np.ndarray:
    """Run the selected algorithm end to end; deterministic for fixed input,
    parameters, and any worker count."""
    params.validate()
    n = cloud.n
    if n == 0:
        return np.empty(0, dtype=np.int64)
    algo = params.algorithm
    if algo == "rain":
        return forest_to_labels(rain_parents(cloud, params.d))
    if algo == "zqs":
        return forest_to_labels(zqs_parents(cloud, params.d, workers=workers))
    if n < 2:
        raise DataError(f"algorithm {algo!r} needs at least 2 points, got {n}")
    if algo == "gdqs":
        density = knn_density_2d(cloud, params.k, workers=workers)
        return forest_to_labels(gdqs_parents(cloud, params.d, density, workers=workers))
    density = knn_density_2d(cloud, params.k, workers=workers, keep_windows=True)
    cores = extract_cores(cloud, density, params.k, params.beta, workers=workers)
    return gdqspp_assign(cloud, density, cores, workers=workers)
