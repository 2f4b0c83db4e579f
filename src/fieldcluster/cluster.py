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
from .spatial import SpatialIndex, _check_d, _check_workers, _sq_dist_cols

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
    infinite class keyed by index below every finite rho. ``knn_idx`` may hold
    the neighbor windows of ``SpatialIndex.knn_window``; no algorithm reads it.
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
        if (self.index2d.n, self.index2d.points.shape[1]) != (n, 2):
            raise ContractError(f"index2d must cover the {n} points of rho in 2D")
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
                f"unknown algorithm {self.algorithm!r}; expected one of {', '.join(_ALGO_PARAMS)}")
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
    or a core set; None is skipped) covers exactly the cloud's points, in 3D
    for an index."""
    for name, part in parts.items():
        if part is not None and part.n != cloud.n:
            raise ContractError(f"{name} covers {part.n} points, cloud has {cloud.n}")
        if name.startswith("index") and part is not None and part.points.shape[1] != 3:
            raise ContractError(f"{name} covers points in {part.points.shape[1]}D, cloud in 3D")


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
    an edge, which makes the forest acyclic. The query runs on ``index``, a
    prebuilt 3D index over the cloud's points, and on its threads (see
    ``SpatialIndex``); without one, a one-thread index is built.
    """
    _check_sizes(cloud, index=index)
    if index is None:
        index = SpatialIndex(cloud.points)
    rank = _order_and_rank(cloud.points[:, 2])[1]
    return ParentForest(index.argmin_rank_in_ball(rank, d))


def zqs_parents(cloud: PointCloud, d: float, *,
                index: SpatialIndex | None = None) -> ParentForest:
    """Quickshift with height as inverse density: link each point to its
    nearest strictly lower (z, then index) neighbor within d; roots have no
    lower neighbor in range. ``index`` is that of ``rain_parents``: the
    query runs on its threads, and without one a one-thread index is
    built."""
    _check_sizes(cloud, index=index)
    if index is None:
        index = SpatialIndex(cloud.points)
    nb = index.nearest_below_rank(_order_and_rank(cloud.points[:, 2])[1], d=d)
    return ParentForest(_quickshift_parents(nb))


def knn_density_2d(cloud: PointCloud, k: int, workers: int = 1) -> DensityField:
    """k-NN density in the ground-plane projection (drop z; cloud is gravity
    aligned). Coincident projections get the infinite-density class.

    rho comes from ``SpatialIndex.knn_window``, which scans the 2D points in
    kD-tree blocks, each against one candidate set, and is exact; no neighbor
    windows are kept. ``workers`` is the thread count of the 2D index that
    it builds and keeps as ``index2d`` (see ``SpatialIndex``).
    """
    index2d = SpatialIndex(cloud.points[:, :2], workers)
    rho, _ = index2d.knn_window(k)
    return DensityField(rho=rho, k=int(k), index2d=index2d)


def gdqs_parents(cloud: PointCloud, d: float, density: DensityField) -> ParentForest:
    """2D quickshift under the k-NN density: link each point to its nearest
    (2D distance, then index) neighbor of strictly higher density within d.

    Equal finite densities do not parent each other; coincident projections
    resolve through the infinite class's index order. Labels derived from the
    forest apply to the 3D points unchanged. The query runs on the threads
    of ``density.index2d``.
    """
    _check_sizes(cloud, density=density)
    nb = density.index2d.nearest_below_rank(density.parent_rank, d=d)
    return ParentForest(_quickshift_parents(nb))


def _sweep_edges(density: DensityField):
    """What the core sweep reads at each point's step, O(n) in all.

    Point i's earlier neighbors are the j sweeping before i with
    dist2d(i,j)^2 <= rho_i (tie inclusive), mutual iff also <= rho_j, so a
    mutual edge fires at the step of its later endpoint (its owner). Each
    point links to its nearest mutual earlier neighbor, by (d^2, index), or
    to itself: the window growth of ``nearest_below_rank`` with reach rho
    finds it, since an earlier j has rho_j <= rho_i and so a mutual j lies
    inside i's own ball. The links give the link trees, each rooted at its
    earliest point. One radius scan of the 2D index grouped by tree root,
    ``directed_radius_lists``, then gives per owner the root of each *other*
    link tree among its earlier neighbors, mutual iff one of them there is.
    Neither keeps n * k entries, and the result does not depend on the
    scan's order. Returns ``(link, eoff,
    early, mutual)``: owner i's entries are ``early[eoff[i]:eoff[i + 1]]``.
    """
    rho, rank = density.rho, density.sweep_rank
    link = _quickshift_parents(density.index2d.nearest_below_rank(rank, reach=rho))
    tree = _resolve_to_fixpoint(link)
    return (link, *density.index2d.directed_radius_lists(rho, rank, tree))


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

    The union-find works on link trees, not on single points: its parent
    pointers start as the links, so each link tree is one set from the
    start, rooted at its earliest point. The step of point p reads only what
    ``_sweep_edges`` keeps: the root of each other link tree among p's
    earlier neighbors, mutual iff one of them there is. That is exact
    because links point to earlier points: from its step on, a point's
    component is its link tree's component. So a mutual root stands for
    every mutual neighbor of p in its tree, and a step without entries only
    locks what has come due. A merge keeps the earlier root, so the root of
    a component is its mode. A locked entry, mutual or not, locks p's
    component, and an unlocked mutual entry of a locked component is locked
    with it; the two are not merged, because merging locked components
    changes no snapshot. The merged sets, modes and lock
    states are those of the full mutual graph, whatever the scan's order.
    The links and the entry scan run on the threads of ``density.index2d``.

    Locking needs no heap: a pointer ``due`` walks the sweep order behind the
    current step. The lock threshold (1 - beta) * density never rises along
    the sweep (float multiplication by a constant >= 0 is monotone), so the
    points whose threshold the level has crossed form a prefix of it. A
    component's mode is its first point in sweep order, so the first due
    point of a component is its mode: a due point that is the root of an
    unlocked component locks it as a core, and records the step at its
    root. The components still unlocked when the sweep ends lock then.
    Infinite-density modes (coincident projections) lock when the sweep
    reaches finite densities; with beta == 0 every swept infinite point is
    due at once, which locks each such mode right after its step. With
    beta == 1 the threshold is 0 (NaN for infinite densities) and nothing
    comes due.

    The members are read off at the end. A core's set is never merged after
    its lock, so it holds the link trees of its snapshot, and a point of
    those trees is a member iff it was swept before the lock's step. A tree
    whose component locked without a core (by absorption, or with a locked
    mutual entry) gives no member. Modes lock in sweep order, so cores come
    out densest mode first.
    """
    _check_beta(beta)
    if density.k != k:
        raise ContractError(f"density was computed with k={density.k}, asked to use k={k}")
    _check_sizes(cloud, density=density)
    n = cloud.n
    link, eoff, early, mutual = _sweep_edges(density)
    parent = link.tolist()
    rank = density.sweep_rank.tolist()
    # the roots of the unlocked components, and at each core's mode the step
    # of its lock
    unlocked = set(np.flatnonzero(link == np.arange(n)).tolist())
    until = np.zeros(n, dtype=np.int64)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    inf = float("inf")
    keep = 1.0 - beta
    # indexed by step, not by point, so that the loop reads them in sequence
    order = density.sweep_order
    vals, lo, hi = (a[order].tolist() for a in (density.values, eoff[:-1], eoff[1:]))
    order, early, mutual = order.tolist(), early.tolist(), mutual.tolist()
    due = 0
    for t in range(n):
        # (a) lock components whose relative threshold the level has crossed
        while due < t and (keep * vals[due] > vals[t] or beta == 0.0 and vals[due] == inf):
            m = order[due]
            if m in unlocked:
                unlocked.remove(m)
                until[m] = t
            due += 1
        if lo[t] == hi[t]:
            continue
        # (b) merge the point's component with its unlocked mutual entries;
        # (c) a locked entry, mutual or not, locks the component instead,
        # without a merge
        r = find(order[t])
        for e in range(lo[t], hi[t]):
            s = find(early[e])
            if s == r:
                continue
            if mutual[e] and r in unlocked and s in unlocked:
                if rank[s] < rank[r]:
                    r, s = s, r
                parent[s] = r
                unlocked.remove(s)
            elif mutual[e] or s not in unlocked:
                unlocked.discard(r)
                unlocked.discard(s)
    until[list(unlocked)] = n
    # the step lists go before the arrays below, which at k = 1200 would
    # otherwise raise the CLI's peak RSS
    del rank, order, vals, lo, hi, early, mutual
    comp = _resolve_to_fixpoint(np.asarray(parent, dtype=np.int64))
    members = np.flatnonzero(density.sweep_rank < until[comp])
    ids = density.sweep_rank[comp[members]]
    mode_ranks, sizes = np.unique(ids, return_counts=True)
    cores = np.split(members[np.argsort(ids, kind="stable")], np.cumsum(sizes))[:-1]
    return CoreSet(tuple(cores), density.sweep_order[mode_ranks], n)


def gdqspp_assign(cloud: PointCloud, density: DensityField, cores: CoreSet, *,
                  index3: SpatialIndex | None = None) -> np.ndarray:
    """Label core points by their core, then climb every remaining point through
    its nearest strictly-denser 3D neighbor (uncapped search) until a core is
    reached. Returns labels renumbered 1..C by first appearance. The climb
    runs on ``index3``, a prebuilt 3D index, and on its threads (see
    ``SpatialIndex``). Without one, a 3D index is built only when some point
    lies outside every core, and it takes the thread count of
    ``density.index2d``, so every stage of ``gdqspp`` runs on the density's
    threads."""
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
            index3 = SpatialIndex(cloud.points, density.index2d._workers)
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


def cluster(cloud: PointCloud, params: Params, workers: int = 1) -> np.ndarray:
    """Run the selected algorithm end to end, building every structure afresh;
    deterministic for fixed input and parameters. ``workers`` sets the
    threads of every kD-tree index it builds (see ``SpatialIndex``), and a
    bad count raises here, even on an empty cloud. It is the one-run case of
    the generator behind ``cluster_over_d``."""
    _check_workers(workers)
    return next(_labels(cloud, [params], workers))


def cluster_over_d(cloud: PointCloud, algorithm: str, ds: Iterable[float],
                   k: int | None = None, workers: int = 1) -> Iterator[np.ndarray]:
    """Return an iterator over the labels of ``rain``, ``zqs`` or ``gdqs`` for
    each d of ``ds`` in order, each equal to ``cluster(cloud,
    Params(algorithm, d=d, k=k), workers)``. Every d's ``Params`` is built,
    and so checked, by this call: a bad algorithm, d, k or thread count
    raises here, before any index or density is built. A bad algorithm, a
    bad or missing k, or a bad thread count raises even when ``ds`` is
    empty.

    What does not depend on d is built once, at the first labels: the 3D
    index of ``rain`` and ``zqs``, and the 2D k-NN density of ``gdqs``.
    ``zqs`` and ``gdqs`` make one nearest-below-rank query for the whole
    sweep, at its largest d by d*d (``inf`` is uncapped): the nearest
    lower-ranked point, by (d^2, index), within the largest ball is the
    nearest within a smaller one if it lies inside it, and otherwise no
    lower-ranked point does. So each d's parents are the found links shorter
    than d, on the exact d^2 that the query itself compares."""
    # an empty ds still checks the thread count, the algorithm and k
    _check_workers(workers)
    Params(algorithm, d=1.0, k=k)
    return _labels(cloud, [Params(algorithm, d=d, k=k) for d in ds], workers)


def _labels(cloud: PointCloud, runs: list[Params], workers: int) -> Iterator[np.ndarray]:
    """Yield the labels of each ``Params`` of ``runs``, which share one
    algorithm and one k, building what does not depend on d or beta once."""
    if not runs:
        return
    algo, k, n = runs[0].algorithm, runs[0].k, cloud.n
    if n == 0:
        yield from (np.empty(0, dtype=np.int64) for _ in runs)
    elif n == 1 and k is not None:
        raise DataError(f"algorithm {algo!r} needs at least 2 points, got 1")
    elif algo == "gdqspp":
        density = knn_density_2d(cloud, k, workers)
        for p in runs:
            cores = extract_cores(cloud, density, k, p.beta)
            yield gdqspp_assign(cloud, density, cores)
    elif algo == "rain":
        index = SpatialIndex(cloud.points, workers)
        for p in runs:
            yield forest_to_labels(rain_parents(cloud, p.d, index=index))
    else:
        d = max((p.d for p in runs), key=lambda d: d * d)
        if algo == "gdqs":
            parent = gdqs_parents(cloud, d, knn_density_2d(cloud, k, workers)).parent
            points = cloud.points[:, :2]
        else:
            parent = zqs_parents(cloud, d, index=SpatialIndex(cloud.points, workers)).parent
            points = cloud.points
        # the exact d^2 from each point to its parent, summed as the query sums it
        d2 = _sq_dist_cols(tuple(points.T), parent[:, None], np.arange(n))[:, 0]
        for p in runs:
            # a root's d^2 is 0, so it stays a root at every d
            yield forest_to_labels(ParentForest(np.where(d2 < p.d * p.d, parent, np.arange(n))))
