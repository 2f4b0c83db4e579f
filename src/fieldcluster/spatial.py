"""Immutable kD-tree index over 2D or 3D points.

Wraps scipy's cKDTree behind the query semantics the clustering algorithms
rely on:

* all distance comparisons happen in exact squared-distance space; one
  function (``_sq_dist_cols``) sums every squared distance from per-axis
  coordinate columns, in the order in which the brute-force test oracles'
  ``einsum`` sums, so the tree path and an O(n^2) scan are bit-for-bit
  interchangeable and no (points, kk, dim) coordinate array is gathered;
* balls are open (``dist < d``);
* ties anywhere are broken by the smaller original point index.

The k-NN radius and the (k+2)-point windows of the density (``knn_window``)
come from a scan of the kD-tree's blocks: points close in the plane share
most of their nearest neighbors, so each subtree of at most ``_BLOCK`` points
fetches one candidate ball that provably holds the nearest neighbors of all
its points, and the order statistics of the exact squared distances from the
block to those candidates give rho and the windows, exact with ties and
duplicates, without a per-point neighbor heap.

The nearest-below-rank search and the radius lists grow per-point windows
(the kk nearest points, self included, with their exact squared distances,
from one chunked tree query loop) 4x per round instead of materializing
neighbor balls, resolving each point as soon as its window provably contains
the answer; windows come back from scipy as arrays, which keeps the inner
loops vectorized. The lowest-rank-in-ball search does not use windows: it
descends a hierarchy of kD-trees built per call over blocks of the
points in rank order, so its cost does not grow with the number of points in
a ball, and it runs tile by tile over the ground plane, each tile with the
points near it, so its cost grows linearly with the cloud.

The index is read-only after construction. Only ``knn_window``, one large
scan, takes a thread count (``workers``, threads over groups of blocks, with
no effect on results); every other query runs on one thread.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.spatial import cKDTree

from .errors import DataError, ParameterError

# soft bound on elements touched per vectorized query round; its 8-byte
# temporaries (35 MB) lie clearly above glibc's 32 MiB ceiling on the dynamic
# mmap threshold, so each is mapped and returned whole instead of coming from
# a heap whose layout, and so the peak memory, depends on earlier frees
_CHUNK_ELEMS = 4_400_000
# knn_window: the kD-tree's subtrees of at most this many points are scanned
# as blocks, each against one candidate set, and a thread takes _GROUP
# consecutive blocks at a time
_BLOCK = 32
_GROUP = 64
# argmin_rank_in_ball: rank blocks of this many points are scanned directly,
# _LEAF_ROWS queries at a time, so the gathered blocks (under 1 MB) are reused
# from the heap and stay in cache instead of being mapped afresh per tile
_LEAF = 64
_LEAF_ROWS = 512
# relative slack on the tree's distance bound, far above the few ulps by which
# the tree's distance may differ from the exact squared distance
_BOUND_SLACK = 1.0 + 1e-9
# argmin_rank_in_ball: the ground plane is halved into tiles of at most this
# many points or about _TILE_MIN_SIDE * d wide, each searched together with
# the points within _TILE_MARGIN * d of it, a margin far above rounding
_TILE_POINTS = 8192
_TILE_MIN_SIDE = 8
_TILE_MARGIN = 1.0625


def _check_d(d: float) -> None:
    """Reject a radius d that is not positive (NaN included) or whose square
    underflows to 0, which would leave even a ball's centre outside it: the
    package's one check of d."""
    if not (d > 0 and d * d > 0):
        raise ParameterError(f"d must be positive and d*d must not underflow to 0, got {d}")


def _sq_dist_cols(cols: tuple, idx: np.ndarray, sub: np.ndarray) -> np.ndarray:
    """Exact squared distances from point sub[r] to the points idx[r] (a 2D
    array) or to the points idx (a 1D array shared by every row), from the
    per-axis coordinate columns ``cols``: the package's one implementation of
    the squared distance.

    The columns are added in the order in which numpy's ``einsum``, which the
    brute-force oracles use, sums a length-2 or length-3 last axis: x then y
    in 2D, (dx^2 + dz^2) + dy^2 in 3D (numpy 2.4). That order copies a numpy
    internal; ``test_spatial.py`` pins the two against each other, so an
    upgrade that reorders ``einsum`` fails there.
    """
    d2 = None
    for axis in (0, 1) if len(cols) == 2 else (0, 2, 1):
        col = cols[axis]
        t = col[idx]
        t = np.subtract(t, col[sub][:, None], out=t if t.ndim == 2 else None)
        t *= t
        if d2 is None:
            d2 = t
        else:
            d2 += t
    return d2


def _lowest_in_ball(ranked: np.ndarray, own: np.ndarray, d: float) -> np.ndarray:
    """For each query point ranked[own[r]], own[r] being its position among
    the rank-ordered points ``ranked``, the first position holding a point
    strictly inside its d-ball.

    Each query's candidate starts as the whole rank range, which holds a ball
    point (itself), and moves to its left half when that half holds a point
    strictly inside d, to its right half otherwise, so it always holds the
    answer. A left half is asked with one batched k=1 query per block against
    a kD-tree over the block (skipped when the query itself lies in it);
    blocks of ``_LEAF`` points or fewer are scanned directly for their first
    ball point. The trees are queried with a slightly inflated bound, so a
    point strictly inside d is never pruned, and the answer is rechecked with
    the exact squared distance; when the nearest point lies in the inflated
    ball but not strictly inside d, the block's inflated ball is rechecked in
    full. The cost does not depend on how many points a ball holds.
    """
    m = ranked.shape[0]
    cols = tuple(ranked[:, a] for a in range(ranked.shape[1]))
    cap = d * d
    bound = d * _BOUND_SLACK
    start = np.zeros(own.shape[0], dtype=np.int64)  # first rank of each candidate block
    half = _LEAF
    while half < m:
        half *= 2
    while half > _LEAF:
        half //= 2
        # a query inside the left half is its own witness
        ask = np.flatnonzero(own >= start + half)
        if not ask.size:
            continue
        ask = ask[np.argsort(start[ask], kind="stable")]
        for rows in np.split(ask, np.flatnonzero(np.diff(start[ask])) + 1):
            b = start[rows[0]]
            block = ranked[b:b + half]
            tree = cKDTree(block)
            _, j = tree.query(ranked[own[rows]], k=1, distance_upper_bound=bound)
            hit = np.flatnonzero(j < block.shape[0])
            inside = np.zeros(rows.size, dtype=bool)
            inside[hit] = _sq_dist_cols(cols, b + j[hit, None], own[rows[hit]])[:, 0] < cap
            unsure = hit[~inside[hit]]
            for r, ball in zip(unsure, tree.query_ball_point(ranked[own[rows[unsure]]], bound)):
                near = b + np.asarray(ball, dtype=np.int64)[None]
                inside[r] = (_sq_dist_cols(cols, near, own[rows[r:r + 1]]) < cap).any()
            start[rows[~inside]] += half
    out = np.empty(own.shape[0], dtype=np.int64)
    for lo in range(0, own.shape[0], _LEAF_ROWS):
        sub = slice(lo, lo + _LEAF_ROWS)
        pos = np.minimum(start[sub, None] + np.arange(_LEAF), m - 1)
        # ranks ascend along a row, and its block holds a ball point ahead of
        # any padding past m
        out[sub] = start[sub] + np.argmax(_sq_dist_cols(cols, pos, own[sub]) < cap, axis=1)
    return out


class SpatialIndex:
    """Balanced kD-tree over a read-only private copy of 2D or 3D coordinates."""

    def __init__(self, points: np.ndarray):
        pts = np.array(points, dtype=np.float64, order="C")
        if pts.size == 0:
            pts = pts.reshape(0, pts.shape[1] if pts.ndim == 2 and pts.shape[1] in (2, 3) else 3)
        if pts.ndim != 2 or pts.shape[1] not in (2, 3):
            raise DataError(f"points must have shape (n, 2) or (n, 3), got {pts.shape}")
        finite = np.isfinite(pts).all(axis=1)
        if not finite.all():
            raise DataError(f"non-finite coordinate at point index {int(np.flatnonzero(~finite)[0])}")
        pts.setflags(write=False)
        self.points = pts
        self.n = pts.shape[0]
        # per-axis views: gathers from them run as fast as from contiguous
        # copies, which would add n * dim * 8 bytes at the gdqspp peak
        self._cols = tuple(pts[:, a] for a in range(pts.shape[1]))
        self._tree = cKDTree(pts) if self.n else None

    # ---------------------------------------------------------------- helpers

    def _windows(self, members: np.ndarray, kk: int, cached: np.ndarray | None = None):
        """Yield (sub, idx, d2) chunks covering ``members``: idx[r] holds the
        kk nearest points of sub[r] (itself included) and d2[r] their exact
        squared distances. ``cached`` supplies the windows (row per point)
        instead of querying the tree."""
        rows = max(1, _CHUNK_ELEMS // kk)
        for start in range(0, members.shape[0], rows):
            sub = members[start:start + rows]
            if cached is None:
                _, idx = self._tree.query(self.points[sub], k=kk)
            else:
                idx = cached[sub]
            idx = np.atleast_2d(idx).astype(np.int64, copy=False)
            yield sub, idx, _sq_dist_cols(self._cols, idx, sub)

    def _expand(self, members: np.ndarray, kk: int, resolve,
                cached: np.ndarray | None = None) -> None:
        """Grow the windows of unresolved members 4x per round, starting at kk;
        ``cached`` windows (kk wide), when given, serve the first round.

        ``resolve(sub, idx, d2, exhausted)`` records the answers a chunk's
        windows settle and returns the mask of settled rows; ``exhausted``
        means the windows hold the whole cloud, and every row must settle then.
        """
        active = members
        while active.size:
            kk = min(kk, self.n)
            done = [resolve(sub, idx, d2, kk >= self.n)
                    for sub, idx, d2 in self._windows(active, kk, cached=cached)]
            active = active[~np.concatenate(done)]
            kk *= 4
            cached = None

    # ------------------------------------------------------------- bulk kNN

    def knn_window(self, k: int, workers: int = 1, return_indices: bool = False):
        """Per-point k-NN radius, optionally with the neighbor windows.

        Returns (rho, idx): rho[i] is the squared distance to the k-th nearest
        other point (the k-th order statistic of the squared-distance multiset
        including self equals the k-th excluding self, so coincident
        duplicates need no special casing); idx, when requested (else None),
        is the (n, kq) int32 window of each point's kq = min(n, k+2) nearest
        points in no particular order, itself among them unless more than kq
        points share its position.

        Points close in the plane share most of their nearest neighbors, so
        the points are scanned in blocks, the subtrees of the kD-tree with at
        most ``_BLOCK`` points (or a leaf of coincident points). A block lies
        within br of the centre c of its bounding box; if c's kq-th nearest
        point lies at R, each block point has kq points within br + R, so its
        kq nearest lie within 2 br + R of c. The tree returns that ball, grown
        by the relative ``_BOUND_SLACK``, as the block's candidates, and rho
        and the window are order statistics of the exact squared distances
        from the block's points to the candidates, in row chunks of at most
        ``_CHUNK_ELEMS``. The candidates hold every point within each row's
        rho, so rho is exact, ties and duplicates included.

        ``workers`` threads (-1: one per CPU) scan groups of ``_GROUP``
        blocks; every row is written by its own block alone, so the result is
        the same at any thread count.
        """
        if not 1 <= k <= self.n - 1 or int(k) != k:
            raise ParameterError(f"k must satisfy 1 <= k <= n-1 = {self.n - 1}, got {k}")
        threads = (os.cpu_count() or 1) if workers == -1 else workers
        if not 1 <= threads or int(threads) != threads:
            raise ParameterError(f"workers must be -1 or a positive integer, got {workers}")
        k = int(k)
        kq = min(self.n, k + 2)
        order = self._tree.indices
        starts = self._blocks()
        pts = self.points[order]
        lo = np.minimum.reduceat(pts, starts[:-1])
        hi = np.maximum.reduceat(pts, starts[:-1])
        centre = (lo + hi) / 2
        dist, _ = self._tree.query(centre, k=[kq], workers=int(threads))
        radius = (np.hypot.reduce(hi - lo, axis=1) + dist[:, 0]) * _BOUND_SLACK
        rho = np.empty(self.n, dtype=np.float64)
        win = np.empty((self.n, kq), dtype=np.int32) if return_indices else None

        def scan(group):
            balls = self._tree.query_ball_point(centre[group], radius[group], return_sorted=False)
            for b, ball in zip(group, balls):
                cand = np.fromiter(ball, dtype=np.intp, count=len(ball))
                rows = order[starts[b]:starts[b + 1]]
                step = max(1, _CHUNK_ELEMS // cand.size)
                for first in range(0, rows.size, step):
                    sub = rows[first:first + step]
                    d2 = _sq_dist_cols(self._cols, cand, sub)
                    if return_indices:
                        near = np.argpartition(d2, kq - 1, axis=1)[:, :kq]
                        win[sub] = cand[near]
                        d2 = np.take_along_axis(d2, near, axis=1)
                    d2.partition(k, axis=1)
                    rho[sub] = d2[:, k]

        nb = starts.size - 1
        groups = np.array_split(np.arange(nb), -(-nb // _GROUP))
        with ThreadPoolExecutor(min(int(threads), len(groups))) as pool:
            for _ in pool.map(scan, groups):
                pass  # reading each result re-raises a worker's error
        return rho, win

    def _blocks(self) -> np.ndarray:
        """Start offsets into the tree's point order of the blocks of
        ``knn_window``, ascending and followed by n: the largest subtrees of
        at most ``_BLOCK`` points, and leaves of more (all coincident)."""
        starts = []
        stack = [self._tree.tree]
        while stack:
            node = stack.pop()
            if node.children <= _BLOCK or node.lesser is None:
                starts.append(node.start_idx)
            else:
                stack += (node.greater, node.lesser)
        starts.append(self.n)
        return np.array(starts, dtype=np.int64)

    def directed_radius_lists(self, rho: np.ndarray, rank: np.ndarray,
                              knn_idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR lists of the earlier neighbors within each point's own radius,
        {j : rank[j] < rank[i], dist^2(i, j) <= rho[i]}, with the mutual ones
        (dist^2(i, j) <= rho[j] as well) marked.

        Filters the provided k-NN windows; a row whose window max does not
        exceed rho[i] may cut a tie group at exactly rho[i] and regrows until
        its window reaches past rho[i]. Returns (offsets, flat, mutual): int32
        neighbor indices and a bool mask over them.
        """
        n = self.n
        counts = np.zeros(n, dtype=np.int64)
        pieces = []

        def resolve(sub, idx, d2, exhausted):
            # a window reaching past rho holds every point within rho
            done = (d2.max(axis=1) > rho[sub]) | exhausted
            keep = (d2 <= rho[sub][:, None]) & (rank[idx] < rank[sub][:, None]) & done[:, None]
            counts[sub[done]] = keep.sum(axis=1)[done]
            nbr = idx[keep]
            pieces.append((sub[done], nbr.astype(np.int32), d2[keep] <= rho[nbr]))
            return done

        self._expand(np.arange(n, dtype=np.int64), knn_idx.shape[1], resolve, cached=knn_idx)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        flat = np.empty(offsets[-1], dtype=np.int32)
        mutual = np.empty(offsets[-1], dtype=bool)
        for rows, nbr, mut in pieces:
            # scatter each row's run of entries to its CSR slot
            c = counts[rows]
            pos = np.repeat(offsets[rows] - np.cumsum(c) + c, c) + np.arange(nbr.size)
            flat[pos] = nbr
            mutual[pos] = mut
        return offsets, flat, mutual

    # ------------------------------------------------- rank-directed queries

    def argmin_rank_in_ball(self, rank: np.ndarray, d: float) -> np.ndarray:
        """For each member, the point of minimal rank within the open d-ball.

        rank must be a permutation of 0..n-1 (a strict total order); the ball
        always contains the member itself, so the result is total.

        The ground plane is cut into tiles of bounded size (``_tiles``), and
        each tile's points are searched among the points near the tile, which
        hold their balls, so the cost grows linearly with the cloud. Within a
        tile the search descends a power-of-two hierarchy over the points in
        rank order (the static decomposition of Bentley & Saxe, 1980; see
        ``_lowest_in_ball``), so it does not grow with how many points a ball
        holds. It runs on one thread: a tile's query batches are too small
        for scipy's thread pool to pay off.
        """
        _check_d(d)
        out = np.empty(self.n, dtype=np.int64)
        order = np.empty(self.n, dtype=np.int64)
        order[rank] = np.arange(self.n)
        for core, region in self._tiles(order, d):
            own = np.searchsorted(rank[region], rank[core])
            out[core] = region[_lowest_in_ball(self.points[region], own, d)]
        return out

    def _tiles(self, order: np.ndarray, d: float):
        """Yield (core, region) pairs whose cores partition the points; each
        region holds the open d-ball of every point of its core, the core
        included, and lists its points in ``order`` (a permutation of all
        points).

        The ground plane (x, y) is halved at the median of the longer side of
        a core's bounding box until the core holds at most ``_TILE_POINTS``
        points or that side is under twice ``_TILE_MIN_SIDE * d``. Each half
        keeps the points of its parent's region within ``_TILE_MARGIN * d`` of
        its side of the cut, so a region holds every point within that margin
        of its core's box, and a ball point lies within d. Nothing is cut when
        the coordinates are too coarse for the margin to exceed their rounding.
        """
        if self.n == 0:
            return
        margin = d * _TILE_MARGIN
        everything = np.arange(self.n)
        if not 1024 * np.spacing(np.abs(self.points[:, :2]).max()) < margin - d:
            yield everything, order
            return
        cols = self._cols[:2]
        pieces = [(everything, order, [c.min() for c in cols], [c.max() for c in cols])]
        while pieces:
            core, region, lo, hi = pieces.pop()
            axis = int(hi[1] - lo[1] > hi[0] - lo[0])
            if core.size <= _TILE_POINTS or hi[axis] - lo[axis] < 2 * _TILE_MIN_SIDE * d:
                yield core, region
                continue
            c = cols[axis]
            half = core.size // 2
            split = np.argpartition(c[core], half)
            cut = c[core[split[half]]]
            near = c[region]
            left_hi, right_lo = list(hi), list(lo)
            left_hi[axis] = right_lo[axis] = cut
            pieces.append((core[split[half:]], region[near >= cut - margin], right_lo, hi))
            pieces.append((core[split[:half]], region[near <= cut + margin], lo, left_hi))

    def nearest_below_rank(self, rank: np.ndarray, d: float | None = None, *,
                           subset: np.ndarray | None = None) -> np.ndarray:
        """For each member i: the j minimizing (distance, index) among points of
        strictly smaller rank, within the open d-ball when d is given and
        anywhere otherwise; -1 when no such point exists. With ``subset``,
        only those members are resolved (others stay -1)."""
        if d is not None:
            _check_d(d)
        n = self.n
        out = np.full(n, -1, dtype=np.int64)
        if n <= 1:
            return out
        cap = np.inf if d is None else d * d

        def resolve(sub, idx, d2, exhausted):
            ok = (idx != sub[:, None]) & (rank[idx] < rank[sub][:, None]) & (d2 < cap)
            d2_ok = np.where(ok, d2, np.inf)
            best_d2 = d2_ok.min(axis=1)
            best_idx = np.where(ok & (d2_ok == best_d2[:, None]), idx, n).min(axis=1)
            # a candidate strictly inside the window cannot be beaten by a
            # point outside it, which lies at least window_max away
            window_max = d2.max(axis=1)
            exhausted = exhausted | (window_max >= cap)
            found = np.isfinite(best_d2)
            certain = found & ((best_d2 < window_max) | exhausted)
            out[sub[certain]] = best_idx[certain]
            return certain | (~found & exhausted)

        members = np.arange(n, dtype=np.int64) if subset is None else \
            np.asarray(subset, dtype=np.int64)
        self._expand(members, 4, resolve)
        return out
