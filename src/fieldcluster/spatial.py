"""Immutable kD-tree index over 2D or 3D points.

Wraps scipy's cKDTree behind the query semantics the clustering algorithms
rely on:

* all distance comparisons happen in exact squared-distance space, computed
  with the same numpy operations the brute-force test oracles use, so the
  tree path and an O(n^2) scan are bit-for-bit interchangeable;
* balls are open (``dist < d``);
* ties anywhere are broken by the smaller original point index.

Per-point k-NN windows (the kk nearest points, self included, with their
exact squared distances) come from one chunked query loop, the only place the
index's own tree is queried for more than three neighbors. The squared
distances are summed from per-axis coordinate columns kept on the index, so
no (points, kk, dim) coordinate array is gathered. The nearest-below-rank
search and the radius lists grow the windows 4x per round instead of
materializing neighbor balls, resolving each point as soon as its window
provably contains the answer; windows come back from scipy as arrays, which
keeps the inner loops vectorized.

The k-NN radius alone (``knn_window`` without indices) skips the windows for
most points: the tree returns the three neighbors around the k-th, one exact
squared distance is computed per point, and only points whose tree distances
do not set the k-th neighbor apart go through the windows. The
lowest-rank-in-ball search does not use the windows either: it descends a
hierarchy of kD-trees built per call over blocks of the points in rank order,
so its cost does not grow with the number of points in a ball, and it runs
tile by tile over the ground plane, each tile with the points near it, so its
cost grows linearly with the cloud.

The index is read-only after construction. Only ``knn_window``, one large
query, takes a thread count (``workers``, forwarded to scipy's parallel query
dispatch, with no effect on results); every other query runs on one thread.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .errors import DataError, ParameterError

# soft bound on elements touched per vectorized query round; its 8-byte
# temporaries (35 MB) lie clearly above glibc's 32 MiB ceiling on the dynamic
# mmap threshold, so each is mapped and returned whole instead of coming from
# a heap whose layout, and so the peak memory, depends on earlier frees
_CHUNK_ELEMS = 4_400_000
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


def _sq_dist(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Exact squared distances between broadcast rows of p and q, computed
    as the brute-force oracles compute them."""
    diff = p - q
    return np.einsum("...i,...i->...", diff, diff)


def _sq_dist_cols(cols: tuple, idx: np.ndarray, sub: np.ndarray) -> np.ndarray:
    """Squared distances from point sub[r] to the points idx[r], from the
    per-axis coordinate columns ``cols``, bit-identical to ``_sq_dist``.

    The columns are added in the order in which numpy's ``einsum`` sums a
    length-2 or length-3 last axis: x then y in 2D, (dx^2 + dz^2) + dy^2 in 3D
    (numpy 2.4). That order copies a numpy internal, which the oracles also
    rely on through ``einsum``; ``test_spatial.py`` pins the two against each
    other, so an upgrade that reorders ``einsum`` fails there.
    """
    d2 = None
    for axis in (0, 1) if len(cols) == 2 else (0, 2, 1):
        col = cols[axis]
        t = col[idx]
        t -= col[sub][:, None]
        t *= t
        if d2 is None:
            d2 = t
        else:
            d2 += t
    return d2


def _lowest_in_ball(ranked: np.ndarray, q: np.ndarray, own: np.ndarray, d: float) -> np.ndarray:
    """For each query point q[r], whose own position in the rank-ordered
    points ``ranked`` is own[r], the first position holding a point strictly
    inside its d-ball.

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
    cap = d * d
    bound = d * _BOUND_SLACK
    start = np.zeros(q.shape[0], dtype=np.int64)  # first rank of each candidate block
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
            qr = q[rows]
            _, j = tree.query(qr, k=1, distance_upper_bound=bound)
            hit = np.flatnonzero(j < block.shape[0])
            inside = np.zeros(rows.size, dtype=bool)
            inside[hit] = _sq_dist(block[j[hit]], qr[hit]) < cap
            unsure = hit[~inside[hit]]
            for r, ball in zip(unsure, tree.query_ball_point(qr[unsure], bound)):
                inside[r] = (_sq_dist(block[ball], qr[r]) < cap).any()
            start[rows[~inside]] += half
    out = np.empty(q.shape[0], dtype=np.int64)
    for lo in range(0, q.shape[0], _LEAF_ROWS):
        sub = slice(lo, lo + _LEAF_ROWS)
        pos = np.minimum(start[sub, None] + np.arange(_LEAF), m - 1)
        d2 = _sq_dist(ranked[pos], q[sub, None, :])
        # ranks ascend along a row, and its block holds a ball point ahead of
        # any padding past m
        out[sub] = start[sub] + np.argmax(d2 < cap, axis=1)
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

    def _windows(self, members: np.ndarray, kk: int, workers: int = 1,
                 cached: np.ndarray | None = None):
        """Yield (sub, idx, d2) chunks covering ``members``: idx[r] holds the
        kk nearest points of sub[r] (itself included) and d2[r] their exact
        squared distances. ``cached`` supplies the windows (row per point)
        instead of querying the tree."""
        rows = max(1, _CHUNK_ELEMS // kk)
        for start in range(0, members.shape[0], rows):
            sub = members[start:start + rows]
            if cached is None:
                _, idx = self._tree.query(self.points[sub], k=kk, workers=workers)
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
        """Per-point k-NN radius, optionally with the raw neighbor windows.

        Returns (rho, idx): rho[i] is the squared distance to the k-th nearest
        other point (the k-th order statistic of the squared-distance multiset
        including self equals the k-th excluding self, so coincident
        duplicates need no special casing); idx is the (n, min(n, k+2))
        neighbor-index window when requested, else None.

        Without the window, the tree is asked only for each point's k-th,
        (k+1)-th and (k+2)-th nearest (counted from 1, self first). When its
        distances to the k-th and (k+2)-th differ from the middle one by more
        than the relative ``_BOUND_SLACK``, far above the tree's rounding,
        exactly k points lie strictly nearer than the middle one and all others
        strictly farther, so the middle one's exact squared distance is rho[i].
        Every other point (distance ties, duplicates, rows the tree rounds
        differently) takes rho from its full window, as do all points when the
        window is requested or n < k+2.
        """
        if not 1 <= k <= self.n - 1 or int(k) != k:
            raise ParameterError(f"k must satisfy 1 <= k <= n-1 = {self.n - 1}, got {k}")
        k = int(k)
        kq = min(self.n, k + 2)
        rho = np.empty(self.n, dtype=np.float64)
        rest = np.arange(self.n, dtype=np.int64)
        if not return_indices and kq == k + 2:
            dist, idx = self._tree.query(self.points, k=[k, k + 1, k + 2], workers=workers)
            sep = (dist[:, 0] * _BOUND_SLACK < dist[:, 1]) & (dist[:, 1] * _BOUND_SLACK < dist[:, 2])
            rho[sep] = _sq_dist_cols(self._cols, idx[sep, 1:2], rest[sep])[:, 0]
            rest = rest[~sep]
        all_idx = np.empty((self.n, kq), dtype=np.int32) if return_indices else None
        for sub, idx, d2 in self._windows(rest, kq, workers):
            rho[sub] = np.sort(d2, axis=1)[:, k]
            if return_indices:
                all_idx[sub] = idx
        return rho, all_idx

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
        # d * d must not underflow: the ball would then lose its own centre
        if not (d > 0 and d * d > 0):
            raise ParameterError(f"radius d must be positive, got {d}")
        out = np.empty(self.n, dtype=np.int64)
        order = np.empty(self.n, dtype=np.int64)
        order[rank] = np.arange(self.n)
        for core, region in self._tiles(order, d):
            own = np.searchsorted(rank[region], rank[core])
            out[core] = region[_lowest_in_ball(self.points[region], self.points[core], own, d)]
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
        if d is not None and not d > 0:
            raise ParameterError(f"radius d must be positive, got {d}")
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
