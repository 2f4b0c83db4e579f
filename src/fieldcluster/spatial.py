"""Immutable kD-tree index over 2D or 3D points.

Wraps scipy's cKDTree behind the query semantics the clustering algorithms
rely on:

* all distance comparisons happen in exact squared-distance space, computed
  with the same numpy operations the brute-force test oracles use, so the
  tree path and an O(n^2) scan are bit-for-bit interchangeable;
* balls are open (``dist < d``);
* ties anywhere are broken by the smaller original point index.

Per-point k-NN windows (the kk nearest points, self included, with their
exact squared distances) come from one chunked query loop. The rank-directed
searches grow the windows 4x per round instead of materializing neighbor
balls, resolving each point as soon as its window provably contains the
answer; windows come back from scipy as arrays, which keeps the inner loops
vectorized.

The index is read-only after construction; queries may run from any number
of threads (``workers`` forwards to scipy's parallel query dispatch and has
no effect on results).
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .errors import DataError, ParameterError

# soft bound on elements touched per vectorized query round
_CHUNK_ELEMS = 4_000_000


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
        self._tree = cKDTree(pts) if self.n else None

    # ---------------------------------------------------------------- helpers

    def _sq_dist_to(self, q: np.ndarray, idx: np.ndarray) -> np.ndarray:
        diff = self.points[idx] - q
        return np.einsum("...i,...i->...", diff, diff)

    def _ball_exact(self, i: int, rho: float) -> np.ndarray:
        """All j != i with squared distance <= rho, ascending by index."""
        cand = np.asarray(self._tree.query_ball_point(
            self.points[i], np.sqrt(rho) * (1.0 + 1e-9) + 1e-300, return_sorted=True),
            dtype=np.int64)
        keep = (self._sq_dist_to(self.points[i], cand) <= rho) & (cand != i)
        return cand[keep]

    def _windows(self, members: np.ndarray, kk: int, workers: int):
        """Yield (sub, idx, d2) chunks covering ``members``: idx[r] holds the
        kk nearest points of sub[r] (itself included) and d2[r] their exact
        squared distances."""
        rows = max(1, _CHUNK_ELEMS // kk)
        for start in range(0, members.shape[0], rows):
            sub = members[start:start + rows]
            _, idx = self._tree.query(self.points[sub], k=kk, workers=workers)
            idx = np.atleast_2d(idx).astype(np.int64, copy=False)
            yield sub, idx, self._sq_dist_to(self.points[sub][:, None, :], idx)

    def _expand(self, members: np.ndarray, kk: int, workers: int, resolve) -> None:
        """Grow the windows of unresolved members 4x per round, starting at kk.

        ``resolve(sub, idx, d2, exhausted)`` records the answers a chunk's
        windows settle and returns the mask of settled rows; ``exhausted``
        means the windows hold the whole cloud, and every row must settle then.
        """
        active = members
        while active.size:
            kk = min(kk, self.n)
            done = [resolve(sub, idx, d2, kk >= self.n)
                    for sub, idx, d2 in self._windows(active, kk, workers)]
            active = active[~np.concatenate(done)]
            kk *= 4

    # ------------------------------------------------------------- bulk kNN

    def knn_window(self, k: int, workers: int = 1, return_indices: bool = False):
        """Per-point k-NN radius, optionally with the raw neighbor windows.

        Returns (rho, idx): rho[i] is the squared distance to the k-th nearest
        other point (the k-th order statistic of the squared-distance multiset
        including self equals the k-th excluding self, so coincident
        duplicates need no special casing); idx is the (n, min(n, k+2))
        neighbor-index window when requested, else None.
        """
        if int(k) != k or not 1 <= k <= self.n - 1:
            raise ParameterError(f"k must satisfy 1 <= k <= n-1 = {self.n - 1}, got {k}")
        kq = min(self.n, k + 2)
        rho = np.empty(self.n, dtype=np.float64)
        all_idx = np.empty((self.n, kq), dtype=np.int32) if return_indices else None
        for sub, idx, d2 in self._windows(np.arange(self.n, dtype=np.int64), kq, workers):
            rho[sub] = np.sort(d2, axis=1)[:, k]
            if return_indices:
                all_idx[sub] = idx
        return rho, all_idx

    def directed_radius_lists(self, rho: np.ndarray,
                              knn_idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """CSR lists of {j != i : dist^2(i, j) <= rho[i]} for every member i.

        Filters the provided k-NN windows; rows whose window might cut a tie
        group at exactly rho (window max == rho) fall back to an exact ball
        query. Returns (offsets, flat).
        """
        n = self.n
        offsets = np.zeros(n + 1, dtype=np.int64)
        if n == 0:
            return offsets, np.empty(0, dtype=np.int64)
        kq = knn_idx.shape[1]
        chunks: list[np.ndarray] = []
        rows = max(1, _CHUNK_ELEMS // kq)
        counts = np.empty(n, dtype=np.int64)
        for start in range(0, n, rows):
            stop = min(start + rows, n)
            idx = knn_idx[start:stop].astype(np.int64, copy=False)
            owners = np.arange(start, stop, dtype=np.int64)
            d2 = self._sq_dist_to(self.points[owners][:, None, :], idx)
            keep = (d2 <= rho[owners][:, None]) & (idx != owners[:, None])
            flat = [idx[keep]]
            row_counts = keep.sum(axis=1)
            # a window whose max does not exceed rho may cut a tie group at
            # exactly rho: redo those rows with an exact ball query
            suspect = np.flatnonzero(d2.max(axis=1) <= rho[owners]) if kq < n else \
                np.empty(0, dtype=np.int64)
            if suspect.size:
                exact_rows = {int(r): self._ball_exact(int(owners[r]), float(rho[owners[r]]))
                              for r in suspect}
                per_row = np.split(idx[keep], np.cumsum(row_counts)[:-1])
                flat = [exact_rows.get(r, per_row[r]) for r in range(stop - start)]
                for r, exact in exact_rows.items():
                    row_counts[r] = exact.shape[0]
            counts[start:stop] = row_counts
            chunks.extend(flat)
        np.cumsum(counts, out=counts)
        offsets[1:] = counts
        return offsets, np.concatenate(chunks) if chunks else np.empty(0, np.int64)

    # ------------------------------------------------- rank-directed queries

    def argmin_rank_in_ball(self, rank: np.ndarray, d: float, workers: int = 1) -> np.ndarray:
        """For each member, the point of minimal rank within the open d-ball.

        rank must be a permutation of 0..n-1 (a strict total order); the ball
        always contains the member itself, so the result is total.
        """
        if not d > 0:
            raise ParameterError(f"radius d must be positive, got {d}")
        n = self.n
        order = np.empty(n, dtype=np.int64)
        order[rank] = np.arange(n)
        out = np.empty(n, dtype=np.int64)
        cap = d * d

        def resolve(sub, idx, d2, exhausted):
            # a window reaching the ball's edge holds the whole ball
            best = np.where(d2 < cap, rank[idx], n).min(axis=1)
            done = (d2.max(axis=1) >= cap) | exhausted
            out[sub[done]] = order[best[done]]
            return done

        self._expand(np.arange(n, dtype=np.int64), 8, workers, resolve)
        return out

    def nearest_below_rank(self, rank: np.ndarray, d: float | None = None,
                           workers: int = 1, subset: np.ndarray | None = None) -> np.ndarray:
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
        self._expand(members, 4, workers, resolve)
        return out
