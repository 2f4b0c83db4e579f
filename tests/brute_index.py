"""Drop-in replacement for SpatialIndex backed by a dense O(n^2) distance
matrix instead of a kD-tree. Running the clustering pipeline over this index
is the 'brute-force neighbor scan' route of the oracle-equivalence check."""

from __future__ import annotations

import numpy as np

from fieldcluster import SpatialIndex


class BruteIndex:
    def __init__(self, points: np.ndarray):
        pts = np.ascontiguousarray(np.asarray(points, dtype=np.float64))
        self.points = pts
        self.n = pts.shape[0]
        diff = pts[:, None, :] - pts[None, :, :]
        self._d2 = np.einsum("ijk,ijk->ij", diff, diff)

    def knn_window(self, k, return_indices=False):
        rho = np.sort(self._d2, axis=1)[:, k]
        idx = None
        if return_indices:
            kq = min(self.n, k + 2)
            idx = np.argsort(self._d2, axis=1, kind="stable")[:, :kq].astype(np.int32)
        return rho, idx

    def _radius_scan(self, rho, step, *, keep=None):
        # one chunk: every point against every point, none of them dropped
        step(np.arange(self.n), np.arange(self.n), self._d2)

    # the kD-tree's reduction over this index's one-chunk scan
    directed_radius_lists = SpatialIndex.directed_radius_lists

    def argmin_rank_in_ball(self, rank, d):
        order = np.empty(self.n, dtype=np.int64)
        order[rank] = np.arange(self.n)
        masked = np.where(self._d2 < d * d, rank[None, :], self.n)
        return order[masked.min(axis=1)]

    def nearest_below_rank(self, rank, d=None, *, reach=None, subset=None):
        cap = np.inf if d is None else d * d
        ok = (rank[None, :] < rank[:, None]) & (self._d2 < cap)
        if reach is not None:
            ok &= self._d2 <= reach[None, :]
        np.fill_diagonal(ok, False)
        d2_ok = np.where(ok, self._d2, np.inf)
        best = d2_ok.min(axis=1)
        cand = np.where(ok & (d2_ok == best[:, None]), np.arange(self.n)[None, :], self.n)
        out = np.where(np.isfinite(best), cand.min(axis=1), -1)
        if subset is not None:
            masked_out = np.full(self.n, -1, dtype=np.int64)
            masked_out[subset] = out[subset]
            return masked_out
        return out.astype(np.int64)
