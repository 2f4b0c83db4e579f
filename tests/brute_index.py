"""Drop-in replacement for SpatialIndex backed by a dense O(n^2) distance
matrix instead of a kD-tree. Running the clustering pipeline over this index
is the 'brute-force neighbor scan' route of the oracle-equivalence check."""

from __future__ import annotations

import numpy as np


class BruteIndex:
    def __init__(self, points: np.ndarray):
        pts = np.ascontiguousarray(np.asarray(points, dtype=np.float64))
        self.points = pts
        self.n = pts.shape[0]
        diff = pts[:, None, :] - pts[None, :, :]
        self._d2 = np.einsum("ijk,ijk->ij", diff, diff)

    def knn_window(self, k, workers=1, return_indices=False):
        rho = np.sort(self._d2, axis=1)[:, k]
        idx = None
        if return_indices:
            kq = min(self.n, k + 2)
            idx = np.argsort(self._d2, axis=1, kind="stable")[:, :kq].astype(np.int32)
        return rho, idx

    def directed_radius_lists(self, rho, rank, knn_idx):
        mask = (self._d2 <= rho[:, None]) & (rank[None, :] < rank[:, None])
        owners, flat = np.nonzero(mask)
        offsets = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(owners, minlength=self.n), out=offsets[1:])
        return offsets, flat.astype(np.int32), self._d2[owners, flat] <= rho[flat]

    def argmin_rank_in_ball(self, rank, d):
        order = np.empty(self.n, dtype=np.int64)
        order[rank] = np.arange(self.n)
        masked = np.where(self._d2 < d * d, rank[None, :], self.n)
        return order[masked.min(axis=1)]

    def nearest_below_rank(self, rank, d=None, workers=1, subset=None):
        cap = np.inf if d is None else d * d
        ok = (rank[None, :] < rank[:, None]) & (self._d2 < cap)
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
