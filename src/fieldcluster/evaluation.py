"""Quantitative evaluation: max-sum-IoU bipartite matching between predicted
and ground-truth partitions, plus cluster-count summaries.

The matching is solved in this module by the rectangular shortest augmenting
path algorithm of D. F. Crouse, "On implementing 2D rectangular assignment
algorithms", IEEE TAES 52(4), 2016, as scipy's ``linear_sum_assignment``
runs it, with its tie rule: among the unscanned columns at the lowest path
cost it takes the last free one, else the first. So the pairs equal scipy's,
ties included, and matching imports no part of scipy.

Truth label 0 denotes ground/unlabeled points and is excluded from the
matching by default (predicted clusters keep any ground points they contain,
which counts against their IoU through the union term).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ContractError

__all__ = ["match_clusters", "count_report", "MatchReport", "CountReport"]


@dataclass(frozen=True)
class MatchReport:
    """One-to-one cluster matching maximizing the summed IoU."""

    num_predicted: int
    num_truth: int
    pairs: tuple  # (predicted id, truth id, iou), ascending by predicted id
    mean_iou: float
    median_iou: float
    unmatched_predicted: tuple
    unmatched_truth: tuple

    def to_dict(self) -> dict:
        return {
            "num_predicted": self.num_predicted,
            "num_truth": self.num_truth,
            "pairs": [
                {"predicted": int(p), "truth": int(t), "iou": float(v)}
                for p, t, v in self.pairs
            ],
            "mean_iou": self.mean_iou,
            "median_iou": self.median_iou,
            "unmatched_predicted": [int(i) for i in self.unmatched_predicted],
            "unmatched_truth": [int(i) for i in self.unmatched_truth],
        }


def _labelings(pred, truth) -> tuple[np.ndarray, np.ndarray]:
    """Both labelings as int64 arrays, checked to be 1-D and equally long."""
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ContractError(
            f"labelings must be 1-D and equally long, got {pred.shape} vs {truth.shape}")
    return pred, truth


def _count_table(pred: np.ndarray, truth: np.ndarray, pred_ids: np.ndarray,
                 truth_ids: np.ndarray) -> np.ndarray:
    """Dense |pred_ids| x |truth_ids| table of how many points each (predicted,
    truth) pair shares; points whose truth label is not in truth_ids count
    nowhere."""
    keep = np.isin(truth, truth_ids)
    pi = np.searchsorted(pred_ids, pred[keep])
    ti = np.searchsorted(truth_ids, truth[keep])
    shape = (pred_ids.shape[0], truth_ids.shape[0])
    return np.bincount(pi * shape[1] + ti, minlength=shape[0] * shape[1]).reshape(shape)


def _iou_matrix(pred: np.ndarray, truth: np.ndarray, truth_ids: np.ndarray,
                pred_ids: np.ndarray) -> np.ndarray:
    """Dense |pred_ids| x |truth_ids| IoU matrix from two labelings whose
    predicted ids all occur in pred, so that no union is empty."""
    inter = _count_table(pred, truth, pred_ids, truth_ids)
    pred_sizes = np.bincount(np.searchsorted(pred_ids, pred), minlength=pred_ids.shape[0])
    return inter / (pred_sizes[:, None] + inter.sum(axis=0) - inter)


def _max_assignment(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of a maximum-sum one-to-one assignment on a finite float
    matrix: the arrays scipy's ``linear_sum_assignment(mat, maximize=True)``
    returns.

    Minimizes -mat (its transpose when it has more rows than columns), adding
    one row at a time along a shortest augmenting path (Crouse 2016). Each
    step scans the unscanned columns in ``remaining`` order, which starts at
    nc-1 and removes a slot by moving the last live entry into it, and moves to
    the lowest path cost: the last free column at that cost, else the first.
    """
    transpose = mat.shape[0] > mat.shape[1]
    cost = np.ascontiguousarray(-(mat.T if transpose else mat))
    nr, nc = cost.shape
    u = np.zeros(nr)
    v = np.zeros(nc)
    path = np.full(nc, -1, dtype=np.intp)
    col4row = np.full(nr, -1, dtype=np.intp)
    row4col = np.full(nc, -1, dtype=np.intp)
    for cur in range(nr):
        short = np.full(nc, np.inf)
        seen_rows = np.zeros(nr, dtype=bool)
        seen_cols = np.zeros(nc, dtype=bool)
        remaining = np.arange(nc - 1, -1, -1, dtype=np.intp)
        live = nc
        min_val = 0.0
        i = cur
        while True:
            seen_rows[i] = True
            rem = remaining[:live]
            r = min_val + cost[i, rem] - u[i] - v[rem]
            old = short[rem]
            better = r < old
            path[rem[better]] = i
            costs = np.where(better, r, old)
            short[rem] = costs
            min_val = costs.min()
            at = np.flatnonzero(costs == min_val)
            free = at[row4col[rem[at]] < 0]
            index = free[-1] if free.size else at[0]
            j = remaining[index]
            seen_cols[j] = True
            live -= 1
            remaining[index] = remaining[live]
            if row4col[j] < 0:
                break
            i = row4col[j]
        # update the duals, then flip the path from the sink j back to cur
        u[cur] += min_val
        seen_rows[cur] = False
        u[seen_rows] += min_val - short[col4row[seen_rows]]
        v[seen_cols] -= min_val - short[seen_cols]
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    if transpose:
        order = np.argsort(col4row)
        return col4row[order], order
    return np.arange(nr), col4row


def match_clusters(pred: np.ndarray, truth: np.ndarray,
                   ignore_truth_label_zero: bool = True) -> MatchReport:
    """Exact maximum-weight one-to-one matching of predicted vs truth clusters.

    Solves the rectangular assignment on the IoU matrix with Crouse's shortest
    augmenting path algorithm (IEEE TAES 52(4), 2016), breaking ties as
    scipy's ``linear_sum_assignment`` does (the last free column at the lowest
    path cost, else the first), so the pairs equal scipy's. Pairs whose IoU is
    zero carry no correspondence and are reported as unmatched. Mean and
    median are taken over matched pairs only.
    """
    pred, truth = _labelings(pred, truth)
    pred_ids = np.unique(pred)
    truth_ids = np.unique(truth)
    if ignore_truth_label_zero:
        truth_ids = truth_ids[truth_ids != 0]
    mat = _iou_matrix(pred, truth, truth_ids, pred_ids)
    rows, cols = _max_assignment(mat)
    pairs = sorted(
        (int(pred_ids[r]), int(truth_ids[c]), float(mat[r, c]))
        for r, c in zip(rows, cols) if mat[r, c] > 0.0
    )
    matched_pred = {p for p, _, _ in pairs}
    matched_truth = {t for _, t, _ in pairs}
    ious = np.asarray([v for _, _, v in pairs], dtype=np.float64)
    return MatchReport(
        num_predicted=int(pred_ids.size),
        num_truth=int(truth_ids.size),
        pairs=tuple(pairs),
        mean_iou=float(ious.mean()) if ious.size else 0.0,
        median_iou=float(np.median(ious)) if ious.size else 0.0,
        unmatched_predicted=tuple(int(i) for i in pred_ids if int(i) not in matched_pred),
        unmatched_truth=tuple(int(i) for i in truth_ids if int(i) not in matched_truth),
    )


@dataclass(frozen=True)
class CountReport:
    """Cluster-count summary against a ground truth that labels ground 0."""

    total_truth_plants: int
    total_predicted_clusters: int
    multi_plant_clusters: int
    extraneous_clusters: int

    def to_dict(self) -> dict:
        return asdict(self)


def count_report(pred: np.ndarray, truth: np.ndarray) -> CountReport:
    """Count predicted clusters spanning several plants or containing none.

    A multi-plant cluster holds points of at least two distinct non-zero truth
    labels; an extraneous cluster holds no non-zero truth point at all.
    """
    pred, truth = _labelings(pred, truth)
    pred_ids = np.unique(pred)
    truth_ids = np.unique(truth[truth != 0])
    touched = np.count_nonzero(_count_table(pred, truth, pred_ids, truth_ids), axis=1)
    return CountReport(
        total_truth_plants=int(truth_ids.size),
        total_predicted_clusters=int(pred_ids.size),
        multi_plant_clusters=int((touched >= 2).sum()),
        extraneous_clusters=int((touched == 0).sum()),
    )
