"""Quantitative evaluation: max-sum-IoU bipartite matching between predicted
and ground-truth partitions, plus cluster-count summaries.

Truth label 0 denotes ground/unlabeled points and is excluded from the
matching by default (predicted clusters keep any ground points they contain,
which counts against their IoU through the union term).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError

__all__ = ["iou", "match_clusters", "count_report", "MatchReport", "CountReport"]


def iou(a, b) -> float:
    """Intersection over union of two index sets; 0.0 when both are empty."""
    sa, sb = set(a), set(b)
    union = len(sa | sb)
    if union == 0:
        return 0.0
    return len(sa & sb) / union


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

    @property
    def total_iou(self) -> float:
        return float(sum(p[2] for p in self.pairs))

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


def match_clusters(pred: np.ndarray, truth: np.ndarray,
                   ignore_truth_label_zero: bool = True) -> MatchReport:
    """Exact maximum-weight one-to-one matching of predicted vs truth clusters.

    Solves the rectangular assignment on the IoU matrix; pairs whose IoU is
    zero carry no correspondence and are reported as unmatched. Mean and
    median are taken over matched pairs only.
    """
    # imported here: only matching needs scipy.optimize, and importing it
    # with the package would slow every CLI start-up
    from scipy.optimize import linear_sum_assignment

    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ContractError(
            f"labelings must be 1-D and equally long, got {pred.shape} vs {truth.shape}")
    pred_ids = np.unique(pred)
    truth_ids = np.unique(truth)
    if ignore_truth_label_zero:
        truth_ids = truth_ids[truth_ids != 0]
    mat = _iou_matrix(pred, truth, truth_ids, pred_ids)
    rows, cols = linear_sum_assignment(mat, maximize=True)
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
        return {
            "total_truth_plants": self.total_truth_plants,
            "total_predicted_clusters": self.total_predicted_clusters,
            "multi_plant_clusters": self.multi_plant_clusters,
            "extraneous_clusters": self.extraneous_clusters,
        }


def count_report(pred: np.ndarray, truth: np.ndarray) -> CountReport:
    """Count predicted clusters spanning several plants or containing none.

    A multi-plant cluster holds points of at least two distinct non-zero truth
    labels; an extraneous cluster holds no non-zero truth point at all.
    """
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ContractError(
            f"labelings must be 1-D and equally long, got {pred.shape} vs {truth.shape}")
    pred_ids = np.unique(pred)
    truth_ids = np.unique(truth[truth != 0])
    touched = np.count_nonzero(_count_table(pred, truth, pred_ids, truth_ids), axis=1)
    return CountReport(
        total_truth_plants=int(truth_ids.size),
        total_predicted_clusters=int(pred_ids.size),
        multi_plant_clusters=int((touched >= 2).sum()),
        extraneous_clusters=int((touched == 0).sum()),
    )
