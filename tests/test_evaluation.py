import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.optimize import linear_sum_assignment

from fieldcluster import (ContractError, CountReport, MatchReport, count_report,
                          match_clusters)
from fieldcluster.evaluation import _max_assignment
from oracles import brute_best_matching_sum
from references import iou, total_iou


class TestIou:
    def test_half_overlap(self):
        assert iou({1, 2, 3}, {2, 3, 4}) == 0.5

    def test_identical(self):
        assert iou({1, 2}, {1, 2}) == 1.0

    def test_disjoint(self):
        assert iou({1}, {2}) == 0.0

    def test_both_empty(self):
        assert iou(set(), set()) == 0.0

    @given(st.sets(st.integers(0, 50)), st.sets(st.integers(0, 50)))
    def test_bounds_and_symmetry(self, a, b):
        v = iou(a, b)
        assert 0.0 <= v <= 1.0
        assert v == iou(b, a)
        if a == b and a:
            assert v == 1.0


def random_labelings(seed, n, c_pred, c_truth, with_ground=False):
    rng = np.random.default_rng(seed)
    pred = rng.integers(1, c_pred + 1, size=n)
    truth = rng.integers(0 if with_ground else 1, c_truth + 1, size=n)
    return pred, truth


class TestMatchClusters:
    def test_dominant_diagonal(self):
        # two clusters overlapping mostly with their same-id counterpart
        pred = np.array([1] * 9 + [2] * 1 + [2] * 8 + [1] * 2)
        truth = np.array([1] * 10 + [2] * 10)
        report = match_clusters(pred, truth)
        assert [(p, t) for p, t, _ in report.pairs] == [(1, 1), (2, 2)]
        assert report.mean_iou == pytest.approx((9 / 12 + 8 / 11) / 2)

    def test_rectangular_case(self):
        # 3 predicted vs 2 truth clusters -> 2 pairs, 1 unmatched predicted
        pred = np.array([1, 1, 1, 2, 2, 2, 3, 3])
        truth = np.array([1, 1, 1, 1, 2, 2, 2, 2])
        report = match_clusters(pred, truth)
        assert len(report.pairs) == 2
        assert report.num_predicted == 3 and report.num_truth == 2
        assert len(report.unmatched_predicted) == 1
        assert report.unmatched_truth == ()

    @pytest.mark.parametrize("seed", range(8))
    def test_sum_matches_brute_force(self, seed):
        pred, truth = random_labelings(seed, 60, 5, 6)
        report = match_clusters(pred, truth)
        # independent brute-force maximum over all one-to-one matchings
        ids_p, ids_t = np.unique(pred), np.unique(truth)
        mat = np.zeros((ids_p.size, ids_t.size))
        for i, p in enumerate(ids_p):
            for j, t in enumerate(ids_t):
                mat[i, j] = iou(set(np.flatnonzero(pred == p)),
                                set(np.flatnonzero(truth == t)))
        assert total_iou(report) == pytest.approx(brute_best_matching_sum(mat), abs=1e-12)

    @pytest.mark.parametrize("seed", range(100))
    def test_assignment_solver_matches_brute_force(self, seed):
        rng = np.random.default_rng(1000 + seed)
        mat = rng.random((rng.integers(1, 8), rng.integers(1, 8)))
        rows, cols = _max_assignment(mat)
        assert mat[rows, cols].sum() == pytest.approx(brute_best_matching_sum(mat), abs=1e-12)

    @pytest.mark.parametrize("kind", ["uniform", "integers", "sparse", "zeros"])
    def test_assignment_solver_equals_scipy(self, kind):
        # scipy is the oracle: the same rows and cols, ties included, on 1,250
        # matrices of each kind and their transposes (10,000 in all)
        for seed in range(1250):
            rng = np.random.default_rng(seed)
            shape = tuple(rng.integers(1, 13, size=2))
            if kind == "uniform":
                mat = rng.random(shape)
            elif kind == "integers":
                mat = rng.integers(0, 3, size=shape).astype(np.float64)
            elif kind == "sparse":
                mat = np.where(rng.random(shape) < 0.7, 0.0,
                               rng.integers(1, 10, size=shape) / 10)
            else:
                mat = np.zeros(shape)
            for m in (mat, mat.T):
                rows, cols = _max_assignment(m)
                want_rows, want_cols = linear_sum_assignment(m, maximize=True)
                assert rows.tolist() == want_rows.tolist(), (seed, m)
                assert cols.tolist() == want_cols.tolist(), (seed, m)

    @pytest.mark.parametrize("seed", range(5))
    def test_symmetry(self, seed):
        pred, truth = random_labelings(100 + seed, 80, 5, 5)
        a = match_clusters(pred, truth, ignore_truth_label_zero=False)
        b = match_clusters(truth, pred, ignore_truth_label_zero=False)
        assert total_iou(a) == pytest.approx(total_iou(b), abs=1e-12)
        assert {(t, p) for p, t, _ in a.pairs} == {(p, t) for p, t, _ in b.pairs}

    def test_ground_excluded_by_default(self):
        pred = np.array([1, 1, 2, 2])
        truth = np.array([0, 0, 1, 1])
        report = match_clusters(pred, truth)
        assert report.num_truth == 1
        assert report.pairs == ((2, 1, 1.0),)
        included = match_clusters(pred, truth, ignore_truth_label_zero=False)
        assert included.num_truth == 2
        assert total_iou(included) == pytest.approx(2.0)

    def test_relabeling_invariance(self):
        pred, truth = random_labelings(7, 90, 4, 4)
        base = match_clusters(pred, truth)
        perm = {1: 17, 2: 3, 3: 99, 4: 8}
        relabeled = np.vectorize(perm.get)(pred)
        report = match_clusters(relabeled, truth)
        assert report.mean_iou == pytest.approx(base.mean_iou)
        assert report.median_iou == pytest.approx(base.median_iou)
        assert 0.0 <= report.mean_iou <= 1.0 and 0.0 <= report.median_iou <= 1.0

    def test_identical_labelings_give_unit_iou(self):
        labels = np.array([1, 1, 2, 3, 3, 3])
        report = match_clusters(labels, labels)
        assert report.mean_iou == 1.0 and report.median_iou == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            match_clusters(np.array([1, 2]), np.array([1]))

    def test_empty_labelings(self):
        # a 0 x 0 IoU matrix
        report = match_clusters(np.empty(0, int), np.empty(0, int))
        assert report == MatchReport(0, 0, (), 0.0, 0.0, (), ())

    def test_all_ground_truth(self):
        # every truth label is the ignored 0: an m x 0 IoU matrix
        report = match_clusters(np.array([1, 1, 2, 5]), np.zeros(4, int))
        assert report == MatchReport(3, 0, (), 0.0, 0.0, (1, 2, 5), ())

    def test_report_dict_is_stable(self):
        pred, truth = random_labelings(3, 40, 3, 3)
        a = match_clusters(pred, truth).to_dict()
        b = match_clusters(pred, truth).to_dict()
        assert a == b
        assert list(a) == ["num_predicted", "num_truth", "pairs", "mean_iou",
                           "median_iou", "unmatched_predicted", "unmatched_truth"]


class TestCountReport:
    def test_identity_prediction(self):
        truth = np.array([0, 0, 1, 1, 2, 2])
        report = count_report(truth, truth)
        assert report.multi_plant_clusters == 0
        assert report.extraneous_clusters == 1  # the pure-ground cluster

    def test_cluster_spanning_two_plants(self):
        pred = np.array([1, 1, 1, 1])
        truth = np.array([1, 1, 2, 2])
        assert count_report(pred, truth).multi_plant_clusters == 1

    def test_table_profile(self):
        # target profile: 136 plants, 144 predicted clusters, 4 of them
        # spanning two plants, the surplus on ground only
        rng = np.random.default_rng(0)
        truth_parts = [np.full(5, lab) for lab in range(1, 137)]
        pred_parts = [np.full(5, lab) for lab in range(1, 137)]
        for i in range(4):  # 4 predicted clusters each swallow a second plant
            pred_parts[2 * i + 1] = np.full(5, pred_parts[2 * i][0])
        extra = 144 - np.unique(np.concatenate(pred_parts)).size
        ground_pred = rng.integers(500, 500 + extra, size=60)
        ground_pred[:extra] = np.arange(500, 500 + extra)  # all ids present
        truth = np.concatenate(truth_parts + [np.zeros(60, dtype=int)])
        pred = np.concatenate(pred_parts + [ground_pred])
        report = count_report(pred, truth)
        assert report.total_truth_plants == 136
        assert report.total_predicted_clusters == 144
        assert report.multi_plant_clusters == 4

    def test_labels_beyond_int32(self):
        # a pair code pred * (truth.max() + 1) + truth overflows int64 here
        big = 4_000_000_000
        pred = np.array([big, big, big + 7, big + 7])
        truth = np.array([big, big + 1, big + 1, big + 1])
        assert count_report(pred, truth) == CountReport(2, 2, 1, 0)

    def test_empty(self):
        report = count_report(np.empty(0, int), np.empty(0, int))
        assert report.total_predicted_clusters == 0
