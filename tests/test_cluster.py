import numpy as np
import pytest

from fieldcluster import (
    ContractError,
    DataError,
    ParameterError,
    Params,
    PointCloud,
    cluster,
    extract_cores,
    forest_to_labels,
    gdqs_parents,
    gdqspp_assign,
    knn_density_2d,
    rain_parents,
    zqs_parents,
)
from fieldcluster.cluster import DensityField, ParentForest
from conftest import make_cloud


STEM = PointCloud(np.array([[0.0, 0, 0], [0, 0, 0.5], [0, 0, 1.0]]))
TRIPLE = PointCloud(np.array([[0.0, 0, 0], [0.1, 0, 0.5], [0, 0, 0.9]]))
LINE4 = PointCloud(np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0], [10, 0, 0]]))


def partition(labels):
    return {tuple(np.flatnonzero(labels == lab)) for lab in np.unique(labels)}


class TestRain:
    def test_stacked_stem_chains_to_base(self):
        forest = rain_parents(STEM, 0.6)
        assert forest.parent.tolist() == [0, 0, 1]
        assert forest_to_labels(forest).tolist() == [1, 1, 1]

    def test_small_d_gives_singletons(self):
        forest = rain_parents(STEM, 0.4)
        assert forest.parent.tolist() == [0, 1, 2]
        assert forest_to_labels(forest).tolist() == [1, 2, 3]

    def test_links_to_lowest_not_nearest(self):
        forest = rain_parents(TRIPLE, 1.0)
        assert forest.parent[2] == 0  # lowest in ball, though point 1 is nearer

    def test_z_tie_broken_by_index(self):
        flat = PointCloud(np.array([[0.0, 0, 0], [0.1, 0, 0]]))
        assert rain_parents(flat, 1.0).parent.tolist() == [0, 0]

    def test_d_validation(self):
        with pytest.raises(ParameterError):
            rain_parents(STEM, 0.0)

    def test_z_never_increases_along_edges(self):
        cloud = PointCloud(make_cloud(21, 400))
        parent = rain_parents(cloud, 0.4).parent
        z = cloud.points[:, 2]
        moved = parent != np.arange(400)
        assert (z[parent[moved]] <= z[moved]).all()


class TestZqs:
    def test_stacked_stem(self):
        forest = zqs_parents(STEM, 0.6)
        assert forest.parent.tolist() == [0, 0, 1]
        assert forest_to_labels(forest).tolist() == [1, 1, 1]

    def test_links_to_nearest_lower(self):
        forest = zqs_parents(TRIPLE, 1.2)
        assert forest.parent[2] == 1  # nearest lower, unlike rain

    def test_identical_z_all_roots_except_index_ties(self):
        # strict lowering over (z, index): equal z resolves by index
        flat = PointCloud(np.array([[0.0, 0, 0], [5.0, 0, 0], [10.0, 0, 0]]))
        assert zqs_parents(flat, 100.0).parent.tolist() == [0, 0, 1]
        # but out of range -> all roots
        assert zqs_parents(flat, 1.0).parent.tolist() == [0, 1, 2]

    def test_nearest_lower_property(self):
        cloud = PointCloud(make_cloud(22, 300))
        d = 0.5
        parent = zqs_parents(cloud, d).parent
        pts, z = cloud.points, cloud.points[:, 2]
        n = 300
        key = list(zip(z, range(n)))
        for i in range(n):
            if parent[i] == i:
                continue
            pd = np.sum((pts[i] - pts[parent[i]]) ** 2)
            for j in range(n):
                if j != i and key[j] < key[i] and np.sum((pts[i] - pts[j]) ** 2) < d * d:
                    assert pd <= np.sum((pts[i] - pts[j]) ** 2)


class TestKnnDensity:
    def test_line_example(self):
        dens = knn_density_2d(LINE4, 2)
        assert dens.values.tolist() == [0.25, 1.0, 0.25, 1.0 / 81.0]
        assert dens.sweep_order[0] == 1  # unique mode

    def test_coincident_projections_infinite_by_index(self):
        cloud = PointCloud(np.array([[0.0, 0, 0], [0, 0, 1], [0, 0, 2]]))
        dens = knn_density_2d(cloud, 2)
        assert np.isinf(dens.values).all()
        assert dens.sweep_order.tolist() == [0, 1, 2]

    def test_uniform_scale_preserves_ratios(self):
        dens = knn_density_2d(LINE4, 2)
        scaled = knn_density_2d(PointCloud(LINE4.points * 4.0), 2)
        ratio = dens.values / scaled.values
        assert np.allclose(ratio, 16.0)
        assert np.array_equal(dens.sweep_rank, scaled.sweep_rank)

    def test_k_validation(self):
        for k in (0, 4, float("inf"), float("nan")):
            with pytest.raises(ParameterError):
                knn_density_2d(LINE4, k)
        for k in (float("inf"), float("nan")):
            with pytest.raises(ParameterError):
                Params("gdqspp", k=k, beta=0.3).validate()

    def test_caller_arrays_stay_writable(self):
        dens = knn_density_2d(LINE4, 2)
        rho = dens.rho.copy()
        field = DensityField(rho=rho, k=2, index2d=dens.index2d)
        rho[0] = 7.0
        assert field.rho[0] == dens.rho[0]
        with pytest.raises(ValueError):
            field.rho[0] = 1.0


class TestGdqs:
    def test_line_example(self):
        dens = knn_density_2d(LINE4, 2)
        forest = gdqs_parents(LINE4, 1.5, dens)
        assert forest.parent.tolist() == [1, 1, 1, 3]
        assert forest_to_labels(forest).tolist() == [1, 1, 1, 2]

    def test_small_d_singletons(self):
        dens = knn_density_2d(LINE4, 2)
        assert gdqs_parents(LINE4, 0.5, dens).parent.tolist() == [0, 1, 2, 3]

    def test_equal_finite_density_does_not_parent(self):
        pair = PointCloud(np.array([[0.0, 0, 0], [1.0, 0, 0]]))
        dens = knn_density_2d(pair, 1)
        assert dens.values.tolist() == [1.0, 1.0]
        assert gdqs_parents(pair, 5.0, dens).parent.tolist() == [0, 1]

    def test_coincident_projections_parent_by_index(self):
        cloud = PointCloud(np.array([[0.0, 0, 0], [0, 0, 1], [0, 0, 2]]))
        dens = knn_density_2d(cloud, 2)
        assert gdqs_parents(cloud, 0.5, dens).parent.tolist() == [0, 0, 0]

    def test_density_length_mismatch(self):
        dens = knn_density_2d(LINE4, 2)
        with pytest.raises(ContractError):
            gdqs_parents(STEM, 1.0, dens)


class TestExtractCores:
    def test_two_clumps_one_core_each(self):
        pts = np.array([[0.0, 0], [0.1, 0], [0.2, 0], [5, 0], [5.1, 0], [5.2, 0]])
        cloud = PointCloud(np.column_stack([pts, np.zeros(6)]))
        dens = knn_density_2d(cloud, 2)
        cores = extract_cores(cloud, dens, 2, 0.3)
        assert len(cores.cores) == 2
        assert cores.mode_indices.tolist() == [1, 4]  # the clump centers
        # the mid-sweep lock freezes each mode before its clump merges; the
        # full clumps reassemble in the assignment step
        labels = gdqspp_assign(cloud, dens, cores)
        assert labels.tolist() == [1, 1, 1, 2, 2, 2]

    def test_single_tight_clump_single_full_core(self):
        cloud = PointCloud(np.zeros((5, 3)))
        dens = knn_density_2d(cloud, 2)
        for beta in (0.1, 0.3, 0.7, 1.0):
            cores = extract_cores(cloud, dens, 2, beta)
            assert len(cores.cores) == 1
            assert cores.cores[0].tolist() == [0, 1, 2, 3, 4]

    def test_beta_one_cores_are_mutual_graph_components(self):
        pts = np.array([[0.0, 0], [0.1, 0], [0.2, 0], [5, 0], [5.1, 0], [5.2, 0]])
        cloud = PointCloud(np.column_stack([pts, np.zeros(6)]))
        dens = knn_density_2d(cloud, 2)
        cores = extract_cores(cloud, dens, 2, 1.0)
        assert [c.tolist() for c in cores.cores] == [[0, 1, 2], [3, 4, 5]]

    def test_beta_zero_coincident_mode_locks_alone(self):
        cloud = PointCloud(np.zeros((4, 3)))
        dens = knn_density_2d(cloud, 2)
        cores = extract_cores(cloud, dens, 2, 0.0)
        assert [c.tolist() for c in cores.cores] == [[0]]
        assert gdqspp_assign(cloud, dens, cores).tolist() == [1, 1, 1, 1]

    def test_beta_validation(self):
        dens = knn_density_2d(LINE4, 2)
        with pytest.raises(ParameterError):
            extract_cores(LINE4, dens, 2, 1.5)

    def test_k_mismatch_rejected(self):
        dens = knn_density_2d(LINE4, 2)
        with pytest.raises(ContractError):
            extract_cores(LINE4, dens, 3, 0.3)

    def test_cores_disjoint_and_modes_densest(self):
        cloud = PointCloud(make_cloud(23, 500))
        dens = knn_density_2d(cloud, 8)
        cores = extract_cores(cloud, dens, 8, 0.3)
        seen = np.zeros(500, dtype=bool)
        for members, mode in zip(cores.cores, cores.mode_indices):
            assert not seen[members].any()
            seen[members] = True
            assert dens.sweep_rank[mode] == dens.sweep_rank[members].min()


class TestGdqsppAssign:
    def test_stems_and_leaf(self):
        pts = np.array([
            [0.0, 0, 0], [0, 0, 1], [0, 0, 2],
            [5.0, 0, 0], [5, 0, 1], [5, 0, 2],
            [0.3, 0, 2],
        ])
        cloud = PointCloud(pts)
        dens = knn_density_2d(cloud, 2)
        cores = extract_cores(cloud, dens, 2, 0.3)
        assert [c.tolist() for c in cores.cores] == [[0, 1, 2], [3, 4, 5]]
        labels = gdqspp_assign(cloud, dens, cores)
        assert labels.tolist() == [1, 1, 1, 2, 2, 2, 1]

    def test_all_points_in_cores_is_core_membership(self):
        pts = np.array([[0.0, 0], [0.1, 0], [5, 0], [5.1, 0]])
        cloud = PointCloud(np.column_stack([pts, np.zeros(4)]))
        dens = knn_density_2d(cloud, 1)
        cores = extract_cores(cloud, dens, 1, 1.0)
        assert sum(len(c) for c in cores.cores) == 4
        labels = gdqspp_assign(cloud, dens, cores)
        member = cores.membership()
        for ci in range(len(cores.cores)):
            assert np.unique(labels[member == ci]).size == 1

    def test_scale_invariance_small(self):
        cloud = PointCloud(make_cloud(24, 400))
        base = cluster(cloud, Params("gdqspp", k=12, beta=0.3))
        for s in (2.0 ** -6, 2.0 ** 9, 0.01):
            scaled = cluster(PointCloud(cloud.points * s), Params("gdqspp", k=12, beta=0.3))
            assert np.array_equal(base, scaled), f"scale {s} changed the labeling"

    def test_empty_cores_rejected(self):
        from fieldcluster.cluster import CoreSet
        dens = knn_density_2d(LINE4, 2)
        empty = CoreSet((), np.empty(0, np.int64), np.empty(0, float), 4)
        with pytest.raises(ContractError):
            gdqspp_assign(LINE4, dens, empty)


class TestForestToLabels:
    def test_two_trees(self):
        assert forest_to_labels(ParentForest([0, 0, 1, 3])).tolist() == [1, 1, 1, 2]

    def test_all_roots(self):
        assert forest_to_labels(ParentForest([0, 1, 2])).tolist() == [1, 2, 3]

    def test_chain(self):
        parent = [0] + list(range(999))
        assert np.unique(forest_to_labels(ParentForest(parent))).tolist() == [1]

    def test_cycle_detected(self):
        with pytest.raises(ContractError, match="cycle"):
            forest_to_labels(ParentForest([1, 0]))

    def test_empty(self):
        assert forest_to_labels(ParentForest(np.empty(0, np.int64))).size == 0

    def test_caller_arrays_stay_writable(self):
        parent = np.array([0, 0, 1])
        forest = ParentForest(parent)
        parent[2] = 2
        assert forest.parent.tolist() == [0, 0, 1]
        with pytest.raises(ValueError):
            forest.parent[0] = 1


class TestClusterDispatch:
    def test_rain_composition(self):
        direct = forest_to_labels(rain_parents(STEM, 0.6))
        assert np.array_equal(cluster(STEM, Params("rain", d=0.6)), direct)

    def test_gdqspp_rejects_d(self):
        with pytest.raises(ParameterError, match="not accept d"):
            cluster(LINE4, Params("gdqspp", d=1.0, k=2, beta=0.3))

    def test_gdqs_rejects_beta(self):
        with pytest.raises(ParameterError, match="not accept beta"):
            cluster(LINE4, Params("gdqs", d=1.0, k=2, beta=0.3))

    def test_rain_requires_d(self):
        with pytest.raises(ParameterError, match="missing d"):
            cluster(STEM, Params("rain"))

    def test_unknown_algorithm(self):
        with pytest.raises(ParameterError, match="unknown algorithm"):
            cluster(STEM, Params("meanshift", d=1.0))

    def test_density_algorithms_need_two_points(self):
        single = PointCloud(np.zeros((1, 3)))
        with pytest.raises(DataError):
            cluster(single, Params("gdqspp", k=1, beta=0.3))

    def test_empty_cloud_gives_empty_labeling(self):
        empty = PointCloud(np.empty((0, 3)))
        for params in (Params("rain", d=1.0), Params("zqs", d=1.0),
                       Params("gdqs", d=1.0, k=3), Params("gdqspp", k=3, beta=0.3)):
            assert cluster(empty, params).size == 0

    def test_labels_consecutive_from_one(self):
        cloud = PointCloud(make_cloud(25, 500))
        for params in (Params("rain", d=0.3), Params("zqs", d=0.3),
                       Params("gdqs", d=0.3, k=8), Params("gdqspp", k=8, beta=0.3)):
            labels = cluster(cloud, params)
            assert labels.min() == 1
            assert np.array_equal(np.unique(labels), np.arange(1, labels.max() + 1))

    def test_deterministic_across_workers(self):
        cloud = PointCloud(make_cloud(26, 600))
        for params in (Params("rain", d=0.3), Params("zqs", d=0.3),
                       Params("gdqs", d=0.3, k=8), Params("gdqspp", k=8, beta=0.3)):
            a = cluster(cloud, params, workers=1)
            b = cluster(cloud, params, workers=2)
            assert np.array_equal(a, b)


class TestRigidMotionInvariance:
    @pytest.mark.parametrize("params", [
        Params("rain", d=0.35), Params("zqs", d=0.35),
        Params("gdqs", d=0.35, k=8), Params("gdqspp", k=8, beta=0.3),
    ], ids=lambda p: p.algorithm)
    def test_translation_and_z_rotation(self, params):
        cloud = PointCloud(make_cloud(27, 350))
        base = partition(cluster(cloud, params))
        shifted = cloud.points + np.array([13.7, -4.1, 2.9])
        assert partition(cluster(PointCloud(shifted), params)) == base
        theta = 0.7
        rot = np.array([[np.cos(theta), -np.sin(theta), 0],
                        [np.sin(theta), np.cos(theta), 0],
                        [0, 0, 1.0]])
        rotated = cloud.points @ rot.T
        assert partition(cluster(PointCloud(rotated), params)) == base


class TestAcyclicity:
    @pytest.mark.parametrize("seed", [31, 32])
    def test_parent_chains_reach_roots(self, seed):
        cloud = PointCloud(make_cloud(seed, 400))
        dens = knn_density_2d(cloud, 6)
        forests = [
            rain_parents(cloud, 0.4),
            zqs_parents(cloud, 0.4),
            gdqs_parents(cloud, 0.4, dens),
        ]
        for forest in forests:
            labels = forest_to_labels(forest)  # raises on a cycle
            assert labels.shape == (400,)
