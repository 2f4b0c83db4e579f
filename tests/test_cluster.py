import tracemalloc

import numpy as np
import pytest

from fieldcluster import (
    ContractError,
    CountReport,
    DataError,
    MatchReport,
    ParameterError,
    Params,
    PointCloud,
    SpatialIndex,
    cluster,
    cluster_over_d,
    count_report,
    extract_cores,
    forest_to_labels,
    gdqs_parents,
    gdqspp_assign,
    knn_density_2d,
    match_clusters,
    rain_parents,
    spatial,
    zqs_parents,
)
from fieldcluster.cluster import DensityField, ParentForest, _resolve_to_fixpoint, _sweep_edges
from conftest import make_cloud, make_cloud_with_stems
from oracles import slow_sweep_entries, sweep_rows


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

    def test_parent_rank_ties_finite_and_orders_coincident_by_index(self):
        index2d = SpatialIndex(np.zeros((5, 2)))
        field = DensityField(rho=[0.5, 0.0, 0.2, 0.5, 0.0], k=2, index2d=index2d)
        # the order of the ranks 3, 0, 2, 3, 1: equal finite rho tie, and
        # coincident points 1 and 4 come first, by index
        want = np.array([3, 0, 2, 3, 1])
        rank = field.parent_rank
        assert np.array_equal(rank[:, None] < rank[None, :], want[:, None] < want[None, :])

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

    def test_empty_density_gives_empty_core_set(self):
        empty = PointCloud(np.empty((0, 3)))
        dens = DensityField(rho=np.empty(0), k=2, index2d=SpatialIndex(np.empty((0, 2))))
        cores = extract_cores(empty, dens, 2, 0.3)
        assert cores.cores == () and cores.n == 0
        assert cores.mode_indices.shape == (0,) and cores.mode_indices.dtype == np.int64

    @pytest.mark.parametrize("beta", [0.0, 0.3, 1.0])
    def test_cores_independent_of_entry_order_within_rows(self, monkeypatch, beta):
        # the entry scan hands each row chunk its candidates in the kD-tree's
        # order; neither the sweep's entries nor the cores may follow it
        cloud = PointCloud(make_cloud_with_stems(24, 6, 20, extra=400))
        dens = knn_density_2d(cloud, 8)
        want_edges = _sweep_edges(dens)
        want = extract_cores(cloud, dens, 8, beta)
        scan = SpatialIndex._radius_scan
        rng = np.random.default_rng(25)
        moved = []

        def shuffled(self, rho, step, *, keep=None):
            def permuted(sub, cand, d2):
                perm = rng.permutation(cand.size)
                moved.append(not np.array_equal(perm, np.arange(cand.size)))
                step(sub, cand[perm], d2[:, perm])
            scan(self, rho, permuted, keep=keep)

        monkeypatch.setattr(SpatialIndex, "_radius_scan", shuffled)
        for _ in range(5):
            for a, b in zip(_sweep_edges(dens), want_edges, strict=True):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            got = extract_cores(cloud, dens, 8, beta)
            assert [c.tolist() for c in got.cores] == [c.tolist() for c in want.cores]
            assert got.mode_indices.tolist() == want.mode_indices.tolist()
        assert any(moved)

    def test_entry_scan_skips_what_no_row_keeps(self, monkeypatch):
        # a block gets no candidate that is not earlier than its latest row,
        # nor, when its rows share one link tree, a candidate of that tree;
        # without that cut the same blocks get both, and the same entries.
        # At k = 40 two of the 16 blocks lie in one of the 9 link trees
        dens = knn_density_2d(PointCloud(make_cloud(26, 600)), 40)
        rank = dens.sweep_rank
        scan = SpatialIndex._radius_scan
        blocks = []

        def spy(self, rho, step, *, keep=None):
            def recorded(sub, cand, d2):
                # one chunk per block on a cloud this small
                blocks.append((sub, cand))
                step(sub, cand, d2)
            scan(self, rho, recorded, keep=keep if cut else None)

        monkeypatch.setattr(SpatialIndex, "_radius_scan", spy)
        edges, later, same_tree = {}, {}, {}
        for cut in (True, False):
            blocks.clear()
            edges[cut] = _sweep_edges(dens)
            tree = _resolve_to_fixpoint(edges[cut][0])
            later[cut] = sum(int((rank[cand] >= rank[sub].max()).sum()) for sub, cand in blocks)
            same_tree[cut] = sum(int((tree[cand] == tree[sub[0]]).sum())
                                 for sub, cand in blocks if (tree[sub] == tree[sub[0]]).all())
        assert later[True] == same_tree[True] == 0
        assert later[False] > 0 and same_tree[False] > 0
        for a, b in zip(edges[True], edges[False], strict=True):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("k", [4, 8, 20])
    def test_sweep_entries_match_oracle(self, k):
        # on random clouds a row often reaches another link tree through a
        # mutual neighbor and a nearer non-mutual one; lattice clouds seldom do
        for pts in (make_cloud(27, 300), make_cloud_with_stems(28, 4, 20, extra=200)):
            edges = _sweep_edges(knn_density_2d(PointCloud(pts), k))
            assert sweep_rows(*edges) == slow_sweep_entries(pts, k)

    def test_sweep_memory_does_not_grow_with_k(self, monkeypatch):
        # the sweep keeps O(n) entries and per-chunk temporaries; on this
        # cloud, lists of all earlier neighbors (n * k / 2 entries) peaked at
        # 11.5 MB at k = 25 and 44.8 MB at k = 200, and the sweep at 7.2 MB
        monkeypatch.setattr(spatial, "_CHUNK_ELEMS", 100_000)
        cloud = PointCloud(np.random.default_rng(26).uniform(0.0, 10.0, size=(20_000, 3)))
        peaks = {}
        for k in (25, 200):
            dens = knn_density_2d(cloud, k)
            tracemalloc.start()
            try:
                extract_cores(cloud, dens, k, 0.3)
                peaks[k] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[200] <= 1.5 * peaks[25], peaks


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
        empty = CoreSet((), np.empty(0, np.int64), 4)
        with pytest.raises(ContractError):
            gdqspp_assign(LINE4, dens, empty)


class TestPrebuiltSizes:
    """A prebuilt index passed in must cover exactly the cloud's points, in 3D,
    and a density's own index exactly its points, in 2D."""

    CLOUD = PointCloud(make_cloud(5, 50))

    @pytest.mark.parametrize("parents", [rain_parents, zqs_parents])
    def test_index_of_other_size_rejected(self, parents):
        with pytest.raises(ContractError, match="index covers 80 points, cloud has 50"):
            parents(self.CLOUD, 0.5, index=SpatialIndex(make_cloud(6, 80)))

    def test_index3_of_other_size_rejected(self):
        dens = knn_density_2d(self.CLOUD, 4)
        cores = extract_cores(self.CLOUD, dens, 4, 0.3)
        with pytest.raises(ContractError, match="index3 covers 30 points, cloud has 50"):
            gdqspp_assign(self.CLOUD, dens, cores, index3=SpatialIndex(make_cloud(6, 30)))

    @pytest.mark.parametrize("parents", [rain_parents, zqs_parents])
    def test_2d_index_rejected(self, parents):
        with pytest.raises(ContractError, match="index covers points in 2D, cloud in 3D"):
            parents(self.CLOUD, 0.5, index=SpatialIndex(self.CLOUD.points[:, :2]))

    def test_2d_index3_rejected(self):
        dens = knn_density_2d(self.CLOUD, 4)
        cores = extract_cores(self.CLOUD, dens, 4, 0.3)
        with pytest.raises(ContractError, match="index3 covers points in 2D, cloud in 3D"):
            gdqspp_assign(self.CLOUD, dens, cores, index3=SpatialIndex(self.CLOUD.points[:, :2]))

    def test_index2d_of_other_dimension_or_size_rejected(self):
        rho = knn_density_2d(self.CLOUD, 4).rho
        for index2d in (SpatialIndex(self.CLOUD.points), SpatialIndex(make_cloud(6, 30, dims=2))):
            with pytest.raises(ContractError, match="index2d must cover the 50 points of rho in 2D"):
                DensityField(rho=rho, k=4, index2d=index2d)


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

    def test_fixpoints_keep_int32(self):
        # the core sweep resolves its link trees in int32 to halve their size
        rng = np.random.default_rng(8)
        parent = np.arange(5000)
        parent[1:] = rng.integers(0, np.arange(1, 5000))
        roots = np.flatnonzero(rng.random(5000) < 0.01)
        parent[roots] = roots
        wide = _resolve_to_fixpoint(parent)
        narrow = _resolve_to_fixpoint(parent.astype(np.int32))
        assert narrow.dtype == np.int32
        assert np.array_equal(narrow, wide)

    def test_caller_arrays_stay_writable(self):
        parent = np.array([0, 0, 1])
        forest = ParentForest(parent)
        parent[2] = 2
        assert forest.parent.tolist() == [0, 0, 1]
        with pytest.raises(ValueError):
            forest.parent[0] = 1


def test_empty_input_gives_empty_results():
    empty = PointCloud(np.empty((0, 3)))
    none = np.empty(0, dtype=np.int64)
    assert rain_parents(empty, 0.1).parent.shape == (0,)
    assert zqs_parents(empty, 0.1).parent.shape == (0,)
    labels = forest_to_labels(ParentForest(none))
    assert labels.shape == (0,) and labels.dtype == np.int64
    assert match_clusters(none, none) == MatchReport(0, 0, (), 0.0, 0.0, (), ())
    assert count_report(none, none) == CountReport(0, 0, 0, 0)
    # predictions against a truth that is all ground match nothing
    assert match_clusters([3, 5], [0, 0]) == MatchReport(2, 0, (), 0.0, 0.0, (3, 5), ())
    assert count_report([3, 5], [0, 0]) == CountReport(0, 2, 0, 2)


# the first two points coincide, so a ball whose radius squares to 0 loses them
COINCIDENT = PointCloud(np.array([[0.0, 0, 0], [0, 0, 0], [1, 0, 1]]))
D_CHECKERS = {
    "Params": lambda d: Params("zqs", d=d),
    "rain_parents": lambda d: rain_parents(COINCIDENT, d),
    "zqs_parents": lambda d: zqs_parents(COINCIDENT, d),
    "gdqs_parents": lambda d: gdqs_parents(COINCIDENT, d, knn_density_2d(COINCIDENT, 1)),
    "argmin_rank_in_ball":
        lambda d: SpatialIndex(COINCIDENT.points).argmin_rank_in_ball(np.arange(3), d),
    "nearest_below_rank":
        lambda d: SpatialIndex(COINCIDENT.points).nearest_below_rank(np.arange(3), d=d),
}


class TestDCheck:
    @pytest.mark.parametrize("d", [0.0, -1.0, float("nan"), 1e-200])
    @pytest.mark.parametrize("name", list(D_CHECKERS))
    def test_one_check_and_message_everywhere(self, name, d):
        with pytest.raises(ParameterError) as info:
            D_CHECKERS[name](d)
        assert str(info.value) == f"d must be positive and d*d must not underflow to 0, got {d}"

    def test_params_raise_when_built(self):
        with pytest.raises(ParameterError, match="d must be positive"):
            Params("zqs", d=0.0)
        with pytest.raises(ParameterError, match="missing k"):
            Params("gdqs", d=0.1)


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

    def test_thread_count_above_the_bound_raises(self):
        # refused by the first index built, before any thread starts
        cloud = PointCloud(make_cloud(26, 50))
        for params in (Params("rain", d=0.3), Params("zqs", d=0.3),
                       Params("gdqs", d=0.3, k=8), Params("gdqspp", k=8, beta=0.3)):
            for workers in (spatial._MAX_WORKERS + 1, 100_000):
                with pytest.raises(ParameterError, match="workers"):
                    cluster(cloud, params, workers=workers)

    @pytest.mark.parametrize("workers", [0, spatial._MAX_WORKERS + 1, 10 ** 6])
    def test_thread_count_checked_on_an_empty_cloud(self, monkeypatch, workers):
        # no index is built there, so the call itself checks the count
        built = []
        monkeypatch.setattr(SpatialIndex, "__init__", lambda *args: built.append(args))
        empty = PointCloud(np.empty((0, 3)))
        for params in (Params("rain", d=1.0), Params("zqs", d=1.0),
                       Params("gdqs", d=1.0, k=3), Params("gdqspp", k=3, beta=0.3)):
            with pytest.raises(ParameterError, match="workers"):
                cluster(empty, params, workers=workers)
        assert built == []

    def test_every_index_takes_the_run_thread_count(self, monkeypatch):
        # the gdqspp climb's 3D index takes the density's threads
        built = []
        init = SpatialIndex.__init__

        def spy(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append((self.points.shape[1], self._workers))

        monkeypatch.setattr(SpatialIndex, "__init__", spy)
        cloud = PointCloud(make_cloud(26, 600))
        for params, dims in ((Params("rain", d=0.3), [3]), (Params("zqs", d=0.3), [3]),
                             (Params("gdqs", d=0.3, k=8), [2]),
                             (Params("gdqspp", k=8, beta=0.3), [2, 3])):
            built.clear()
            cluster(cloud, params, workers=2)
            assert built == [(dim, 2) for dim in dims]

    def test_gdqspp_makes_one_radius_scan(self, monkeypatch):
        # the links come from window growth; only the entries need a scan
        scan = SpatialIndex._radius_scan
        calls = []

        def counted(self, *args, **kwargs):
            calls.append(self.n)
            scan(self, *args, **kwargs)

        monkeypatch.setattr(SpatialIndex, "_radius_scan", counted)
        cluster(PointCloud(make_cloud(26, 600)), Params("gdqspp", k=8, beta=0.3))
        assert calls == [600]

    def test_prebuilt_index_and_subset_are_keyword_only(self):
        # a thread count passed positionally must not pass for an index or subset
        cloud = PointCloud(make_cloud(27, 50))
        dens = knn_density_2d(cloud, 4)
        cores = extract_cores(cloud, dens, 4, 0.3)
        for call in (lambda: rain_parents(cloud, 0.3, 2), lambda: zqs_parents(cloud, 0.3, 2),
                     lambda: gdqs_parents(cloud, 0.3, dens, 2),
                     lambda: extract_cores(cloud, dens, 4, 0.3, 2),
                     lambda: gdqspp_assign(cloud, dens, cores, 2),
                     lambda: dens.index2d.nearest_below_rank(dens.parent_rank, 0.3, 2)):
            with pytest.raises(TypeError):
                call()


class TestClusterOverD:
    DS = (0.15, 0.3, 0.5)

    @pytest.mark.parametrize("algo,k", [("rain", None), ("zqs", None), ("gdqs", 8)])
    def test_equals_one_cluster_call_per_d(self, algo, k):
        cloud = PointCloud(make_cloud(28, 500))
        swept = list(cluster_over_d(cloud, algo, self.DS, k))
        cold = [cluster(cloud, Params(algo, d=d, k=k)) for d in self.DS]
        assert len(swept) == len(cold)
        for a, b in zip(swept, cold):
            assert np.array_equal(a, b)

    # what does not depend on d, and the one nearest-below-rank query at the
    # largest d that answers every d of a zqs or gdqs sweep
    @pytest.mark.parametrize("algo,k,method", [("gdqs", 8, "knn_window"),
                                               ("rain", None, "__init__"),
                                               ("zqs", None, "__init__"),
                                               ("zqs", None, "nearest_below_rank"),
                                               ("gdqs", 8, "nearest_below_rank")])
    def test_d_free_structure_built_once(self, monkeypatch, algo, k, method):
        calls = []
        original = getattr(SpatialIndex, method)

        def spy(self, *args, **kwargs):
            calls.append(method)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(SpatialIndex, method, spy)
        cloud = PointCloud(make_cloud(29, 300))
        assert len(list(cluster_over_d(cloud, algo, self.DS, k))) == 3
        assert len(calls) == 1

    @pytest.mark.parametrize("ds", [(0.5, 0.3, 0.15), (0.3, 0.5, 0.15, 0.3),
                                    (0.15, float("inf"), 0.3)],
                             ids=["descending", "shuffled", "inf"])
    @pytest.mark.parametrize("algo,k", [("rain", None), ("zqs", None), ("gdqs", 8)])
    def test_any_order_of_d_equals_cluster(self, algo, k, ds):
        cloud = PointCloud(make_cloud(30, 400))
        for got, d in zip(cluster_over_d(cloud, algo, ds, k), ds, strict=True):
            assert np.array_equal(got, cluster(cloud, Params(algo, d=d, k=k)))

    @pytest.mark.parametrize("algo,k", [("zqs", None), ("gdqs", 2)])
    def test_links_at_exactly_a_swept_d(self, algo, k):
        # an integer lattice with stacked points: many nearest lower links lie
        # at exactly 1 or 2, which an open ball of that radius leaves out
        rng = np.random.default_rng(31)
        sites = rng.integers(0, 8, size=(150, 2)).astype(np.float64)
        cloud = PointCloud(np.column_stack([sites, rng.integers(0, 5, size=150)]))
        ds = (2.0, 1.0, 1.5, 3.0)
        swept = list(cluster_over_d(cloud, algo, ds, k))
        for got, d in zip(swept, ds, strict=True):
            assert np.array_equal(got, cluster(cloud, Params(algo, d=d, k=k)))
        # the radii cut different links, so the check sees them
        assert len({lab.max() for lab in swept}) > 1

    @staticmethod
    def spy_builds(monkeypatch):
        """Record every index build and k-NN scan from here on."""
        calls = []
        for method in ("__init__", "knn_window"):
            def spy(self, *args, _original=getattr(SpatialIndex, method), _name=method,
                    **kwargs):
                calls.append(_name)
                return _original(self, *args, **kwargs)
            monkeypatch.setattr(SpatialIndex, method, spy)
        return calls

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), 1e-200])
    @pytest.mark.parametrize("algo,k", [("rain", None), ("zqs", None), ("gdqs", 8)])
    def test_invalid_d_raises_at_the_call(self, monkeypatch, algo, k, bad):
        cloud = PointCloud(make_cloud(32, 300))
        calls = self.spy_builds(monkeypatch)
        with pytest.raises(ParameterError) as swept:
            cluster_over_d(cloud, algo, (0.3, 0.15, bad, 0.5), k)
        with pytest.raises(ParameterError) as once:
            Params(algo, d=bad, k=k)
        assert str(swept.value) == str(once.value)
        assert calls == []

    @pytest.mark.parametrize("algo", ["rain", "zqs", "gdqs"])
    def test_empty_sweep_yields_and_builds_nothing(self, monkeypatch, algo):
        cloud = PointCloud(make_cloud(32, 300))
        calls = self.spy_builds(monkeypatch)
        k = 8 if algo == "gdqs" else None
        assert list(cluster_over_d(cloud, algo, [], k)) == []
        assert calls == []

    @pytest.mark.parametrize("workers", [0, spatial._MAX_WORKERS + 1, 10 ** 6])
    @pytest.mark.parametrize("algo,k", [("rain", None), ("zqs", None), ("gdqs", 8),
                                        ("gdqspp", 8)])
    def test_bad_thread_count_raises_on_an_empty_sweep(self, monkeypatch, algo, k, workers):
        # checked first, before the algorithm, and on an empty cloud too
        calls = self.spy_builds(monkeypatch)
        for cloud, ds in ((PointCloud(make_cloud(32, 300)), []),
                          (PointCloud(np.empty((0, 3))), self.DS)):
            with pytest.raises(ParameterError, match="workers"):
                cluster_over_d(cloud, algo, ds, k, workers=workers)
        assert calls == []

    @pytest.mark.parametrize("algo,k", [("bogus", None), ("gdqs", -5), ("gdqs", None),
                                        ("gdqspp", 5)])
    def test_bad_algorithm_or_k_raises_on_an_empty_sweep(self, monkeypatch, algo, k):
        cloud = PointCloud(make_cloud(32, 300))
        calls = self.spy_builds(monkeypatch)
        with pytest.raises(ParameterError) as swept:
            cluster_over_d(cloud, algo, [], k)
        with pytest.raises(ParameterError) as once:
            Params(algo, d=0.3, k=k)
        assert str(swept.value) == str(once.value)
        assert calls == []

    def test_edge_cases_match_cluster(self):
        empty = PointCloud(np.empty((0, 3)))
        for algo, k in (("rain", None), ("zqs", None), ("gdqs", 3)):
            assert [lab.size for lab in cluster_over_d(empty, algo, self.DS, k)] == [0, 0, 0]
        single = PointCloud(np.zeros((1, 3)))
        for run in (lambda: cluster(single, Params("gdqs", d=1.0, k=1)),
                    lambda: list(cluster_over_d(single, "gdqs", self.DS, 1))):
            with pytest.raises(DataError, match="'gdqs' needs at least 2 points, got 1"):
                run()
        for run in (lambda: cluster(LINE4, Params("gdqs", d=1.0, k=4)),
                    lambda: list(cluster_over_d(LINE4, "gdqs", self.DS, 4))):
            with pytest.raises(ParameterError, match=r"k must satisfy 1 <= k <= n-1 = 3, got 4"):
                run()


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
