import numpy as np
import pytest

from fieldcluster import DataError, ParameterError, PointCloud, SpatialIndex, spatial
from fieldcluster.cluster import rain_parents
from brute_index import BruteIndex
from conftest import make_cloud, make_cloud_with_stems
from oracles import brute_kth_sq, slow_rain_parents, sq_dist_matrix


LINE3 = np.array([[0.0, 0, 0], [1, 0, 0], [3, 0, 0]])
IDENTITY3 = np.arange(3)


def sweep_rank(rho):
    """Rank under (rho, index) ascending, as DensityField.sweep_rank."""
    return np.lexsort((np.arange(len(rho)), rho)).argsort()


def radius_rows(offsets, flat, mutual):
    """Per row: the set of listed neighbors and the set of mutual ones."""
    return [(set(flat[a:b].tolist()), set(flat[a:b][mutual[a:b]].tolist()))
            for a, b in zip(offsets[:-1], offsets[1:])]


def brute_argmin_rank_in_ball(D2, rank, d):
    out = []
    for i in range(len(D2)):
        nbr = np.flatnonzero(D2[i] < d * d)
        out.append(int(nbr[np.argmin(rank[nbr])]))
    return out


def far_line_cloud(*near):
    """200 points, in four rank blocks of up to 64: point 0 at the origin
    and ranked last, then ``near`` ranked first, then a line of points 10 and
    more away."""
    pts = np.zeros((200, 3))
    pts[1:1 + len(near)] = near
    pts[1 + len(near):, 0] = 10.0 + np.arange(199 - len(near))
    return pts, np.roll(np.arange(200), 1)


def brute_nearest_below_rank(D2, rank, d=None, members=None):
    cap = np.inf if d is None else d * d
    n = len(D2)
    out = [-1] * n
    for i in range(n) if members is None else members:
        cand = [j for j in range(n) if j != i and rank[j] < rank[i] and D2[i, j] < cap]
        if cand:
            out[i] = min(cand, key=lambda j: (D2[i, j], j))
    return out


class TestRadiusNeighbors:
    """Open d-ball semantics of the two rank queries that read balls."""

    def test_basic(self):
        idx = SpatialIndex(LINE3)
        assert idx.argmin_rank_in_ball(np.array([1, 0, 2]), 1.5).tolist() == [1, 1, 2]
        assert idx.nearest_below_rank(IDENTITY3, d=1.5).tolist() == [-1, 0, -1]

    def test_strict_inequality(self):
        idx = SpatialIndex(LINE3)
        # point 1 lies at exactly d = 1 from point 0: outside the open ball
        assert idx.argmin_rank_in_ball(np.array([1, 0, 2]), 1.0).tolist() == [0, 1, 2]
        assert idx.nearest_below_rank(IDENTITY3, d=1.0).tolist() == [-1, -1, -1]
        just_above = np.nextafter(1.0, 2.0)
        assert idx.argmin_rank_in_ball(np.array([1, 0, 2]), just_above).tolist() == [1, 1, 2]
        assert idx.nearest_below_rank(IDENTITY3, d=just_above).tolist() == [-1, 0, -1]

    def test_strict_inequality_across_blocks(self):
        # point 1 lies at exactly d = 1 from point 0, in another rank block
        pts, rank = far_line_cloud([1.0, 0, 0])
        D2 = sq_dist_matrix(pts)
        for d, want in ((1.0, 0), (np.nextafter(1.0, 2.0), 1)):
            got = SpatialIndex(pts).argmin_rank_in_ball(rank, d)
            assert got[0] == want
            assert got.tolist() == brute_argmin_rank_in_ball(D2, rank, d)

    def test_tree_rounding_disagrees_at_edge(self):
        # from point 0, point 1 lies exactly on the edge of the d-ball and
        # point 2 strictly inside it; scipy sums the squares in another order
        # and rounds point 1 nearer, so the descent must not trust its nearest
        pts, rank = far_line_cloud([0.661, 0.204, 0.564], [0.661, 0.564, 0.204])
        d = 0.8925429961632101
        D2 = sq_dist_matrix(pts)
        assert D2[0, 1] == d * d > D2[0, 2]
        got = SpatialIndex(pts).argmin_rank_in_ball(rank, d)
        assert got[0] == 2
        assert got.tolist() == brute_argmin_rank_in_ball(D2, rank, d)

    def test_far_query_empty(self):
        idx = SpatialIndex(LINE3)
        assert idx.nearest_below_rank(IDENTITY3, d=0.5).tolist() == [-1, -1, -1]

    def test_self_included_for_members(self):
        idx = SpatialIndex(LINE3)
        assert idx.argmin_rank_in_ball(np.array([2, 1, 0]), 0.5).tolist() == [0, 1, 2]

    def test_d_nonpositive(self):
        idx = SpatialIndex(LINE3)
        for d in (0.0, -1.0):
            with pytest.raises(ParameterError):
                idx.argmin_rank_in_ball(IDENTITY3, d)
            with pytest.raises(ParameterError):
                idx.nearest_below_rank(IDENTITY3, d=d)
        # a radius whose square underflows leaves even the centre outside
        with pytest.raises(ParameterError):
            idx.argmin_rank_in_ball(IDENTITY3, 1e-200)

    def test_ordered_by_distance_then_index(self):
        pts = np.array([[1.0, 0], [-1.0, 0], [0.5, 0], [2.0, 0], [0.0, 0]])
        idx = SpatialIndex(pts)
        # from the origin (point 4): distances 1, 1, 0.5, 2 to points 0..3
        assert idx.nearest_below_rank(np.array([0, 1, 2, 3, 4]), d=1.5)[4] == 2
        # with point 2 ranked above the origin, 0 and 1 tie at distance 1
        assert idx.nearest_below_rank(np.array([1, 0, 4, 2, 3]), d=1.5)[4] == 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("d", [0.1, 0.5, 1.0, 5.0])
    def test_matches_brute_force(self, seed, d):
        pts = make_cloud(seed, 300)
        idx = SpatialIndex(pts)
        rank = np.random.default_rng(seed + 99).permutation(300)
        D2 = sq_dist_matrix(pts)
        assert idx.argmin_rank_in_ball(rank, d).tolist() == brute_argmin_rank_in_ball(D2, rank, d)
        assert idx.nearest_below_rank(rank, d=d).tolist() == brute_nearest_below_rank(D2, rank, d)


class TestKthNeighborDistance:
    """rho from knn_window: the squared distance to the k-th nearest other point."""

    def test_line_examples(self):
        pts = np.array([[0.0, 0], [1, 0], [2, 0], [10, 0]])
        rho, _ = SpatialIndex(pts).knn_window(2)
        assert rho.tolist() == [4.0, 1.0, 4.0, 81.0]

    def test_coincident_duplicates_give_zero(self):
        rho, _ = SpatialIndex(np.zeros((3, 2))).knn_window(2)
        assert rho.tolist() == [0.0, 0.0, 0.0]

    def test_k_equals_n_minus_1_is_farthest(self):
        pts = np.array([[0.0, 0], [1, 0], [2, 0], [10, 0]])
        rho, _ = SpatialIndex(pts).knn_window(3)
        assert rho.tolist() == [100.0, 81.0, 64.0, 100.0]

    def test_k_out_of_range(self):
        idx = SpatialIndex(LINE3)
        for k in (3, 0, 1.5, float("inf"), float("nan")):
            with pytest.raises(ParameterError):
                idx.knn_window(k)

    @pytest.mark.parametrize("seed,n", [(3, 200), (4, 500)])
    def test_matches_brute_force(self, seed, n):
        pts = make_cloud(seed, n)
        idx = SpatialIndex(pts)
        D2 = sq_dist_matrix(pts)
        for k in (1, 2, 7, 16):
            rho, _ = idx.knn_window(k)
            assert rho.tolist() == [brute_kth_sq(D2, i, k) for i in range(n)]

    def test_matches_brute_force_with_stems(self):
        pts = make_cloud_with_stems(5, 4, 12, extra=20)[:, :2]
        idx = SpatialIndex(pts)
        D2 = sq_dist_matrix(pts)
        for k in (1, 5, 11, 12, 15):
            rho, _ = idx.knn_window(k)
            assert rho.tolist() == [brute_kth_sq(D2, i, k) for i in range(len(pts))]

    def test_tree_rounding_disagrees_at_kth(self):
        # points 1 and 2 lie at the same tree distance from point 0, which
        # returns point 1 second although its exact squared distance is the
        # larger: its k = 1 radius must come from the full window
        pts, _ = far_line_cloud([0.661, 0.204, 0.564], [0.661, 0.564, 0.204])
        idx = SpatialIndex(pts)
        D2 = sq_dist_matrix(pts)
        _, tree_order = idx._tree.query(pts[0], k=[1, 2, 3])
        assert tree_order.tolist() == [0, 1, 2] and D2[0, 1] > D2[0, 2]
        rho, _ = idx.knn_window(1)
        assert rho[0] == D2[0, 2]
        assert np.array_equal(rho, idx.knn_window(1, return_indices=True)[0])
        assert rho.tolist() == [brute_kth_sq(D2, i, 1) for i in range(len(pts))]

    @pytest.mark.parametrize("cloud", ["lattice", "duplicates", "random2d", "random3d"])
    def test_radius_alone_matches_windowed_radius(self, cloud):
        rng = np.random.default_rng(31)
        pts = {
            "lattice": lambda: rng.integers(0, 7, size=(300, 2)).astype(np.float64),
            "duplicates": lambda: make_cloud_with_stems(32, 5, 20, extra=40)[:, :2],
            "random2d": lambda: make_cloud(33, 300, dims=2),
            "random3d": lambda: make_cloud(34, 300),
        }[cloud]()
        idx = SpatialIndex(pts)
        D2 = sq_dist_matrix(pts)
        n = len(pts)
        for k in (1, 4, 19, 20, 64, n - 2, n - 1):
            rho, _ = idx.knn_window(k)
            assert np.array_equal(rho, idx.knn_window(k, return_indices=True)[0])
            assert rho.tolist() == [brute_kth_sq(D2, i, k) for i in range(n)]


class TestColumnSquaredDistance:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_einsum_bit_for_bit(self, dim):
        # the column sum copies einsum's summation order; a numpy that sums
        # in another order fails here, not only in the label digests
        rng = np.random.default_rng(40 + dim)
        diff = rng.standard_normal((2_000_000, dim))
        extreme = rng.random(diff.shape) < 0.2
        diff[extreme] *= 10.0 ** rng.uniform(-170, 170, size=np.count_nonzero(extreme))
        diff[rng.random(diff.shape) < 0.01] = -0.0
        pts = np.vstack([diff, np.zeros((1, dim))])
        cols = tuple(pts[:, a] for a in range(dim))
        idx = np.arange(len(diff)).reshape(1000, -1)
        with np.errstate(over="ignore"):
            got = spatial._sq_dist_cols(cols, idx, np.full(1000, len(diff)))
            want = np.einsum("...i,...i->...", diff, diff).reshape(1000, -1)
            naive = (diff * diff).cumsum(axis=1)[:, -1].reshape(1000, -1)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        if dim == 3:
            # the data tells summation orders apart
            assert not np.array_equal(want, naive)


class TestNearestSatisfying:
    """Unbounded nearest_below_rank: nearest point satisfying 'ranked lower'."""

    def test_keyed_example(self):
        pts = np.array([[0.0, 0], [1, 0], [3, 0]])
        # rank[j] < rank[i] iff key[j] > key[i] for key = [1, 2, 3]
        idx = SpatialIndex(pts)
        assert idx.nearest_below_rank(np.array([2, 1, 0])).tolist() == [1, 2, -1]

    def test_always_false(self):
        idx = SpatialIndex(LINE3)
        assert idx.nearest_below_rank(np.array([1, 0, 2]))[1] == -1
        assert SpatialIndex(np.zeros((1, 3))).nearest_below_rank(np.array([0])).tolist() == [-1]

    def test_equidistant_tie_smaller_index(self):
        pts = np.array([[0.0, 0], [1, 0], [-1, 0]])
        idx = SpatialIndex(pts)
        # 1 and 2 are both ranked below 0 and equally far: the index decides
        assert idx.nearest_below_rank(np.array([2, 0, 1]))[0] == 1
        assert idx.nearest_below_rank(np.array([2, 1, 0]))[0] == 1

    @pytest.mark.parametrize("seed", [6, 7])
    def test_matches_brute_force(self, seed):
        pts = make_cloud(seed, 250)
        idx = SpatialIndex(pts)
        rng = np.random.default_rng(seed)
        rank = rng.permutation(250)
        members = np.unique(rng.integers(0, 250, size=40))
        got = idx.nearest_below_rank(rank, subset=members)
        want = brute_nearest_below_rank(sq_dist_matrix(pts), rank, members=members.tolist())
        assert got.tolist() == want


class TestBulkQueries:
    @pytest.mark.parametrize("seed", [8, 9])
    def test_kth_sq_distances_match_brute(self, seed):
        pts = make_cloud(seed, 400, dims=2)
        idx = SpatialIndex(pts)
        D2 = sq_dist_matrix(pts)
        for k in (1, 3, 16):
            rho, win = idx.knn_window(k, return_indices=True)
            assert rho.tolist() == [brute_kth_sq(D2, i, k) for i in range(400)]
            # the window holds the k+2 nearest points, self included
            assert win.shape == (400, k + 2)
            assert (win == np.arange(400)[:, None]).any(axis=1).all()
            win_d2 = np.sort(np.take_along_axis(D2, win.astype(np.int64), axis=1), axis=1)
            assert np.array_equal(win_d2, np.sort(D2, axis=1)[:, :k + 2])

    def test_directed_radius_lists_match_brute(self):
        pts = make_cloud_with_stems(10, 3, 9, extra=30)[:, :2]
        idx = SpatialIndex(pts)
        k = 4
        rho, win = idx.knn_window(k, return_indices=True)
        rank = sweep_rank(rho)
        got = idx.directed_radius_lists(rho, rank, win)
        want = BruteIndex(pts).directed_radius_lists(rho, rank, win)
        assert got[1].dtype == np.int32
        assert np.array_equal(got[0], want[0])
        assert radius_rows(*got) == radius_rows(*want)

    def test_directed_radius_lists_regrow_tie_group(self):
        # the centre (last index, so last among equal rho) has four neighbors
        # at exactly rho = 1; its k+2 = 3 window holds only two of them
        pts = np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1], [0, 0]])
        idx = SpatialIndex(pts)
        rho, win = idx.knn_window(1, return_indices=True)
        assert rho.tolist() == [1.0] * 5 and win.shape == (5, 3)
        rank = sweep_rank(rho)
        got = idx.directed_radius_lists(rho, rank, win)
        want = BruteIndex(pts).directed_radius_lists(rho, rank, win)
        assert got[0].tolist() == want[0].tolist() == [0, 0, 0, 0, 0, 4]
        assert radius_rows(*got) == radius_rows(*want)
        assert radius_rows(*got)[4] == ({0, 1, 2, 3}, {0, 1, 2, 3})

    def test_argmin_rank_in_ball_matches_brute(self):
        pts = make_cloud(11, 300)
        idx = SpatialIndex(pts)
        rank = np.random.default_rng(11).permutation(300)
        D2 = sq_dist_matrix(pts)
        for d in (0.05, 0.3, 1.0):
            assert idx.argmin_rank_in_ball(rank, d).tolist() == \
                brute_argmin_rank_in_ball(D2, rank, d)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_argmin_rank_in_ball_descends_on_lattice_ties(self, seed):
        # n >= 512 points in rank blocks of 64: the query descends three or
        # more levels, and lattice radii put many points exactly on the edge
        rng = np.random.default_rng(seed)
        sites = rng.integers(0, [8, 8, 6], size=(480, 3))
        pts = np.concatenate([sites, sites[rng.integers(0, 480, size=120)]]).astype(np.float64)
        idx = SpatialIndex(pts)
        rank = rng.permutation(len(pts))
        D2 = sq_dist_matrix(pts)
        for d in (1.0, np.sqrt(2.0), 2.0):
            assert idx.argmin_rank_in_ball(rank, d).tolist() == \
                brute_argmin_rank_in_ball(D2, rank, d)
            assert np.array_equal(rain_parents(PointCloud(pts), d).parent,
                                  slow_rain_parents(pts, d))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_argmin_rank_in_ball_across_tiles(self, seed, monkeypatch):
        # tiles of at most 40 points and at least d wide: most balls cross a
        # cut, on generic coordinates and on lattice points exactly d apart
        monkeypatch.setattr(spatial, "_TILE_POINTS", 40)
        monkeypatch.setattr(spatial, "_TILE_MIN_SIDE", 1)
        rng = np.random.default_rng(seed)
        sites = rng.integers(0, [20, 10, 4], size=(700, 3))
        lattice = np.concatenate([sites, sites[rng.integers(0, 700, size=100)]])
        for pts, radii in ((make_cloud(20 + seed, 800), (0.1, 0.25, 0.5)),
                           (lattice.astype(np.float64), (1.0, np.sqrt(2.0), 2.0))):
            idx = SpatialIndex(pts)
            rank = rng.permutation(len(pts))
            D2 = sq_dist_matrix(pts)
            for d in radii:
                cores = [core for core, _ in idx._tiles(np.argsort(rank), d)]
                assert len(cores) >= 8
                assert np.array_equal(np.sort(np.concatenate(cores)), np.arange(len(pts)))
                assert idx.argmin_rank_in_ball(rank, d).tolist() == \
                    brute_argmin_rank_in_ball(D2, rank, d)

    def test_argmin_rank_in_ball_coarse_coordinates(self, monkeypatch):
        # at 2^40 the coordinates round to 2^-12, too coarse for a margin of
        # 0.0625 * d to clear rounding: one tile holds every point
        monkeypatch.setattr(spatial, "_TILE_POINTS", 40)
        monkeypatch.setattr(spatial, "_TILE_MIN_SIDE", 1)
        pts = make_cloud(22, 800) + [2.0 ** 40, 2.0 ** 40, 0.0]
        idx = SpatialIndex(pts)
        rank = np.random.default_rng(22).permutation(len(pts))
        order = np.argsort(rank)
        D2 = sq_dist_matrix(pts)
        for d in (0.1, 0.25):
            (core, region), = idx._tiles(order, d)
            assert np.array_equal(core, np.arange(len(pts)))
            assert np.array_equal(region, order)
            assert idx.argmin_rank_in_ball(rank, d).tolist() == \
                brute_argmin_rank_in_ball(D2, rank, d)

    def test_nearest_below_rank_matches_brute(self):
        pts = make_cloud(12, 300)
        idx = SpatialIndex(pts)
        rank = np.random.default_rng(12).permutation(300)
        D2 = sq_dist_matrix(pts)
        for d in (0.2, 1.0, None):
            assert idx.nearest_below_rank(rank, d=d).tolist() == \
                brute_nearest_below_rank(D2, rank, d)


class TestBuild:
    def test_empty_index(self):
        idx = SpatialIndex(np.empty((0, 3)))
        assert idx.n == 0
        empty = np.empty(0, dtype=np.int64)
        assert idx.argmin_rank_in_ball(empty, 1.0).size == 0
        assert idx.nearest_below_rank(empty).size == 0

    def test_single_point(self):
        idx = SpatialIndex(np.zeros((1, 3)))
        assert idx.argmin_rank_in_ball(np.array([0]), 0.5).tolist() == [0]

    def test_non_finite_rejected(self):
        with pytest.raises(DataError, match="index 1"):
            SpatialIndex(np.array([[0.0, 0], [np.inf, 0]]))

    def test_bad_shape_rejected(self):
        with pytest.raises(DataError):
            SpatialIndex(np.zeros((3, 4)))

    def test_duplicates_allowed(self):
        idx = SpatialIndex(np.zeros((5, 2)))
        assert idx.argmin_rank_in_ball(np.array([4, 3, 2, 1, 0]), 1.0).tolist() == [4] * 5
        assert idx.nearest_below_rank(np.arange(5), d=1.0).tolist() == [-1, 0, 0, 0, 0]
        assert idx.knn_window(4)[0].tolist() == [0.0] * 5

    def test_caller_array_stays_writable(self):
        pts = np.zeros((4, 2))
        idx = SpatialIndex(pts)
        pts[0, 0] = 7.0
        assert idx.points[0, 0] == 0.0
        with pytest.raises(ValueError):
            idx.points[0, 0] = 1.0
