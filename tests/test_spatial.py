import sys
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from fieldcluster import DataError, ParameterError, PointCloud, SpatialIndex, spatial
from fieldcluster.cluster import _order_and_rank, _sweep_edges, rain_parents
from brute_index import BruteIndex
from conftest import make_cloud, make_cloud_with_stems
from oracles import brute_kth_sq, slow_rain_parents, sq_dist_matrix


LINE3 = np.array([[0.0, 0, 0], [1, 0, 0], [3, 0, 0]])
IDENTITY3 = np.arange(3)


def sweep_edges(index, rho, workers=1):
    """The core sweep's links and entries (link, eoff, early, mutual) over
    ``index``, 2D or 3D, under rho: ``_sweep_edges`` reads only these three
    fields of a density, whose own index must be 2D."""
    density = SimpleNamespace(rho=rho, sweep_rank=_order_and_rank(rho)[1], index2d=index)
    return _sweep_edges(density, workers)


def assert_same_bytes(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def brute_argmin_rank_in_ball(D2, rank, d):
    out = []
    for i in range(len(D2)):
        nbr = np.flatnonzero(D2[i] < d * d)
        out.append(int(nbr[np.argmin(rank[nbr])]))
    return out


def far_line_cloud(*near):
    """200 points: point 0 at the origin and ranked last, then ``near``
    ranked first, then a line of points 10 and more away."""
    pts = np.zeros((200, 3))
    pts[1:1 + len(near)] = near
    pts[1 + len(near):, 0] = 10.0 + np.arange(199 - len(near))
    return pts, np.roll(np.arange(200), 1)


def brute_nearest_below_rank(D2, rank, d=None, members=None, reach=None):
    cap = np.inf if d is None else d * d
    n = len(D2)
    out = [-1] * n
    for i in range(n) if members is None else members:
        cand = [j for j in range(n) if j != i and rank[j] < rank[i] and D2[i, j] < cap
                and (reach is None or D2[i, j] <= reach[j])]
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
        # point 1 lies at exactly d = 1 from point 0, ranked far below it
        pts, rank = far_line_cloud([1.0, 0, 0])
        D2 = sq_dist_matrix(pts)
        for d, want in ((1.0, 0), (np.nextafter(1.0, 2.0), 1)):
            got = SpatialIndex(pts).argmin_rank_in_ball(rank, d)
            assert got[0] == want
            assert got.tolist() == brute_argmin_rank_in_ball(D2, rank, d)

    def test_tree_rounding_disagrees_at_edge(self):
        # from point 0, point 1 lies exactly on the edge of the d-ball and
        # point 2 strictly inside it; scipy sums the squares in another order
        # and rounds point 1 nearer, so the query must not trust the tree's d^2
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
        # larger: its k = 1 radius must follow the exact squared distances
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
            check_reach(idx, pts, rho)


def sweep_rank(rho):
    """The core sweep's order: rho ascending, then index."""
    rank = np.empty(len(rho), dtype=np.int64)
    rank[np.argsort(rho, kind="stable")] = np.arange(len(rho))
    return rank


def check_reach(idx, pts, rho):
    """nearest_below_rank with reach rho under the sweep's rank (the core
    sweep's links) against the dense index."""
    rank = sweep_rank(rho)
    got = idx.nearest_below_rank(rank, reach=rho)
    assert np.array_equal(got, BruteIndex(pts).nearest_below_rank(rank, reach=rho))
    return got


def check_knn_window(pts, ks):
    """rho and the window, with and without indices, the radius scan under
    rho, and the core sweep's links and entries, against the dense matrix."""
    idx = SpatialIndex(pts)
    D2 = sq_dist_matrix(pts)
    n = len(pts)
    for k in ks:
        kq = min(n, k + 2)
        rho, _ = idx.knn_window(k)
        rho_w, win = idx.knn_window(k, return_indices=True)
        assert rho.tolist() == rho_w.tolist() == [brute_kth_sq(D2, i, k) for i in range(n)]
        assert win.dtype == np.int32 and win.shape == (n, kq)
        assert (np.diff(np.sort(win, axis=1), axis=1) > 0).all()
        win_d2 = np.sort(np.take_along_axis(D2, win.astype(np.int64), axis=1), axis=1)
        assert np.array_equal(win_d2, np.sort(D2, axis=1)[:, :kq])
        check_radius_scan(idx, D2, rho)
        check_directed_lists(idx, D2, rho)
        check_reach(idx, pts, rho)
        assert_same_bytes(sweep_edges(idx, rho), sweep_edges(BruteIndex(pts), rho))


def check_radius_scan(idx, D2, rho):
    """radius_scan under rho against the dense matrix: the chunks' rows cover
    every point once, each chunk's d2 is bit-equal to the matrix, and its
    candidates hold every j with D2[i, j] <= rho[i], ties at rho included."""
    seen = []

    def step(sub, cand, d2):
        assert np.unique(cand).size == cand.size
        assert np.array_equal(d2.view(np.uint64), D2[np.ix_(sub, cand)].view(np.uint64))
        # the candidates' d2 are exact, so equal counts mean none is missing
        ball = rho[sub][:, None]
        assert np.array_equal(np.count_nonzero(d2 <= ball, axis=1),
                              np.count_nonzero(D2[sub] <= ball, axis=1))
        seen.append(sub)

    idx.radius_scan(rho, step)
    assert np.array_equal(np.sort(np.concatenate(seen)), np.arange(len(rho)))


def check_directed_lists(idx, D2, rho, workers=1):
    """directed_radius_lists against the dense matrix: with one group per
    point, every earlier neighbor within rho[i], ascending, mutual ones
    marked; with two and three groups, the other groups among those
    neighbors, ascending, each mutual iff one of its neighbors is. Returns
    the number of rows with several groups and of (row, group) pairs with
    both mutual and other neighbors, at three groups."""
    n = len(rho)
    rank = np.random.default_rng(n).permutation(n)
    offsets, flat, mutual = idx.directed_radius_lists(rho, rank, np.arange(n), workers=workers)
    assert offsets.dtype == flat.dtype == np.int64 and mutual.dtype == bool
    for i in range(n):
        want = np.flatnonzero((D2[i] <= rho[i]) & (rank < rank[i]))
        assert flat[offsets[i]:offsets[i + 1]].tolist() == want.tolist()
        assert mutual[offsets[i]:offsets[i + 1]].tolist() == (D2[i, want] <= rho[want]).tolist()
    for groups in (2, 3):
        group = np.arange(n) % groups
        offsets, flat, mutual = idx.directed_radius_lists(rho, rank, group, workers=workers)
        several = mixed = 0
        for i in range(n):
            near = np.flatnonzero((D2[i] <= rho[i]) & (rank < rank[i]) & (group != group[i]))
            near_mutual = D2[i, near] <= rho[near]
            gs = np.unique(group[near])
            per_group = [near_mutual[group[near] == g] for g in gs]
            want = [(int(g), bool(m.any())) for g, m in zip(gs, per_group)]
            got = list(zip(flat[offsets[i]:offsets[i + 1]].tolist(),
                           mutual[offsets[i]:offsets[i + 1]].tolist()))
            assert got == want
            several += len(want) > 1
            mixed += sum(m.any() and not m.all() for m in per_group)
    return several, mixed


class TestBlockScan:
    """knn_window, radius_scan and the core sweep's entries on clouds that
    stress their blocks and candidate balls."""

    @pytest.mark.parametrize("dims", [2, 3])
    def test_all_points_coincident(self, dims):
        # one leaf of 100 coincident points, beyond the block size
        check_knn_window(np.full((100, dims), 0.3), (1, 5, 98, 99))

    def test_near_coincident_blocks_far_apart(self):
        # clusters of 40 points within 1e-9 of their centre, centres 1e3
        # apart: the k-th neighbor of most points lies in another cluster
        rng = np.random.default_rng(50)
        centres = np.repeat(np.arange(5)[:, None] * [1e3, 0.5e3], 40, axis=0)
        pts = centres + rng.uniform(-1e-9, 1e-9, size=centres.shape)
        check_knn_window(pts, (1, 20, 39, 40, 41, 79, 80, 150, 199))

    def test_block_straddles_two_clusters(self):
        # 40 points near the origin and 8 near (1e4, 1e4): the tree cuts 48
        # points into halves of 24, so one block holds points of both
        rng = np.random.default_rng(51)
        pts = np.concatenate([rng.normal(0.0, 1e-3, size=(40, 2)),
                              1e4 + rng.normal(0.0, 1e-3, size=(8, 2))])
        idx = SpatialIndex(pts)
        starts = idx._blocks(spatial._BLOCK)
        blocks = np.split(idx._tree.indices, starts[1:-1])
        assert any((b < 40).any() and (b >= 40).any() for b in blocks)
        check_knn_window(pts, (1, 6, 7, 8, 9, 23, 39, 40, 46, 47))

    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    @pytest.mark.parametrize("dims", [2, 3])
    def test_extreme_magnitudes(self, scale, dims):
        check_knn_window(make_cloud(52, 300, dims=dims) * scale, (1, 7, 64, 298, 299))

    @pytest.mark.parametrize("dims", [2, 3])
    def test_fewer_points_than_a_block(self, dims):
        pts = make_cloud(53, 20, dims=dims)
        assert SpatialIndex(pts)._blocks(spatial._BLOCK).tolist() == [0, 20]
        check_knn_window(pts, range(1, 20))

    def test_lattice_ties_in_3d(self):
        rng = np.random.default_rng(54)
        sites = rng.integers(0, [6, 6, 4], size=(300, 3))
        pts = np.concatenate([sites, sites[rng.integers(0, 300, size=60)]]).astype(np.float64)
        check_knn_window(pts, (1, 6, 26, 100, 358, 359))

    def test_same_result_at_any_thread_count(self, monkeypatch):
        # groups of 2 blocks are one super-block each: the 600 points make 33
        # blocks of the density in 4 super-blocks, and 16 of the radius scans
        # in 2, so several threads take groups of several blocks
        monkeypatch.setattr(spatial, "_GROUP", 2)
        pts = make_cloud_with_stems(55, 6, 30, extra=420)[:, :2]
        idx = SpatialIndex(pts)
        assert idx._blocks(spatial._BLOCK).size - 1 >= 19
        for size in (spatial._BLOCK, spatial._RADIUS_BLOCK):
            blocks = idx._blocks(size).size - 1
            supers = idx._blocks(size * spatial._SUPER).size - 1
            assert supers >= 2 and blocks >= 4 * supers
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads interleave as often as they can
        try:
            rank = np.random.default_rng(55).permutation(len(pts))
            low = idx.argmin_rank_in_ball(rank, 0.3)
            for workers in (2, 3):
                assert np.array_equal(idx.argmin_rank_in_ball(rank, 0.3, workers=workers), low)
            for k in (3, 40):
                rho, win = idx.knn_window(k, workers=1, return_indices=True)
                edges = sweep_edges(idx, rho, workers=1)
                for workers in (2, 3):
                    rho_t, win_t = idx.knn_window(k, workers=workers, return_indices=True)
                    assert rho_t.tobytes() == rho.tobytes()
                    assert np.array_equal(win_t, win)
                    assert idx.knn_window(k, workers=workers)[0].tobytes() == rho.tobytes()
                    assert_same_bytes(sweep_edges(idx, rho, workers=workers), edges)
        finally:
            sys.setswitchinterval(interval)

    def test_workers_checked(self):
        idx = SpatialIndex(make_cloud(56, 50))
        rho, _ = idx.knn_window(3)
        for workers in (0, -2, 1.5):
            with pytest.raises(ParameterError, match="workers"):
                idx.knn_window(3, workers=workers)
            with pytest.raises(ParameterError, match="workers"):
                idx.radius_scan(rho, lambda sub, cand, d2: None, workers=workers)
            with pytest.raises(ParameterError, match="workers"):
                idx.directed_radius_lists(rho, np.arange(50), np.arange(50), workers=workers)
            with pytest.raises(ParameterError, match="workers"):
                idx.argmin_rank_in_ball(np.arange(50), 0.5, workers=workers)
            with pytest.raises(ParameterError, match="workers"):
                idx.nearest_below_rank(np.arange(50), workers=workers)

    def test_one_thread_scans_in_the_calling_thread(self, monkeypatch):
        # no pool thread at one thread: its heap kept more temporaries resident
        monkeypatch.setattr(spatial, "_GROUP", 1)
        idx = SpatialIndex(make_cloud(58, 300, dims=2))
        assert idx._blocks(spatial._RADIUS_BLOCK).size - 1 >= 4
        callers = set()
        idx.radius_scan(np.full(300, 0.01), lambda sub, cand, d2: callers.add(threading.get_ident()))
        assert callers == {threading.get_ident()}

    def test_row_chunks_split_a_block(self, monkeypatch):
        # a matrix budget below one block's rows times its candidates
        monkeypatch.setattr(spatial, "_CHUNK_ELEMS", 100)
        pts = make_cloud(57, 200, dims=2)
        check_knn_window(pts, (1, 16, 60))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_directed_lists_split_a_block_on_lattice_ties(self, workers, monkeypatch):
        # chunks of a few rows, one block per thread task, and lattice points
        # whose d^2 tie with each other and with rho: rows keep several
        # groups, and some groups hold both mutual and other neighbors
        monkeypatch.setattr(spatial, "_CHUNK_ELEMS", 1000)
        monkeypatch.setattr(spatial, "_GROUP", 1)
        rng = np.random.default_rng(59)
        sites = rng.integers(0, 12, size=(400, 2))
        pts = np.concatenate([sites, sites[rng.integers(0, 400, size=80)]]).astype(np.float64)
        idx = SpatialIndex(pts)
        D2 = sq_dist_matrix(pts)
        for k in (4, 12, 30):
            rho, _ = idx.knn_window(k)
            several, mixed = check_directed_lists(idx, D2, rho, workers)
            assert several > 0 and mixed > 0


def stress_clouds():
    """The clouds of ``TestBlockScan`` that stress the candidate balls, each
    with the k and d it is checked at: a leaf of coincident points, extreme
    magnitudes, a block straddling two clusters, and lattice ties."""
    rng = np.random.default_rng(51)
    straddle = np.concatenate([rng.normal(0.0, 1e-3, size=(40, 2)),
                               1e4 + rng.normal(0.0, 1e-3, size=(8, 2))])
    rng = np.random.default_rng(54)
    sites = rng.integers(0, [6, 6, 4], size=(300, 3))
    lattice = np.concatenate([sites, sites[rng.integers(0, 300, size=60)]]).astype(np.float64)
    return {
        "coincident": (np.full((100, 3), 0.3), (1, 5, 99), (0.5,)),
        "tiny": (make_cloud(52, 300, dims=2) * 1e-150, (1, 7, 64, 299), (1e-151, 5e-151)),
        "huge": (make_cloud(52, 300) * 1e150, (1, 7, 64, 299), (1e149, 5e149)),
        "straddle": (straddle, (1, 8, 9, 40, 47), (2e-3, 1.5e4)),
        "lattice": (lattice, (1, 6, 26, 359), (1.0, np.sqrt(2.0), 2.0)),
    }


class TestSuperBlocks:
    """The two-level fetch of the block scans: each super-block takes one
    tree ball and each of its blocks trims it to its own radius."""

    @pytest.mark.parametrize("cloud", [*stress_clouds(), "field"])
    def test_each_block_lies_in_one_super_block(self, cloud):
        pts = make_cloud(61, 3000) if cloud == "field" else stress_clouds()[cloud][0]
        idx = SpatialIndex(pts)
        for size in (4, spatial._BLOCK, spatial._RADIUS_BLOCK):
            starts = idx._blocks(size)
            for factor in (1, 2, spatial._SUPER):
                tops = idx._blocks(size * factor)
                assert tops[0] == 0 and tops[-1] == len(pts)
                # the super-block of each block's first point holds its last
                first = np.searchsorted(tops, starts[:-1], "right")
                assert np.array_equal(first, np.searchsorted(tops, starts[1:] - 1, "right"))

    @pytest.mark.parametrize("factor", [1, 2, 8])
    @pytest.mark.parametrize("cloud", list(stress_clouds()))
    def test_scans_match_brute_force(self, cloud, factor, monkeypatch):
        monkeypatch.setattr(spatial, "_SUPER", factor)
        monkeypatch.setattr(spatial, "_GROUP", 2)
        pts, ks, radii = stress_clouds()[cloud]
        check_knn_window(pts, ks)
        idx = SpatialIndex(pts)
        D2 = sq_dist_matrix(pts)
        rank = np.random.default_rng(factor).permutation(len(pts))
        for d in radii:
            want = brute_argmin_rank_in_ball(D2, rank, d)
            for workers in (1, 2):
                assert idx.argmin_rank_in_ball(rank, d, workers=workers).tolist() == want

    def test_density_memory_is_bounded(self):
        # on this cloud the density at k = 200 peaked at 2,702,147-2,706,931
        # bytes with a tree ball, read from Python lists, and a tree k-NN
        # query per block, and at 2,039,400-2,043,453 bytes with the balls of
        # super-blocks trimmed per block (3 runs each); fail at the former
        pts = np.random.default_rng(26).uniform(0.0, 10.0, size=(20_000, 3))[:, :2]
        idx = SpatialIndex(pts)
        tracemalloc.start()
        try:
            idx.knn_window(200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_700_000, peak


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
            # one candidate row shared by the query rows, as knn_window asks
            shared = spatial._sq_dist_cols(cols, idx.ravel(), np.array([len(diff)]))
            want = np.einsum("...i,...i->...", diff, diff).reshape(1000, -1)
            naive = (diff * diff).cumsum(axis=1)[:, -1].reshape(1000, -1)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(shared.view(np.uint64), want.reshape(1, -1).view(np.uint64))
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

    def test_reach_must_not_decrease_with_rank(self):
        idx = SpatialIndex(LINE3)
        with pytest.raises(ParameterError, match="reach must not decrease with rank"):
            idx.nearest_below_rank(IDENTITY3, reach=np.array([1.0, 0.5, 2.0]))
        # points of equal rank may hold any reach
        got = idx.nearest_below_rank(np.array([0, 1, 1]), reach=np.array([1.0, 9.0, 4.0]))
        assert got.tolist() == [-1, 0, -1]

    @pytest.mark.parametrize("cloud", ["random", "lattice", "duplicates"])
    def test_reach_matches_brute_force(self, cloud, monkeypatch):
        # the core sweep's links: the nearest earlier j with d^2 <= rho[j];
        # a row without one grows its window until it passes its own rho
        rng = np.random.default_rng(13)
        pts = {
            "random": lambda: make_cloud(13, 300, dims=2),
            "lattice": lambda: rng.integers(0, 9, size=(300, 2)).astype(np.float64),
            "duplicates": lambda: make_cloud_with_stems(14, 5, 20, extra=60)[:, :2],
        }[cloud]()
        idx = SpatialIndex(pts)
        D2 = sq_dist_matrix(pts)
        for k in (1, 6, 40):
            rho, _ = idx.knn_window(k)
            rank = sweep_rank(rho)
            want = brute_nearest_below_rank(D2, rank, reach=rho)
            assert -1 in want and any(j >= 0 for j in want)
            # one chunk per round, or chunks of 25 rows at 4 neighbors
            for chunk in (spatial._CHUNK_ELEMS, 100):
                monkeypatch.setattr(spatial, "_CHUNK_ELEMS", chunk)
                for workers in (1, 2):
                    got = idx.nearest_below_rank(rank, reach=rho, workers=workers)
                    assert got.tolist() == want
            assert check_reach(idx, pts, rho).tolist() == want
            d = float(np.sqrt(rho.max()))
            assert idx.nearest_below_rank(rank, d, reach=rho).tolist() == \
                brute_nearest_below_rank(D2, rank, d, reach=rho)


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
        rho, _ = idx.knn_window(4)
        check_radius_scan(idx, sq_dist_matrix(pts), rho)
        check_directed_lists(idx, sq_dist_matrix(pts), rho)
        got = sweep_edges(idx, rho)
        assert got[0].dtype == got[2].dtype == np.int64 and got[3].dtype == bool
        assert_same_bytes(got, sweep_edges(BruteIndex(pts), rho))

    def test_directed_radius_lists_regrow_tie_group(self):
        # the centre (last index, so last among equal rho) has four neighbors
        # at exactly rho = 1, more than its k+2 = 3 window holds: the scan's
        # candidate ball must hold the whole tie group at rho
        pts = np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1], [0, 0]])
        idx = SpatialIndex(pts)
        rho, win = idx.knn_window(1, return_indices=True)
        assert rho.tolist() == [1.0] * 5 and win.shape == (5, 3)
        check_radius_scan(idx, sq_dist_matrix(pts), rho)
        check_directed_lists(idx, sq_dist_matrix(pts), rho)
        # the four are link-tree roots; the centre links to the first and
        # keeps one mutual entry for each of the other three trees
        link, eoff, early, mutual = edges = sweep_edges(idx, rho)
        assert_same_bytes(edges, sweep_edges(BruteIndex(pts), rho))
        assert link.tolist() == [0, 1, 2, 3, 0]
        assert eoff.tolist() == [0, 0, 0, 0, 0, 3]
        assert early.tolist() == [1, 2, 3] and mutual.all()

    def test_argmin_rank_in_ball_matches_brute(self):
        pts = make_cloud(11, 300)
        idx = SpatialIndex(pts)
        rank = np.random.default_rng(11).permutation(300)
        D2 = sq_dist_matrix(pts)
        for d in (0.05, 0.3, 1.0):
            assert idx.argmin_rank_in_ball(rank, d).tolist() == \
                brute_argmin_rank_in_ball(D2, rank, d)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_argmin_rank_in_ball_on_lattice_ties(self, seed):
        # lattice radii put many points exactly on the edge of a ball
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
    def test_argmin_rank_in_ball_across_blocks(self, seed, monkeypatch):
        # blocks of at most 4 points in groups of 2: every ball crosses many
        # blocks, on generic coordinates and on lattice points exactly d apart
        monkeypatch.setattr(spatial, "_RADIUS_BLOCK", 4)
        monkeypatch.setattr(spatial, "_GROUP", 2)
        rng = np.random.default_rng(seed)
        sites = rng.integers(0, [20, 10, 4], size=(700, 3))
        lattice = np.concatenate([sites, sites[rng.integers(0, 700, size=100)]])
        for pts, radii in ((make_cloud(20 + seed, 800), (0.1, 0.25, 0.5)),
                           (lattice.astype(np.float64), (1.0, np.sqrt(2.0), 2.0))):
            idx = SpatialIndex(pts)
            rank = rng.permutation(len(pts))
            D2 = sq_dist_matrix(pts)
            for d in radii:
                assert idx.argmin_rank_in_ball(rank, d).tolist() == \
                    brute_argmin_rank_in_ball(D2, rank, d)

    def test_argmin_rank_in_ball_coarse_coordinates(self, monkeypatch):
        # at 2^40 x and y round to 2^-12 and at 2^50 to 2^-2, and so do the
        # centres of the blocks' boxes that the candidate balls are fetched from
        for offset in (2.0 ** 40, 2.0 ** 50):
            pts = make_cloud(22, 800) + [offset, offset, 0.0]
            idx = SpatialIndex(pts)
            rank = np.random.default_rng(22).permutation(len(pts))
            D2 = sq_dist_matrix(pts)
            for block in (64, 4):
                monkeypatch.setattr(spatial, "_RADIUS_BLOCK", block)
                for d in (0.1, 0.25, 0.5):
                    assert idx.argmin_rank_in_ball(rank, d).tolist() == \
                        brute_argmin_rank_in_ball(D2, rank, d)

    def test_nearest_below_rank_matches_brute(self, monkeypatch):
        pts = make_cloud(12, 300)
        idx = SpatialIndex(pts)
        rng = np.random.default_rng(12)
        rank = rng.permutation(300)
        members = np.unique(rng.integers(0, 300, size=60))
        D2 = sq_dist_matrix(pts)
        full = spatial._CHUNK_ELEMS
        for d in (0.2, 1.0, None):
            want = brute_nearest_below_rank(D2, rank, d)
            want_subset = brute_nearest_below_rank(D2, rank, d, members=members.tolist())
            # at full size every round fits in one chunk; at 100 elements a
            # round takes chunks of 25 rows at 4 neighbors, 6 at 16, 1 from 64
            for chunk in (full, 100):
                monkeypatch.setattr(spatial, "_CHUNK_ELEMS", chunk)
                for workers in (1, 2, -1):
                    assert idx.nearest_below_rank(rank, d=d, workers=workers).tolist() == want
                    assert idx.nearest_below_rank(rank, d=d, subset=members,
                                                  workers=workers).tolist() == want_subset


def z_ranked_clouds(seed):
    """Clouds for the (z, index)-ranked query, with the d values each is
    queried at: lattices whose heights lie exactly d apart (d = 0.5, a
    power of two) or d apart as rounded (d = 0.3), queried at d and at
    d * (1 +- 1e-7); the second with duplicate points; and the first
    with z offset by 2^20 and by 2^40, where z rounds to 2^-32 and 2^-12."""
    rng = np.random.default_rng(seed)
    sites = rng.integers(0, [12, 12, 8], size=(500, 3)).astype(np.float64)
    dupes = np.concatenate([sites, sites[rng.integers(0, 500, size=120)]])
    for pts, d in ((sites * [0.25, 0.25, 0.5], 0.5), (dupes * [0.2, 0.2, 0.3], 0.3)):
        yield pts, (d * (1 - 1e-7), d, d * (1 + 1e-7))
    for offset in (2.0 ** 20, 2.0 ** 40):
        yield sites * [0.25, 0.25, 0.5] + [0.0, 0.0, offset], (0.5, 0.5 * (1 + 1e-7), 0.75)


class TestRankOrderSkip:
    """argmin_rank_in_ball under rain's (z, index) rank, which skips the
    candidates lying d below a row: the random ranks of the other tests
    leave nothing to skip."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("block, group", [(None, None), (4, 2)])
    def test_matches_brute_force(self, seed, block, group, monkeypatch):
        if block is not None:
            monkeypatch.setattr(spatial, "_RADIUS_BLOCK", block)
            monkeypatch.setattr(spatial, "_GROUP", group)
        for pts, radii in z_ranked_clouds(seed):
            idx = SpatialIndex(pts)
            rank = _order_and_rank(pts[:, 2])[1]
            D2 = sq_dist_matrix(pts)
            for d in radii:
                want = brute_argmin_rank_in_ball(D2, rank, d)
                low = idx.argmin_rank_in_ball(rank, d)
                assert low.tolist() == want
                assert np.array_equal(idx.argmin_rank_in_ball(rank, d, workers=2), low)

    def test_computes_fewer_sq_distances_than_the_balls_hold(self, monkeypatch):
        # a radius scan at d*d computes the d^2 from each block to its whole
        # candidate ball; the query reads far fewer in rank order
        pts = make_cloud(60, 3000)
        idx = SpatialIndex(pts)
        rank = _order_and_rank(pts[:, 2])[1]
        count = [0]
        sq_dist_cols = spatial._sq_dist_cols

        def counted(*args):
            d2 = sq_dist_cols(*args)
            count[0] += d2.size
            return d2

        monkeypatch.setattr(spatial, "_sq_dist_cols", counted)
        for d in (0.1, 0.3):
            count[0] = 0
            idx.radius_scan(np.full(3000, d * d), lambda sub, cand, d2: None)
            balls = count[0]
            count[0] = 0
            idx.argmin_rank_in_ball(rank, d)
            assert count[0] * 3 < balls


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
