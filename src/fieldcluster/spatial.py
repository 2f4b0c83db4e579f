"""Immutable kD-tree index over 2D or 3D points.

Wraps scipy's cKDTree behind the query semantics the clustering algorithms
rely on:

* all distance comparisons happen in exact squared-distance space; one
  function (``_sq_dist_cols``) sums every squared distance from per-axis
  coordinate columns, in the order in which the brute-force test oracles'
  ``einsum`` sums, so the tree path and an O(n^2) scan are bit-for-bit
  interchangeable and no (points, kk, dim) coordinate array is gathered;
* balls are open (``dist < d``);
* ties anywhere are broken by the smaller original point index.

The index has two search engines. The first is a scan of the kD-tree's
blocks (``_block_groups``): points close together share most of their
neighbors, so each subtree of a few dozen points gets one candidate set that
provably holds the points each of its rows needs. The sets are fetched on
two levels: each super-block, a subtree of at most ``_SUPER`` blocks, takes
one ball from the tree, by the same rule as a block's, with one tree query
per group of super-blocks; each of its blocks keeps, in numpy, the
candidates within its own radius of its centre. The block scans
(``_block_scan``) read each query's answer off the exact squared distances
from the block to those candidates. The k-NN radius and the (k+2)-point
windows of the density (``knn_window``) are order statistics of them, and
the density reads each block's radius off its super-block's ball, without a
tree k-NN query per block. The quickshift++ core sweep's entries
(``directed_radius_lists``) filter them and keep only one key per other link
tree in each point's k-NN ball, after each block drops the candidates that
none of its rows can keep. The lowest-rank-in-ball search
(``argmin_rank_in_ball``) instead sorts each block's candidates by rank;
each row skips those whose running maximum of z lies d below it and stops
at its first candidate strictly inside d. All are exact with ties and
duplicates, without a per-point neighbor heap. The cost of the block scans
grows with the number of points in a ball; the lowest-rank search reads few
more than a row needs when the rank follows z.

The second, the nearest-below-rank search, grows per-point windows (the kk
nearest points, self included, with their exact squared distances, from one
chunked tree query loop) 4x per round instead of materializing neighbor
balls, resolving each point as soon as its window provably contains the
answer; windows come back from scipy as arrays, which keeps the inner loops
vectorized. It finds the nearest lower-ranked point within d (``zqs``,
``gdqs``), anywhere (the ``gdqspp`` climb), or within the lower-ranked
point's own reach (the links of the ``gdqspp`` core sweep).

The index is read-only after construction, its thread count included (see
``SpatialIndex``).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ParameterError
from .pointcloud import _checked_points

# the most threads an index may take: scipy's tree query starts min(workers,
# rows) OS threads on every call, and the nearest-below-rank search queries up
# to _CHUNK_ELEMS // kk rows a call, so a count in the thousands would ask the
# OS for that many threads every round
_MAX_WORKERS = 256
# soft bound on elements touched per vectorized query round; its 8-byte
# temporaries (35 MB) lie clearly above glibc's 32 MiB ceiling on the dynamic
# mmap threshold, so each is mapped and returned whole instead of coming from
# a heap whose layout, and so the peak memory, depends on earlier frees
_CHUNK_ELEMS = 4_400_000
# _block_groups: the kD-tree's subtrees of at most _BLOCK points (knn_window)
# or _RADIUS_BLOCK points (_radius_scan, argmin_rank_in_ball) are scanned as
# blocks, each against one candidate set, and a thread takes the super-blocks
# of about _GROUP consecutive blocks at a time. The radius ball reaches one
# block radius past the rows, the density's two, and its steps partition
# nothing, so the per-block calls weigh more there: with blocks of 64 the
# gdqspp core sweep's radius scans (then two, for its links and its
# entries) took 0.9 s on the reference field at k = 64, against 1.2 s with
# blocks of 32 and 1.1-1.4 s with 128, and about as long as either at
# k = 500 and 1200 (two runs each). The density keeps 32 for its memory:
# with blocks of 64, knn_window gave the same rho and was no slower at two
# threads (k = 500: 0.82-0.87 s against 0.87-1.03 s; k = 1200: 1.30-1.39 s
# against 1.53-1.70 s), but the CLI's max RSS rose, in 3 alternated pairs, from
# 124-125 to 131-133 MiB for gdqspp at k = 500 and from 107-113 to 121-122 MiB
# for a gdqs eval --sweep-d
_BLOCK = 32
_RADIUS_BLOCK = 64
_GROUP = 64
# a super-block is a subtree of at most _SUPER blocks' points; each takes one
# tree ball that its blocks trim. On the reference field at two threads, with
# 4 the density at k = 500 took 0.75-0.86 s against 0.55-0.72 s with 8, and
# rain at d = 0.4 0.38-0.39 s against 0.25-0.31 s; 16 was no faster (2 runs)
_SUPER = 8
# relative slack on the tree's distance bound, far above the few ulps by which
# the tree's distance may differ from the exact squared distance
_BOUND_SLACK = 1.0 + 1e-9


def _check_d(d: float) -> None:
    """Reject a radius d that is not positive (NaN included) or whose square
    underflows to 0, which would leave even a ball's centre outside it: the
    package's one check of d."""
    if not (d > 0 and d * d > 0):
        raise ParameterError(f"d must be positive and d*d must not underflow to 0, got {d}")


def _check_workers(workers: int) -> int:
    """The thread count that ``workers`` asks for: an integer from 1 to
    ``_MAX_WORKERS``, or -1 for one per CPU up to that bound; anything else
    raises. The package's one check of a thread count."""
    threads = min(os.cpu_count() or 1, _MAX_WORKERS) if workers == -1 else workers
    if not 1 <= threads <= _MAX_WORKERS or int(threads) != threads:
        raise ParameterError(
            f"workers must be -1 or an integer in [1, {_MAX_WORKERS}], got {workers}")
    return int(threads)


def _sq_dist_cols(cols: tuple, idx: np.ndarray, sub: np.ndarray,
                  at: tuple | None = None) -> np.ndarray:
    """Exact squared distances from point sub[r] to the points idx[r] (a 2D
    array) or to the points idx (a 1D array shared by every row), from the
    per-axis coordinate columns ``cols``: the package's one implementation of
    the squared distance. With ``at``, the rows are the points of those
    columns instead (the block scans' box centres).

    The columns are added in the order in which numpy's ``einsum``, which the
    brute-force oracles use, sums a length-2 or length-3 last axis: x then y
    in 2D, (dx^2 + dz^2) + dy^2 in 3D (numpy 2.4). That order copies a numpy
    internal; ``test_spatial.py`` pins the two against each other, so an
    upgrade that reorders ``einsum`` fails there.
    """
    d2 = None
    for axis in (0, 1) if len(cols) == 2 else (0, 2, 1):
        col = cols[axis]
        t = col[idx]
        t = np.subtract(t, (cols if at is None else at)[axis][sub][:, None],
                        out=t if t.ndim == 2 else None)
        t *= t
        if d2 is None:
            d2 = t
        else:
            d2 += t
    return d2


class SpatialIndex:
    """Balanced kD-tree over a read-only private copy of 2D or 3D coordinates.

    ``workers`` is the index's thread count, as ``_check_workers`` reads it:
    an integer from 1 to ``_MAX_WORKERS``, or -1 for one per CPU up to that
    bound. Every query of the index runs on its threads, and no result
    depends on them: the block scans thread over groups of super-blocks, the
    calling thread among them, and the nearest-below-rank search hands the
    count to the tree query that fetches each round's windows, which takes
    most of its time.
    """

    def __init__(self, points: np.ndarray, workers: int = 1):
        self._workers = _check_workers(workers)
        self.points = pts = _checked_points(points, (2, 3))
        self.n = pts.shape[0]
        # per-axis views: gathers from them run as fast as from contiguous
        # copies, which would add n * dim * 8 bytes at the gdqspp peak
        self._cols = tuple(pts[:, a] for a in range(pts.shape[1]))
        # imported with the first index, so a command that builds none does
        # not pay the 0.5-0.7 s that scipy.spatial adds to the start-up
        from scipy.spatial import cKDTree
        self._tree = cKDTree(pts) if self.n else None

    # ---------------------------------------------------------------- helpers

    def _blocks(self, size: int) -> np.ndarray:
        """Start offsets into the tree's point order of the blocks of
        ``_block_scan``, ascending and followed by n: the largest subtrees of
        at most ``size`` points, and leaves of more (all coincident)."""
        starts = []
        stack = [self._tree.tree]
        while stack:
            node = stack.pop()
            if node.children <= size or node.lesser is None:
                starts.append(node.start_idx)
            else:
                stack += (node.greater, node.lesser)
        starts.append(self.n)
        return np.array(starts, dtype=np.int64)

    def _block_groups(self, size: int, reach, scan) -> None:
        """Fetch the candidates of the points' blocks, one group at a time.

        Points close in the plane share most of their neighbors, so the
        blocks are the subtrees of the kD-tree with at most ``size`` points
        (or a leaf of coincident points, see ``_blocks``), and the
        super-blocks those with at most ``_SUPER`` * ``size``. Both are
        subtrees over one tree order, so each block lies inside exactly one
        super-block. ``reach(centre, far, block_max, near)`` gives the
        candidate radii of boxes from the centres of their bounding boxes,
        the distance ``far`` from each centre to its farthest point,
        ``block_max(values)``, the per-box maximum of a value per point, and
        ``near(kq)``, a bound on the distance from each centre to its kq-th
        nearest point. Each super-block's ball comes from one
        ``query_ball_point`` per group of about ``_GROUP`` blocks, and its
        ``near`` from one tree k-NN query. Each block keeps the candidates of
        its super-block's ball whose exact squared distance d2 from its
        centre is at most its radius squared; its ``near(kq)`` is the square
        root of its kq-th smallest d2. ``scan(blocks)`` gets an iterator
        over a group's blocks as (point indices, candidates) pairs, the
        candidates in no particular order, which trims one super-block at a
        time as it is read.

        The trim keeps every candidate that a row needs. Each ``reach`` rule
        bounds, by the triangle inequality, how far from a box's centre lie
        the candidates that the box's points need. Applied to a super-block,
        it gives a ball that holds those of all its rows; applied to a block,
        a radius about the block's own centre that holds those of its rows.
        So a needed candidate lies in the ball and within the radius. The
        density's ``near(kq)`` is a valid bound at a block too: the
        super-block's ball holds at least the kq points within R of its own
        centre, so the kq smallest d2 are distances to kq real points.
        Rounding moves each quantity that the bounds are made of by a few
        ulps, as long as no square underflows (the tree's balls assume that
        too): ``far`` and the d2 are measured from the rounded centres; a d2
        is within 5 ulps of the exact squared distance, its square root
        within one more, and each sum, product and square of a radius adds
        one. ``_BOUND_SLACK`` grows each radius by a relative 1e-9, and so
        its square by 2e-9, far above these. So no needed candidate fails
        the trim, and the scans are as exact as with a tree ball per block.

        The index's threads take the groups, the calling thread among them:
        a pool thread's heap keeps its temporaries resident after the scan,
        where the calling thread's heap serves the stages that follow. A scan
        writes only the rows of its own blocks, or keeps per-group results
        whose order does not matter, so the result is the same at any thread
        count.
        """
        if self.n == 0:
            return
        order = self._tree.indices
        starts = self._blocks(size)
        tops = self._blocks(size * _SUPER)
        pts = self.points[order]

        def boxes(bounds):
            first = bounds[:-1]
            centre = (np.minimum.reduceat(pts, first) + np.maximum.reduceat(pts, first)) / 2
            # measured from the rounded centre, so the balls need no margin for it
            off = pts - np.repeat(centre, np.diff(bounds), axis=0)
            return centre, np.maximum.reduceat(np.hypot.reduce(off, axis=1), first)

        def box_max(bounds):
            return lambda values: np.maximum.reduceat(values[order[bounds[0]:bounds[-1]]],
                                                      bounds[:-1] - bounds[0])

        top_centre, top_far = boxes(tops)
        top_radius = reach(top_centre, top_far, box_max(tops), lambda kq: self._tree.query(
            top_centre, k=[kq], workers=self._workers)[0][:, 0])
        centre, far = boxes(starts)
        centre_cols = tuple(centre.T)
        del pts
        # the blocks of super-block t are own[t]:own[t + 1]
        own = np.searchsorted(starts, tops)

        def trimmed(group):
            # each block's (rows, candidates), made as the scan reads them:
            # a super-block's d2 go before its blocks are scanned, and the
            # scan's own d2 reuse their room in the thread's heap
            balls = self._tree.query_ball_point(top_centre[group], top_radius[group],
                                                return_sorted=False)
            for t, ball in zip(group, balls):
                cand = np.fromiter(ball, dtype=np.intp, count=len(ball))
                chunk = max(1, _CHUNK_ELEMS // cand.size)
                for lo_b in range(own[t], own[t + 1], chunk):
                    b = np.arange(lo_b, min(lo_b + chunk, own[t + 1]))
                    d2 = _sq_dist_cols(self._cols, cand, b, centre_cols)
                    radius = reach(centre[b], far[b], box_max(starts[b[0]:b[-1] + 2]),
                                   lambda kq: np.sqrt(np.partition(d2, kq - 1, axis=1)[:, kq - 1]))
                    inside = d2 <= (radius * radius)[:, None]
                    del d2
                    for i, within in zip(b, inside):
                        yield order[starts[i]:starts[i + 1]], cand[within]

        ngroups = min(tops.size - 1, -(-(starts.size - 1) // _GROUP))
        groups = iter(np.array_split(np.arange(tops.size - 1), ngroups))

        def work():
            # the groups are shared: each thread takes the next one left
            for group in groups:
                scan(trimmed(group))

        helpers = min(self._workers, ngroups) - 1
        with ThreadPoolExecutor(max(1, helpers)) as pool:
            running = [pool.submit(work) for _ in range(helpers)]
            work()
            for helper in running:
                helper.result()  # re-raises a helper's error

    def _block_scan(self, size: int, reach, step, keep=None) -> None:
        """Scan the points in blocks of ``_block_groups``, each against its
        candidate ball: ``keep(rows, cand)``, when given, cuts the ball to the
        candidates that the block's rows can use, and a block with none left
        is skipped. ``step(sub, cand, d2)`` gets the exact squared distances
        d2[r] from point sub[r] to the candidates, in row chunks of at most
        ``_CHUNK_ELEMS`` // ``_GROUP`` elements; it may write only its own
        rows, or keep per-chunk results whose order does not matter.
        """
        def scan(blocks):
            for rows, cand in blocks:
                if keep is not None:
                    cand = keep(rows, cand)
                    if not cand.size:
                        continue
                # a group's chunks together stay within one query round's
                # elements, so no d2 (550 kB) outgrows the room that the
                # fetch leaves in a pool thread's heap, which the stages that
                # follow do not reuse. The gdqs sweep's CLI peaked at
                # 108.6-109.2 MiB, against 106.4-109.3 MiB with a tree ball
                # per block and 106.3-110.8 MiB with chunks of _CHUNK_ELEMS
                # (8 runs each, two threads)
                chunk = max(1, _CHUNK_ELEMS // _GROUP // cand.size)
                for lo_row in range(0, rows.size, chunk):
                    sub = rows[lo_row:lo_row + chunk]
                    # bound until the next chunk's is made: freeing each
                    # before the next left the heap, and the peak of a later
                    # gdqs sweep, about 4 MB higher
                    d2 = _sq_dist_cols(self._cols, cand, sub)
                    step(sub, cand, d2)

        self._block_groups(size, reach, scan)

    # ------------------------------------------------------------- bulk kNN

    def knn_window(self, k: int, return_indices: bool = False):
        """Per-point k-NN radius, optionally with the neighbor windows.

        Returns (rho, idx): rho[i] is the squared distance to the k-th nearest
        other point (the k-th order statistic of the squared-distance multiset
        including self equals the k-th excluding self, so coincident
        duplicates need no special casing); idx, when requested (else None),
        is the (n, kq) int32 window of each point's kq = min(n, k+2) nearest
        points in no particular order, itself among them unless more than kq
        points share its position.

        A block scan (``_block_scan``): each block point lies within far of
        the centre c of the block's bounding box; if c's kq-th nearest point
        lies at R, each block point has kq points within far + R, so its kq
        nearest lie within 2 far + R of c. That ball, grown by the relative
        ``_BOUND_SLACK``, is the block's candidate set, and rho and the window
        are order statistics of the exact squared distances from the block's
        points to the candidates. The candidates hold every point within each
        row's rho, so rho is exact, ties and duplicates included.

        The same rule gives each super-block its ball, with R from one tree
        k-NN query at its centre C: its rows' kq nearest lie within 2 F + R
        of C, F being its far, and the ball holds at least the kq points
        within R of C. A block's R is then R_b, the square root of the kq-th
        smallest exact squared distance from c to that ball's points. Those
        are kq real points, so c's kq-th nearest point lies within R_b, up to
        the few ulps of one squared distance and its square root, which the
        slack covers: R_b is a valid bound, and the block keeps the points of
        the super-block's ball within its own 2 far + R_b, which hold all
        that its rows need.
        """
        if not 1 <= k <= self.n - 1 or int(k) != k:
            raise ParameterError(f"k must satisfy 1 <= k <= n-1 = {self.n - 1}, got {k}")
        k = int(k)
        kq = min(self.n, k + 2)
        rho = np.empty(self.n, dtype=np.float64)
        win = np.empty((self.n, kq), dtype=np.int32) if return_indices else None

        def reach(centre, far, block_max, near):
            return (2 * far + near(kq)) * _BOUND_SLACK

        def step(sub, cand, d2):
            if return_indices:
                near = np.argpartition(d2, kq - 1, axis=1)[:, :kq]
                win[sub] = cand[near]
                d2 = np.take_along_axis(d2, near, axis=1)
            d2.partition(k, axis=1)
            rho[sub] = d2[:, k]

        self._block_scan(_BLOCK, reach, step)
        return rho, win

    def _radius_scan(self, rho: np.ndarray, step, *, keep=None) -> None:
        """Scan every point's ball of squared radius rho[i] in row chunks:
        ``step(sub, cand, d2)`` gets the exact squared distances d2[r] from
        point sub[r] to the candidates ``cand``, which hold every j with
        dist^2(sub[r], j) <= rho[sub[r]], ties at rho included, and farther
        points; ``keep(rows, cand)``, when given, may drop the candidates that
        no row of a block can use before their d^2 are computed. A block scan
        (``_block_scan``): every point within sqrt(rho[i]) of a block point i
        lies within far + max sqrt(rho) over the block of the block's centre
        c; that ball, grown by ``_BOUND_SLACK``, is the block's candidate set,
        trimmed from its super-block's ball by the same rule. Threads scan
        groups of super-blocks, so a step may write only its own rows, or
        keep a result whose order does not matter.
        """
        root = np.sqrt(rho)

        def reach(centre, far, block_max, near):
            return (far + block_max(root)) * _BOUND_SLACK

        self._block_scan(_RADIUS_BLOCK, reach, step, keep)

    def directed_radius_lists(self, rho: np.ndarray, rank: np.ndarray,
                              group: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR lists of the groups other than i's own among i's earlier
        neighbors within its own radius, {j : rank[j] < rank[i], dist^2(i, j)
        <= rho[i]}, each mutual iff one of those j in it has dist^2(i, j) <=
        rho[j] as well. Returns (offsets, flat, mutual), rows and groups
        ascending. A ``_radius_scan``: the result does not depend on its
        order, and with one group per point it is the full lists.

        An entry is one int64 key, (i * n + g) * 2 + 1 unless mutual, which
        fits for n < 2^31: the one chunk holding row i keeps its least key per
        g, and one sort orders them all. Before the d^2, each block drops the
        candidates that none of its rows can keep: those not earlier than its
        latest row and, when every row lies in one group, those of that group.
        """
        n = self.n
        keys = [np.empty(0, np.int64)]

        def keep(rows, cand):
            ok = rank[cand] < rank[rows].max()
            g = group[rows]
            if (g == g[0]).all():
                ok &= group[cand] != g[0]
            return cand[ok]

        def step(sub, cand, d2):
            cross = group[cand] != group[sub][:, None]
            cross &= d2 <= rho[sub][:, None]
            r, c = np.divmod(np.flatnonzero(cross), cand.size)
            # few entries cross a group: test their order after the matrix
            earlier = rank[cand[c]] < rank[sub[r]]
            r, c = r[earlier], c[earlier]
            j = cand[c]
            key = np.unique((sub[r] * n + group[j]) * 2 + (d2[r, c] > rho[j]))
            keys.append(key[np.diff(key >> 1, prepend=-1) != 0])

        self._radius_scan(rho, step, keep=keep)
        key = np.sort(np.concatenate(keys))
        owner, flat = np.divmod(key >> 1, n)
        offsets = np.searchsorted(owner, np.arange(n + 1))
        return offsets, flat, (key & 1) == 0

    # ------------------------------------------------- rank-directed queries

    def argmin_rank_in_ball(self, rank: np.ndarray, d: float) -> np.ndarray:
        """For each point, the point of minimal rank within its open d-ball.

        rank must be a permutation of 0..n-1 (a strict total order); the ball
        always contains the point itself, so the result is total.

        The blocks are those of ``_radius_scan`` at squared radius d*d, so each
        block's candidates hold every point within d of its rows. Each group
        of blocks joins its candidates into one array and sorts one int64
        key per candidate, block * n + rank, so each block's candidates come
        in rank order and each row's answer is its first candidate strictly
        inside d. A row's scan ends at its own entry, whose d^2 is 0, and
        reads windows of 16 columns, doubling each round; only the rows not
        yet resolved go on. Rows go in chunks of at most _CHUNK_ELEMS // 16
        and a window is at most _CHUNK_ELEMS // rows wide, so no window, nor
        its d^2, exceeds ``_CHUNK_ELEMS`` elements.

        Each row i also skips the prefix of its block's list whose running
        maximum M of the last coordinate (z in 3D) is at most top[i]:
        fl(c_i - d), stepped down one float at a time until fl(c_i - top[i])
        >= d. The skip is exact for any rank, and it saves work when the rank
        follows z, as rain's (z, index) rank does. A skipped candidate j has
        c_j <= M <= top[i], so c_i - c_j >= c_i - top[i]; rounding is
        monotone, so |fl(c_j - c_i)| = fl(c_i - c_j) >= fl(c_i - top[i]) >= d,
        and its square rounds to at least fl(d*d). ``_sq_dist_cols`` adds the
        other axes' squares, which are not negative, and a float plus a
        non-negative float rounds to no less than that float. So j's d^2 is
        at least d*d and j lies outside the open ball. Row i's own entry is
        never skipped: top[i] < c_i <= M there.
        """
        _check_d(d)
        n = self.n
        cap = d * d
        by_rank = np.empty(n, dtype=np.int64)
        by_rank[rank] = np.arange(n)
        coord = self._cols[-1]
        top = coord - d
        short = coord - top < d
        while short.any():
            top[short] = np.nextafter(top[short], -np.inf)
            short = coord - top < d
        low = np.empty(n, dtype=np.int64)

        def scan(pairs):
            blocks, cands = zip(*pairs)
            size = [cand.size for cand in cands]
            base = np.arange(0, len(blocks) * n, n, dtype=np.int64)
            # at most two arrays of the group's candidates live at once
            cand = np.concatenate(cands)
            del cands
            key = rank[cand].astype(np.int64, copy=False)
            del cand
            key += np.repeat(base, size)
            # sorting leaves each block's entries where they were
            key.sort()
            rows = np.concatenate(blocks)
            # each row's own entry, at d^2 = 0: its scan ends there
            end = np.searchsorted(key, rank[rows] + np.repeat(base, [b.size for b in blocks]))
            key %= n
            cand = by_rank[key]
            del key
            # each row's first entry past the skipped prefix of its block
            off = np.concatenate(([0], np.cumsum(size)))
            start = np.concatenate([
                off[b] + np.searchsorted(np.maximum.accumulate(coord[cand[off[b]:off[b + 1]]]),
                                         top[rows_b], "right")
                for b, rows_b in enumerate(blocks)])
            chunk = max(1, _CHUNK_ELEMS // 16)
            for lo_row in range(0, rows.size, chunk):
                sub, col0, last = (a[lo_row:lo_row + chunk] for a in (rows, start, end))
                width = 16
                while sub.size:
                    width = min(width, int((last - col0).max()) + 1, _CHUNK_ELEMS // sub.size)
                    idx = cand[np.minimum(col0[:, None] + np.arange(width), last[:, None])]
                    hit = _sq_dist_cols(self._cols, idx, sub) < cap
                    first = hit.argmax(axis=1)
                    found = hit[np.arange(sub.size), first]
                    low[sub[found]] = idx[found, first[found]]
                    sub, col0, last = sub[~found], col0[~found] + width, last[~found]
                    width *= 2

        def reach(centre, far, block_max, near):
            return (far + d) * _BOUND_SLACK

        self._block_groups(_RADIUS_BLOCK, reach, scan)
        return low

    def nearest_below_rank(self, rank: np.ndarray, d: float | None = None, *,
                           reach: np.ndarray | None = None,
                           subset: np.ndarray | None = None) -> np.ndarray:
        """For each member i: the j minimizing (distance, index) among points of
        strictly smaller rank, within the open d-ball when d is given and
        anywhere otherwise, and with dist^2(i, j) <= reach[j] when ``reach``
        is given; -1 when no such point exists. ``reach`` must not decrease
        with rank (reach[j] <= reach[i] where rank[j] < rank[i];
        ParameterError otherwise), so a window whose farthest point lies
        beyond reach[i] holds every such j. With ``subset``, only those
        members are resolved (others stay -1)."""
        if d is not None:
            _check_d(d)
        if reach is not None:
            # sorted by (rank, reach), reach ascends iff it never decreases with rank
            by_rank = reach[np.lexsort((reach, rank))]
            if not (by_rank[1:] >= by_rank[:-1]).all():
                raise ParameterError("reach must not decrease with rank")
        n = self.n
        out = np.full(n, -1, dtype=np.int64)
        if n <= 1:
            return out
        cap = np.inf if d is None else d * d

        def settle(sub, kk):
            # the kk nearest points of each row, itself included, and their
            # exact d^2; returns the mask of rows whose answer the window
            # settles, after recording it. Its temporaries go before the next
            # chunk's tree query, which lowers the peak of a gdqs sweep
            _, idx = self._tree.query(self.points[sub], k=kk, workers=self._workers)
            idx = np.atleast_2d(idx).astype(np.int64, copy=False)
            d2 = _sq_dist_cols(self._cols, idx, sub)
            ok = (idx != sub[:, None]) & (rank[idx] < rank[sub][:, None]) & (d2 < cap)
            window_max = d2.max(axis=1)
            exhausted = (kk >= n) | (window_max >= cap)
            if reach is not None:
                # no j outside a window past reach[i] >= reach[j] qualifies
                ok &= d2 <= reach[idx]
                exhausted |= window_max > reach[sub]
            # the least d^2 among the qualifying entries, and the lowest index at it
            best_d2 = np.where(ok, d2, np.inf).min(axis=1)
            best_idx = np.where(ok & (d2 == best_d2[:, None]), idx, n).min(axis=1)
            found = np.isfinite(best_d2)
            # a candidate strictly inside the window cannot be beaten by a
            # point outside it, which lies at least window_max away
            certain = found & ((best_d2 < window_max) | exhausted)
            out[sub[certain]] = best_idx[certain]
            return certain | (~found & exhausted)

        members = np.arange(n, dtype=np.int64) if subset is None else \
            np.asarray(subset, dtype=np.int64)
        kk = 4
        while members.size:
            kk = min(kk, n)
            rows = max(1, _CHUNK_ELEMS // kk)
            settled = [settle(members[lo:lo + rows], kk) for lo in range(0, members.size, rows)]
            members = members[~np.concatenate(settled)]
            kk *= 4
        return out
