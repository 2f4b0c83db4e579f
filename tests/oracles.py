"""Brute-force O(n^2) reference implementations used to verify the kD-tree
paths. Everything here works from a full pairwise squared-distance matrix and
plain Python data structures; no spatial index, no sparsification, no heap."""

from __future__ import annotations

import itertools

import numpy as np


def sq_dist_matrix(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def brute_kth_sq(D2: np.ndarray, i: int, k: int) -> float:
    """k-th smallest squared distance from i to another point."""
    others = np.delete(D2[i], i)
    others.sort()
    return float(others[k - 1])


# ------------------------------------------------------------- forest oracles

def slow_rain_parents(points: np.ndarray, d: float) -> np.ndarray:
    D2 = sq_dist_matrix(points)
    z = points[:, 2]
    n = len(points)
    parent = np.empty(n, dtype=np.int64)
    for i in range(n):
        nbr = [j for j in range(n) if D2[i, j] < d * d]
        parent[i] = min(nbr, key=lambda j: (z[j], j))
    return parent


def slow_zqs_parents(points: np.ndarray, d: float) -> np.ndarray:
    D2 = sq_dist_matrix(points)
    z = points[:, 2]
    n = len(points)
    parent = np.arange(n, dtype=np.int64)
    for i in range(n):
        cand = [j for j in range(n)
                if D2[i, j] < d * d and (z[j], j) < (z[i], i)]
        if cand:
            parent[i] = min(cand, key=lambda j: (D2[i, j], j))
    return parent


def slow_density(points: np.ndarray, k: int) -> np.ndarray:
    """rho per point from the 2D projection (k-th smallest squared distance)."""
    D2 = sq_dist_matrix(points[:, :2])
    n = len(points)
    return np.array([brute_kth_sq(D2, i, k) for i in range(n)])


def _denser(rho: np.ndarray, j: int, i: int) -> bool:
    """Strictly denser for quickshift parenting: value-strict, with the
    coincident (rho == 0) class refined by point index."""
    if rho[j] < rho[i]:
        return True
    return rho[j] == rho[i] == 0.0 and j < i


def slow_gdqs_parents(points: np.ndarray, d: float, k: int) -> np.ndarray:
    rho = slow_density(points, k)
    D2 = sq_dist_matrix(points[:, :2])
    n = len(points)
    parent = np.arange(n, dtype=np.int64)
    for i in range(n):
        cand = [j for j in range(n) if D2[i, j] < d * d and _denser(rho, j, i)]
        if cand:
            parent[i] = min(cand, key=lambda j: (D2[i, j], j))
    return parent


# --------------------------------------------------------------- core oracles

def slow_sweep_entries(points: np.ndarray, k: int) -> list[list[tuple[int, bool]]]:
    """The core sweep's entries by definition, per point a sorted list of
    (j, mutual): its link, the nearest (by d^2, index) mutual earlier neighbor
    within its own k-NN radius, and, per other link tree among its earlier
    neighbors, that tree's root, mutual iff any of those neighbors is."""
    n = len(points)
    rho = slow_density(points, k)
    D2 = sq_dist_matrix(points[:, :2])
    step_of = {p: t for t, p in enumerate(sorted(range(n), key=lambda i: (rho[i], i)))}
    earlier = [[j for j in range(n) if step_of[j] < step_of[i] and D2[i, j] <= rho[i]]
               for i in range(n)]
    link = []
    for i in range(n):
        mutual = [j for j in earlier[i] if D2[i, j] <= rho[j]]
        link.append(min(mutual, key=lambda j: (D2[i, j], j)) if mutual else i)

    def root(i):
        while link[i] != i:
            i = link[i]
        return i

    rows = []
    for i in range(n):
        entries = {}
        for j in earlier[i]:
            if root(j) != root(i):
                entries[root(j)] = entries.get(root(j), False) or bool(D2[i, j] <= rho[j])
        if link[i] != i:
            entries[link[i]] = True
        rows.append(sorted(entries.items()))
    return rows


def sweep_rows(link, eoff, early, mutual) -> list[list[tuple[int, bool]]]:
    """``_sweep_edges``' output in the form of ``slow_sweep_entries``: per
    point the sorted (j, mutual) of its link and its other-tree entries."""
    rows = []
    for i, (a, b) in enumerate(zip(eoff[:-1], eoff[1:])):
        row = list(zip(early[a:b].tolist(), mutual[a:b].tolist()))
        if link[i] != i:
            row.append((int(link[i]), True))
        rows.append(sorted(row))
    return rows


def slow_extract_cores(points: np.ndarray, k: int, beta: float):
    """Literal replay of the core-extraction sweep on the full mutual edge set.

    Returns (cores, modes): a list of sorted member tuples and the mode point
    of each, ordered densest mode first.
    """
    n = len(points)
    rho = slow_density(points, k)
    with np.errstate(divide="ignore"):
        vals = 1.0 / rho
    D2 = sq_dist_matrix(points[:, :2])
    directed = [set(j for j in range(n) if j != i and D2[i, j] <= rho[i])
                for i in range(n)]
    mutual = [set(j for j in directed[i] if i in directed[j]) for i in range(n)]
    order = sorted(range(n), key=lambda i: (rho[i], i))
    step_of = {p: t for t, p in enumerate(order)}

    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    members = {i: [i] for i in range(n)}
    mode = {i: i for i in range(n)}
    locked = {}
    cores: list[tuple] = []
    core_modes: list[int] = []
    created = set()
    pending: list[int] = []

    def thr(m):
        return 0.0 if beta == 1.0 else (1.0 - beta) * vals[m]

    def lock(r):
        locked[r] = True
        cores.append(tuple(sorted(members[r])))
        core_modes.append(mode[r])

    def union(ra, rb):
        if ra == rb:
            return ra
        parent[rb] = ra
        la, lb = locked.get(ra, False), locked.get(rb, False)
        if not la and not lb:
            members[ra] = members[ra] + members[rb]
            if (rho[mode[rb]], mode[rb]) < (rho[mode[ra]], mode[ra]):
                mode[ra] = mode[rb]
        locked[ra] = la or lb
        return ra

    for t, p in enumerate(order):
        lam = vals[p]
        for m in pending:
            r = find(m)
            if not locked.get(r, False) and mode[r] == m:
                lock(r)
        pending.clear()
        for r in list(created):
            rr = find(r)
            if rr == r and not locked.get(r, False) and lam < thr(mode[r]):
                lock(r)
        created.add(p)
        for j in sorted(mutual[p]):
            if step_of[j] < t:
                union(find(p), find(j))
        r = find(p)
        if not locked.get(r, False):
            hits = [j for j in sorted(directed[p])
                    if step_of[j] < t and locked.get(find(j), False)]
            if hits:
                union(find(hits[0]), r)
            elif beta == 0.0 and lam == np.inf:
                pending.append(mode[r])

    leftovers = sorted((r for r in range(n) if find(r) == r and not locked.get(r, False)),
                       key=lambda r: (rho[mode[r]], mode[r]))
    for r in leftovers:
        lock(r)

    idx = sorted(range(len(cores)), key=lambda c: (rho[core_modes[c]], core_modes[c]))
    return [cores[i] for i in idx], [core_modes[i] for i in idx]


def slow_gdqspp_labels(points: np.ndarray, k: int, beta: float) -> np.ndarray:
    """Full slow pipeline: slow cores plus per-point climbs over all denser points."""
    n = len(points)
    cores, _ = slow_extract_cores(points, k, beta)
    rho = slow_density(points, k)
    D2 = sq_dist_matrix(points)
    core_of = {}
    for ci, core in enumerate(cores):
        for p in core:
            core_of[p] = ci
    key = sorted(range(n), key=lambda i: (rho[i], i))
    pos = {p: t for t, p in enumerate(key)}

    def climb(i):
        while i not in core_of:
            cand = [j for j in range(n) if pos[j] < pos[i]]
            i = min(cand, key=lambda j: (D2[i, j], j))
        return core_of[i]

    raw = [climb(i) for i in range(n)]
    new_ids = {}
    labels = np.empty(n, dtype=np.int64)
    for i, r in enumerate(raw):
        if r not in new_ids:
            new_ids[r] = len(new_ids) + 1
        labels[i] = new_ids[r]
    return labels


def slow_labels_from_parents(parent: np.ndarray) -> np.ndarray:
    n = len(parent)
    labels = np.empty(n, dtype=np.int64)
    new_ids = {}
    for i in range(n):
        j = i
        seen = 0
        while parent[j] != j:
            j = parent[j]
            seen += 1
            assert seen <= n, "cycle"
        if j not in new_ids:
            new_ids[j] = len(new_ids) + 1
        labels[i] = new_ids[j]
    return labels


def brute_best_matching_sum(weights: np.ndarray) -> float:
    """Maximum total weight over all one-to-one matchings (small inputs)."""
    n_rows, n_cols = weights.shape
    if n_rows <= n_cols:
        return max(
            sum(weights[r, c] for r, c in zip(range(n_rows), perm))
            for perm in itertools.permutations(range(n_cols), n_rows)
        )
    return brute_best_matching_sum(weights.T)
