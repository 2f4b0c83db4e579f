"""Kd-tree paths versus the O(n^2) oracles on integer-lattice clouds with
duplicated points, at radii equal to lattice distances. Squared distances
then tie exactly with each other, with the squared radius and with the k-NN
radius, so the window loops hit their exact-tie branches: a candidate at the
window's farthest distance, and a window that ends exactly on the ball's edge.
The same checks run on clouds with one coincident group larger than a block
and than a window round."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fieldcluster import DensityField, Params, PointCloud, cluster, extract_cores, knn_density_2d
from fieldcluster.cluster import _sweep_edges, gdqs_parents, rain_parents, zqs_parents
from brute_index import BruteIndex
from oracles import (
    slow_extract_cores,
    slow_gdqs_parents,
    slow_gdqspp_labels,
    slow_rain_parents,
    slow_sweep_entries,
    slow_zqs_parents,
    sweep_rows,
)


def check_against_oracles(pts, d, k, beta):
    """Every algorithm, and the core sweep's edges over the kD-tree and over
    ``BruteIndex``, against the O(n^2) oracles."""
    cloud = PointCloud(pts)
    assert np.array_equal(rain_parents(cloud, d).parent, slow_rain_parents(pts, d))
    assert np.array_equal(zqs_parents(cloud, d).parent, slow_zqs_parents(pts, d))
    density = knn_density_2d(cloud, k)
    assert np.array_equal(gdqs_parents(cloud, d, density).parent, slow_gdqs_parents(pts, d, k))
    edges = _sweep_edges(density)
    brute = DensityField(rho=density.rho, k=k, index2d=BruteIndex(pts[:, :2]))
    for a, b in zip(edges, _sweep_edges(brute), strict=True):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert sweep_rows(*edges) == slow_sweep_entries(pts, k)
    cores = extract_cores(cloud, density, k, beta)
    want_cores, want_modes = slow_extract_cores(pts, k, beta)
    assert [tuple(c.tolist()) for c in cores.cores] == want_cores
    assert cores.mode_indices.tolist() == want_modes
    assert np.array_equal(cluster(cloud, Params("gdqspp", k=k, beta=beta)),
                          slow_gdqspp_labels(pts, k, beta))


@st.composite
def lattice_clouds(draw):
    site = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 3))
    sites = draw(st.lists(site, min_size=4, max_size=30))
    copies = draw(st.lists(st.integers(0, len(sites) - 1), max_size=10))
    return np.asarray(sites + [sites[i] for i in copies], dtype=np.float64)


@settings(max_examples=250, deadline=None)
@given(pts=lattice_clouds(), d=st.sampled_from([1.0, np.sqrt(2.0), 2.0]),
       k=st.integers(1, 8), beta=st.sampled_from([0.0, 0.15, 0.3, 0.7, 1.0]))
def test_all_algorithms_match_oracles_on_lattice_ties(pts, d, k, beta):
    check_against_oracles(pts, d, min(k, len(pts) - 1), beta)


def _uniform_plus_group(kind: str) -> np.ndarray:
    """400 uniform points plus 300 copies of one of them, or plus a column of
    300 points that share one (x, y) and differ in z."""
    rng = np.random.default_rng(24)
    pts = rng.uniform(0.0, 2.0, size=(400, 3))
    group = np.repeat(pts[:1], 300, axis=0)
    if kind == "column":
        group[:, 2] = rng.uniform(0.0, 2.0, size=300)
    return rng.permutation(np.concatenate([pts, group]))


@pytest.mark.parametrize("kind", ["copies", "column"])
def test_all_algorithms_match_oracles_on_a_large_coincident_group(kind):
    # the group outgrows a block and the 256-point window round, so every
    # search must grow past coincident points to certify its answer
    check_against_oracles(_uniform_plus_group(kind), 0.3, 8, 0.3)
