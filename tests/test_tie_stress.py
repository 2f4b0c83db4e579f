"""Kd-tree paths versus the O(n^2) oracles on integer-lattice clouds with
duplicated points, at radii equal to lattice distances. Squared distances
then tie exactly with each other, with the squared radius and with the k-NN
radius, so the window loops hit their exact-tie branches: a candidate at the
window's farthest distance, and a window that ends exactly on the ball's edge."""

import numpy as np
from hypothesis import given, settings, strategies as st

from fieldcluster import Params, PointCloud, cluster, extract_cores, knn_density_2d
from fieldcluster.cluster import gdqs_parents, rain_parents, zqs_parents
from oracles import (
    slow_extract_cores,
    slow_gdqs_parents,
    slow_gdqspp_labels,
    slow_rain_parents,
    slow_zqs_parents,
)


@st.composite
def lattice_clouds(draw):
    site = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 3))
    sites = draw(st.lists(site, min_size=4, max_size=30))
    copies = draw(st.lists(st.integers(0, len(sites) - 1), max_size=10))
    return np.asarray(sites + [sites[i] for i in copies], dtype=np.float64)


@settings(max_examples=250, deadline=None)
@given(pts=lattice_clouds(), d=st.sampled_from([1.0, np.sqrt(2.0), 2.0]),
       k=st.integers(1, 8), beta=st.sampled_from([0.0, 0.3, 1.0]))
def test_all_algorithms_match_oracles_on_lattice_ties(pts, d, k, beta):
    k = min(k, len(pts) - 1)
    cloud = PointCloud(pts)
    assert np.array_equal(rain_parents(cloud, d).parent, slow_rain_parents(pts, d))
    assert np.array_equal(zqs_parents(cloud, d).parent, slow_zqs_parents(pts, d))
    density = knn_density_2d(cloud, k, keep_windows=True)
    assert np.array_equal(gdqs_parents(cloud, d, density).parent, slow_gdqs_parents(pts, d, k))
    cores = extract_cores(cloud, density, k, beta)
    want_cores, want_modes = slow_extract_cores(pts, k, beta)
    assert [tuple(c.tolist()) for c in cores.cores] == want_cores
    assert cores.mode_indices.tolist() == want_modes
    assert np.array_equal(cluster(cloud, Params("gdqspp", k=k, beta=beta)),
                          slow_gdqspp_labels(pts, k, beta))
