"""Fast kD-tree paths versus literal O(n^2) re-implementations on random
clouds, including clouds with exactly coincident projections (tie stress).
The acceptance suite runs the same comparison at larger sizes."""

import numpy as np
import pytest

from fieldcluster import (
    Params,
    PointCloud,
    cluster,
    extract_cores,
    knn_density_2d,
)
from fieldcluster.cluster import rain_parents, zqs_parents, gdqs_parents
from conftest import make_cloud, make_cloud_with_stems
from oracles import (
    slow_density,
    slow_extract_cores,
    slow_gdqs_parents,
    slow_gdqspp_labels,
    slow_labels_from_parents,
    slow_rain_parents,
    slow_zqs_parents,
)

CLOUDS = [
    make_cloud(41, 120),
    make_cloud(42, 250),
    make_cloud_with_stems(43, 4, 25, extra=60),
    make_cloud_with_stems(44, 6, 10, extra=0),
]


@pytest.mark.parametrize("pts", CLOUDS, ids=["mix120", "mix250", "stems160", "stems60"])
@pytest.mark.parametrize("d", [0.15, 0.6])
def test_rain_matches_oracle(pts, d):
    cloud = PointCloud(pts)
    assert np.array_equal(rain_parents(cloud, d).parent, slow_rain_parents(pts, d))


@pytest.mark.parametrize("pts", CLOUDS, ids=["mix120", "mix250", "stems160", "stems60"])
@pytest.mark.parametrize("d", [0.15, 0.6])
def test_zqs_matches_oracle(pts, d):
    cloud = PointCloud(pts)
    assert np.array_equal(zqs_parents(cloud, d).parent, slow_zqs_parents(pts, d))


@pytest.mark.parametrize("pts", CLOUDS, ids=["mix120", "mix250", "stems160", "stems60"])
@pytest.mark.parametrize("k", [3, 8])
def test_density_matches_oracle(pts, k):
    cloud = PointCloud(pts)
    assert np.array_equal(knn_density_2d(cloud, k).rho, slow_density(pts, k))


@pytest.mark.parametrize("pts", CLOUDS, ids=["mix120", "mix250", "stems160", "stems60"])
@pytest.mark.parametrize("d,k", [(0.2, 4), (0.6, 8)])
def test_gdqs_matches_oracle(pts, d, k):
    cloud = PointCloud(pts)
    dens = knn_density_2d(cloud, k)
    assert np.array_equal(gdqs_parents(cloud, d, dens).parent,
                          slow_gdqs_parents(pts, d, k))


@pytest.mark.parametrize("pts", CLOUDS, ids=["mix120", "mix250", "stems160", "stems60"])
@pytest.mark.parametrize("k,beta", [(4, 0.3), (8, 0.0), (6, 1.0), (5, 0.7)])
def test_cores_match_oracle(pts, k, beta):
    cloud = PointCloud(pts)
    dens = knn_density_2d(cloud, k)
    cores = extract_cores(cloud, dens, k, beta)
    want_cores, want_modes = slow_extract_cores(pts, k, beta)
    assert [tuple(c.tolist()) for c in cores.cores] == want_cores
    assert cores.mode_indices.tolist() == want_modes


@pytest.mark.parametrize("pts", CLOUDS, ids=["mix120", "mix250", "stems160", "stems60"])
@pytest.mark.parametrize("k,beta", [(4, 0.3), (6, 1.0)])
def test_gdqspp_labels_match_oracle(pts, k, beta):
    cloud = PointCloud(pts)
    got = cluster(cloud, Params("gdqspp", k=k, beta=beta))
    assert np.array_equal(got, slow_gdqspp_labels(pts, k, beta))


def test_full_labelings_match_oracle_composition():
    pts = make_cloud(45, 200)
    cloud = PointCloud(pts)
    assert np.array_equal(cluster(cloud, Params("rain", d=0.3)),
                          slow_labels_from_parents(slow_rain_parents(pts, 0.3)))
    assert np.array_equal(cluster(cloud, Params("zqs", d=0.3)),
                          slow_labels_from_parents(slow_zqs_parents(pts, 0.3)))
    assert np.array_equal(cluster(cloud, Params("gdqs", d=0.3, k=5)),
                          slow_labels_from_parents(slow_gdqs_parents(pts, 0.3, 5)))
