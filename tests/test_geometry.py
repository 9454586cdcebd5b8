import numpy as np
import pytest
from scipy.spatial import cKDTree

from peduncleseg import (NormalParams, PointCloud, SpatialIndex, build_index,
                         estimate_normals)

from clouds import random_cloud


def cloud_from(xyz):
    xyz = np.asarray(xyz, dtype=np.float64)
    return PointCloud(xyz, np.zeros((len(xyz), 3), dtype=np.uint8),
                      np.full(len(xyz), -1, dtype=np.int8))


def sphere_cap_cloud(rng, n=2000, radius=0.04, max_polar=60.0):
    """Points on the +z-facing cap of a sphere, normals well oriented from above."""
    cos_min = np.cos(np.radians(max_polar))
    cosp = rng.uniform(cos_min, 1.0, n)
    sinp = np.sqrt(1.0 - cosp**2)
    az = rng.uniform(0.0, 2.0 * np.pi, n)
    dirs = np.stack([sinp * np.cos(az), sinp * np.sin(az), cosp], axis=1)
    return cloud_from(radius * dirs), dirs


def ball_rows(xyz, radius):
    """Each point's sorted neighbour list from one ball query per point: the
    oracle for the CSR, which once was built this way."""
    return cKDTree(xyz).query_ball_point(xyz, radius,
                                         return_sorted=True).tolist()


def csr_rows(index, radius):
    nbr, off = index.radius_neighbors_csr(radius)
    assert nbr.dtype == np.int64 and off.dtype == np.int64
    assert len(off) == len(index) + 1
    assert off[0] == 0 and off[-1] == len(nbr)
    return [nbr[off[i]:off[i + 1]].tolist() for i in range(len(index))]


class TestSpatialIndex:
    def test_radius_query_matches_brute_force(self, rng):
        # each CSR row is the radius query of one point: every point within
        # r of it, itself included, in ascending order
        cloud = random_cloud(rng, n=120)
        index = build_index(cloud)
        dist = np.linalg.norm(cloud.xyz[:, None] - cloud.xyz[None], axis=2)
        for _ in range(20):
            r = float(rng.uniform(0.01, 0.1))
            for i, row in enumerate(csr_rows(index, r)):
                assert row == np.flatnonzero(dist[i] <= r).tolist()
                assert i in row    # self included

    def test_csr_matches_per_point_queries(self, rng):
        cloud = random_cloud(rng, n=120)
        index = build_index(cloud)
        for r in (0.01, 0.05, 0.2):
            assert csr_rows(index, r) == ball_rows(cloud.xyz, r)

    @pytest.mark.parametrize("steps", [0, 1, 2, 5, 10])
    def test_csr_matches_ball_queries_on_tied_distances(self, rng, steps):
        # gridded coordinates put many points at equal or zero distances: a
        # 1 cm grid rounded in decimal, and a dyadic grid where sums of
        # squares are exact, so pairs sit exactly on the radius
        dyadic = 2.0 ** -7
        ties = 0
        for trial in range(40):
            n = int(rng.integers(1, 60))
            if trial % 2:
                xyz = np.round(rng.normal(size=(n, 3)) * 0.03, 2)
                r = steps * 0.01
            else:
                grid = rng.integers(-5, 6, size=(n, 3))
                xyz = grid * dyadic
                r = steps * dyadic
                d2 = ((grid[:, None] - grid[None]) ** 2).sum(axis=2)
                ties += np.count_nonzero(d2 == steps ** 2) - (steps == 0) * n
            assert csr_rows(SpatialIndex(xyz), r) == ball_rows(xyz, r)
        assert ties > 0

    def test_csr_inclusive_boundary(self):
        index = SpatialIndex(np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]]))
        assert csr_rows(index, 1.0) == [[0, 1], [0, 1, 2], [1, 2]]
        assert csr_rows(index, 0.0) == [[0], [1], [2]]

    def test_csr_coincident_points_share_rows(self):
        xyz = np.array([[0.0, 0, 0], [0.0, 0, 0], [1.0, 0, 0], [0.0, 0, 0]])
        for r in (0.0, 0.5):
            assert csr_rows(SpatialIndex(xyz), r) == \
                [[0, 1, 3], [0, 1, 3], [2], [0, 1, 3]]

    def test_csr_of_one_point(self):
        index = SpatialIndex(np.array([[0.3, -0.1, 0.2]]))
        for r in (0.0, 1.0):
            assert csr_rows(index, r) == [[0]]

    def test_csr_built_once_per_radius_and_read_only(self, rng):
        cloud = random_cloud(rng, n=80)
        index = build_index(cloud)
        nbr, off = index.radius_neighbors_csr(0.05)
        again = index.radius_neighbors_csr(0.05)
        assert again[0] is nbr and again[1] is off
        for arr in (nbr, off):
            with pytest.raises(ValueError):
                arr[0] = 1
        nbr_small, off_small = index.radius_neighbors_csr(0.03)
        assert nbr_small is not nbr and len(nbr_small) < len(nbr)
        assert csr_rows(index, 0.03) == ball_rows(cloud.xyz, 0.03)

    def test_empty_cloud_rejected(self):
        with pytest.raises(ValueError):
            SpatialIndex(np.empty((0, 3)))


class TestEstimateNormals:
    def test_empty_cloud_rejected(self, rng):
        # no index holds an empty cloud, so any index goes with it
        index = build_index(random_cloud(rng, n=5))
        with pytest.raises(ValueError, match="empty cloud"):
            estimate_normals(cloud_from(np.empty((0, 3))), index,
                             NormalParams())

    def test_plane_normals_exact(self, rng):
        xy = rng.uniform(-0.05, 0.05, size=(400, 2))
        xyz = np.column_stack([xy, np.zeros(400)])
        cloud = cloud_from(xyz)
        params = NormalParams(radius_rn=0.02, viewpoint=[0, 0, 1.0])
        ns = estimate_normals(cloud, build_index(cloud), params)
        assert ns.valid.all()
        assert np.allclose(ns.normals, [0, 0, 1.0], atol=1e-9)
        assert np.allclose(np.linalg.norm(ns.normals, axis=1), 1.0, atol=1e-9)

    def test_sphere_cap_oriented_normals(self, rng):
        cloud, dirs = sphere_cap_cloud(rng)
        params = NormalParams(radius_rn=0.01, viewpoint=[0, 0, 1.0])
        ns = estimate_normals(cloud, build_index(cloud), params)
        ok = ns.valid
        assert ok.mean() > 0.99
        cos = np.einsum("ij,ij->i", ns.normals[ok], dirs[ok])
        ang = np.degrees(np.arccos(np.clip(cos, -1, 1)))
        assert ang.mean() < 2.0
        # viewpoint orientation: every valid normal faces the camera side
        toward = params.viewpoint - cloud.xyz[ok]
        assert (np.einsum("ij,ij->i", ns.normals[ok], toward) >= 0).all()

    def test_degenerate_neighbourhoods_flagged(self):
        # two isolated points and three collinear points
        xyz = [[0, 0, 0], [10, 0, 0],
               [20, 0, 0], [20.001, 0, 0], [20.002, 0, 0]]
        cloud = cloud_from(xyz)
        ns = estimate_normals(cloud, build_index(cloud),
                              NormalParams(radius_rn=0.01))
        assert not ns.valid[0] and not ns.valid[1]     # < 3 members
        assert not ns.valid[2:].any()                  # collinear
        assert np.all(ns.normals[~ns.valid] == 0.0)

    def test_rotation_equivariance(self, rng):
        cloud, _ = sphere_cap_cloud(rng, n=600)
        params = NormalParams(radius_rn=0.012, viewpoint=[0, 0, 1.0])
        ns = estimate_normals(cloud, build_index(cloud), params)

        # rotate scene and viewpoint together
        t = 0.7
        rot = np.array([[np.cos(t), -np.sin(t), 0],
                        [np.sin(t), np.cos(t), 0],
                        [0, 0, 1.0]])
        rcloud = cloud_from(cloud.xyz @ rot.T)
        rparams = NormalParams(radius_rn=0.012, viewpoint=rot @ [0, 0, 1.0])
        rns = estimate_normals(rcloud, build_index(rcloud), rparams)
        assert np.array_equal(ns.valid, rns.valid)
        ok = ns.valid
        assert np.allclose(rns.normals[ok], ns.normals[ok] @ rot.T, atol=1e-6)

    def test_exact_tie_uses_canonical_sign(self):
        # plane seen edge-on: n . (vp - p) == 0 for every point, so the
        # canonical rule must pick the +z normal
        xy = np.array([[x, y] for x in np.linspace(-1, 1, 9)
                       for y in np.linspace(-1, 1, 9)])
        xyz = np.column_stack([xy * 0.01, np.zeros(len(xy))])
        cloud = cloud_from(xyz)
        ns = estimate_normals(cloud, build_index(cloud),
                              NormalParams(radius_rn=0.01, viewpoint=[5.0, 0, 0]))
        assert ns.valid.all()
        assert (ns.normals[:, 2] > 0.999999).all()

    def test_index_cloud_mismatch_rejected(self, rng):
        a = random_cloud(rng, n=30)
        b = random_cloud(rng, n=31)
        with pytest.raises(ValueError):
            estimate_normals(a, build_index(b), NormalParams())
