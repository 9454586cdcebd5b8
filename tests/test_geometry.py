import numpy as np
import pytest

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


class TestSpatialIndex:
    def test_radius_query_matches_brute_force(self, rng):
        cloud = random_cloud(rng, n=120)
        index = build_index(cloud)
        for _ in range(20):
            q = rng.normal(size=3) * 0.05
            r = float(rng.uniform(0.01, 0.1))
            got = index.radius_query(q, r)
            want = np.flatnonzero(np.linalg.norm(cloud.xyz - q, axis=1) <= r)
            assert np.array_equal(got, want)

    def test_radius_query_sorted_and_inclusive(self):
        index = SpatialIndex(np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]]))
        assert index.radius_query([0, 0, 0], 1.0).tolist() == [0, 1]
        assert index.radius_query([0, 0, 0], 0.0).tolist() == [0]

    def test_csr_matches_per_point_queries(self, rng):
        cloud = random_cloud(rng, n=80)
        index = build_index(cloud)
        r = 0.05
        nbr, off = index.radius_neighbors_csr(r)
        assert off[0] == 0 and off[-1] == len(nbr)
        for i in range(len(cloud)):
            row = nbr[off[i]:off[i + 1]]
            assert np.array_equal(row, index.radius_query(cloud.xyz[i], r))
            assert i in row    # self included

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
        for i in range(len(cloud)):
            row = nbr_small[off_small[i]:off_small[i + 1]]
            assert np.array_equal(row, index.radius_query(cloud.xyz[i], 0.03))

    def test_empty_cloud_rejected(self):
        with pytest.raises(ValueError):
            SpatialIndex(np.empty((0, 3)))


class TestEstimateNormals:
    def test_plane_normals_exact(self, rng):
        xy = rng.uniform(-0.05, 0.05, size=(400, 2))
        xyz = np.column_stack([xy, np.zeros(400)])
        cloud = cloud_from(xyz)
        params = NormalParams(radius_rn=0.02, viewpoint=[0, 0, 1.0])
        ns = estimate_normals(cloud, build_index(cloud), params)
        assert ns.valid.all()
        assert np.allclose(ns.normals, [0, 0, 1.0], atol=1e-9)
        assert np.allclose(ns.curvature, 0.0, atol=1e-12)
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

    def test_curvature_range_and_plane_vs_sphere(self, rng):
        cloud, _dirs = sphere_cap_cloud(rng, n=1500)
        ns = estimate_normals(cloud, build_index(cloud),
                              NormalParams(radius_rn=0.01, viewpoint=[0, 0, 1.0]))
        assert (ns.curvature >= 0).all() and (ns.curvature <= 1 / 3 + 1e-12).all()
        assert ns.curvature[ns.valid].mean() > 1e-4   # curved surface

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
        assert np.all(ns.curvature[~ns.valid] == 0.0)

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
        assert np.allclose(rns.curvature[ok], ns.curvature[ok], atol=1e-9)

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
