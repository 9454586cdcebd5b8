import numpy as np
import pytest

from peduncleseg import (OutlierParams, PointCloud, VoxelParams,
                         remove_statistical_outliers, voxel_downsample)

from clouds import random_cloud


def make_cloud(xyz, labels=None, rgb=None):
    xyz = np.asarray(xyz, dtype=np.float64)
    n = len(xyz)
    if rgb is None:
        rgb = np.zeros((n, 3), dtype=np.uint8)
    if labels is None:
        labels = np.full(n, -1, dtype=np.int8)
    return PointCloud(xyz, np.asarray(rgb, dtype=np.uint8),
                      np.asarray(labels, dtype=np.int8))


class TestOutlierRemoval:
    def test_isolated_point_dropped(self, rng):
        # dense unit blob plus one point far away
        blob = rng.normal(size=(60, 3)) * 0.01
        xyz = np.vstack([blob, [[5.0, 5.0, 5.0]]])
        cloud = make_cloud(xyz)
        out = remove_statistical_outliers(cloud, OutlierParams(k_neighbours=8))
        assert len(out) == 60
        assert np.abs(out.xyz).max() < 1.0

    def test_uniform_cloud_untouched_with_generous_multiplier(self, rng):
        cloud = random_cloud(rng, n=80)
        out = remove_statistical_outliers(
            cloud, OutlierParams(k_neighbours=8, stddev_multiplier=10.0))
        assert len(out) == len(cloud)

    def test_order_preserved_and_attributes_aligned(self, rng):
        blob = rng.normal(size=(40, 3)) * 0.01
        xyz = np.vstack([blob[:20], [[9, 9, 9]], blob[20:]])
        labels = np.arange(41) % 2
        rgb = np.arange(41 * 3).reshape(41, 3) % 256
        cloud = make_cloud(xyz, labels=labels, rgb=rgb)
        out = remove_statistical_outliers(cloud, OutlierParams(k_neighbours=6))
        kept = [i for i in range(41) if i != 20]
        assert np.array_equal(out.xyz, cloud.xyz[kept])
        assert np.array_equal(out.labels, cloud.labels[kept])
        assert np.array_equal(out.rgb, cloud.rgb[kept])

    def test_never_grows(self, rng):
        cloud = random_cloud(rng, n=100)
        params = OutlierParams(k_neighbours=10, stddev_multiplier=0.5)
        once = remove_statistical_outliers(cloud, params)
        twice = remove_statistical_outliers(once, params)
        assert len(twice) <= len(once) <= len(cloud)

    def test_k_must_be_smaller_than_cloud(self, rng):
        cloud = random_cloud(rng, n=5)
        with pytest.raises(ValueError):
            remove_statistical_outliers(cloud, OutlierParams(k_neighbours=5))

    def test_matches_brute_force(self, rng):
        cloud = random_cloud(rng, n=60)
        k, mult = 7, 1.0
        d = np.linalg.norm(cloud.xyz[:, None] - cloud.xyz[None, :], axis=2)
        d.sort(axis=1)
        mean_d = d[:, 1:k + 1].mean(axis=1)
        thr = mean_d.mean() + mult * mean_d.std()
        expect = np.flatnonzero(mean_d <= thr)
        out = remove_statistical_outliers(
            cloud, OutlierParams(k_neighbours=k, stddev_multiplier=mult))
        assert np.array_equal(out.xyz, cloud.xyz[expect])

    def test_param_validation(self):
        with pytest.raises(ValueError):
            OutlierParams(k_neighbours=0)
        with pytest.raises(ValueError):
            OutlierParams(stddev_multiplier=0.0)


class TestVoxelDownsample:
    def test_points_in_same_cell_collapse_to_centroid(self):
        xyz = [[0.1, 0.1, 0.1], [0.3, 0.3, 0.3], [1.6, 0.1, 0.1]]
        cloud = make_cloud(xyz)
        out = voxel_downsample(cloud, VoxelParams(leaf_size=1.0))
        assert len(out) == 2
        assert np.allclose(out.xyz[0], [0.2, 0.2, 0.2])
        assert np.allclose(out.xyz[1], [1.6, 0.1, 0.1])

    def test_centroid_stays_inside_cell(self, rng):
        cloud = random_cloud(rng, n=200, scale=0.1)
        leaf = 0.03
        out = voxel_downsample(cloud, VoxelParams(leaf_size=leaf))
        mins = cloud.xyz.min(axis=0)
        cell_of = lambda pts: np.floor((pts - mins) / leaf)
        orig_cells = {tuple(c) for c in cell_of(cloud.xyz)}
        for p in out.xyz:
            assert tuple(cell_of(p[None])[0]) in orig_cells

    def test_single_point_per_cell_is_identity_set(self, rng):
        cloud = random_cloud(rng, n=30, scale=1.0)
        out = voxel_downsample(cloud, VoxelParams(leaf_size=1e-6))
        assert len(out) == 30
        assert np.allclose(np.sort(out.xyz, axis=0), np.sort(cloud.xyz, axis=0))

    def test_colour_mean_rounds_half_up(self):
        rgb = [[10, 0, 0], [11, 0, 0]]    # mean 10.5 -> 11
        cloud = make_cloud([[0, 0, 0], [0.1, 0, 0]], rgb=rgb)
        out = voxel_downsample(cloud, VoxelParams(leaf_size=1.0))
        assert out.rgb[0, 0] == 11

    def test_label_majority_and_tie(self):
        # majority 1
        c = make_cloud([[0, 0, 0], [0.1, 0, 0], [0.2, 0, 0]], labels=[1, 1, 0])
        assert voxel_downsample(c, VoxelParams(1.0)).labels[0] == 1
        # tie -> 0
        c = make_cloud([[0, 0, 0], [0.1, 0, 0]], labels=[1, 0])
        assert voxel_downsample(c, VoxelParams(1.0)).labels[0] == 0
        # unlabelled members do not vote
        c = make_cloud([[0, 0, 0], [0.1, 0, 0], [0.2, 0, 0]], labels=[1, -1, -1])
        assert voxel_downsample(c, VoxelParams(1.0)).labels[0] == 1
        # all unlabelled -> unlabelled
        c = make_cloud([[0, 0, 0], [0.1, 0, 0]], labels=[-1, -1])
        assert voxel_downsample(c, VoxelParams(1.0)).labels[0] == -1

    def test_translation_by_leaf_multiple_commutes(self, rng):
        # exactly representable leaf and offsets keep cell assignment stable
        xyz = rng.normal(size=(100, 3))
        cloud = make_cloud(xyz)
        leaf = 0.25
        shift = np.array([2 * leaf, -3 * leaf, 8 * leaf])
        moved = make_cloud(xyz + shift)
        a = voxel_downsample(cloud, VoxelParams(leaf))
        b = voxel_downsample(moved, VoxelParams(leaf))
        assert len(a) == len(b)
        assert np.allclose(a.xyz + shift, b.xyz, atol=1e-12)

    def test_deterministic(self, rng):
        cloud = random_cloud(rng, n=150)
        p = VoxelParams(leaf_size=0.02)
        a = voxel_downsample(cloud, p)
        b = voxel_downsample(cloud, p)
        assert np.array_equal(a.xyz, b.xyz)
        assert np.array_equal(a.rgb, b.rgb)
        assert np.array_equal(a.labels, b.labels)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            VoxelParams(leaf_size=0.0)
