"""Cloud cleanup: statistical outlier removal and voxel-grid downsampling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud_io import UNLABELLED, PointCloud
from .geometry import SpatialIndex


@dataclass
class OutlierParams:
    k_neighbours: int = 50
    stddev_multiplier: float = 1.0

    def __post_init__(self):
        if self.k_neighbours < 1:
            raise ValueError("k_neighbours must be >= 1")
        if not 0 < self.stddev_multiplier < np.inf:
            raise ValueError("stddev_multiplier must be > 0 and finite")


@dataclass
class VoxelParams:
    leaf_size: float = 0.002

    def __post_init__(self):
        if not 0 < self.leaf_size < np.inf:
            raise ValueError("leaf_size must be > 0 and finite")


def remove_statistical_outliers(cloud: PointCloud,
                                params: OutlierParams) -> PointCloud:
    """Drop points whose mean k-NN distance exceeds mean + mult * stddev.

    The mean and stddev are taken over all points' mean-distance values
    (population stddev).  Survivors keep their original relative order.
    Requires k_neighbours < len(cloud).
    """
    index = SpatialIndex(cloud.xyz)
    mean_d = index.knn_distances(params.k_neighbours).mean(axis=1)
    threshold = mean_d.mean() + params.stddev_multiplier * mean_d.std()
    keep = np.flatnonzero(mean_d <= threshold)
    return cloud.select(keep)


def voxel_downsample(cloud: PointCloud, params: VoxelParams) -> PointCloud:
    """Collapse points sharing a voxel of side leaf_size into one centroid.

    The grid is anchored at the cloud's minimum corner.  Colour is the
    channel-wise mean rounded half-up; the label is the majority vote among
    labelled members (ties go to 0), or -1 when no member is labelled.
    Voxels are emitted in lexicographic (x, y, z) cell order.
    """
    if len(cloud) == 0:
        raise ValueError("empty cloud")
    xyz = cloud.xyz
    mins = xyz.min(axis=0)
    keys = np.floor((xyz - mins) / params.leaf_size).astype(np.int64)
    _cells, inverse = np.unique(keys, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    nvox = int(inverse.max()) + 1
    counts = np.bincount(inverse, minlength=nvox).astype(np.float64)

    pos = np.zeros((nvox, 3))
    col = np.zeros((nvox, 3))
    # np.add.at applies updates one input row at a time, so the accumulation
    # order is the point order, not a race
    np.add.at(pos, inverse, xyz)
    np.add.at(col, inverse, cloud.rgb.astype(np.float64))
    centroid = pos / counts[:, None]
    rgb = np.floor(col / counts[:, None] + 0.5).astype(np.uint8)

    votes1 = np.bincount(inverse, weights=(cloud.labels == 1), minlength=nvox)
    votes0 = np.bincount(inverse, weights=(cloud.labels == 0), minlength=nvox)
    labels = np.full(nvox, UNLABELLED, dtype=np.int8)
    labelled = (votes0 + votes1) > 0
    labels[labelled] = 0
    labels[votes1 > votes0] = 1
    return PointCloud(centroid, rgb, labels)
