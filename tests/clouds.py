"""Random test clouds, importable from any test module as ``clouds``."""

import numpy as np

from peduncleseg import PointCloud


def random_cloud(rng, n=50, labelled=True, scale=0.05):
    xyz = rng.normal(size=(n, 3)) * scale
    rgb = rng.integers(0, 256, size=(n, 3), dtype=np.int64).astype(np.uint8)
    if labelled:
        labels = rng.integers(0, 2, size=n).astype(np.int8)
    else:
        labels = np.full(n, -1, dtype=np.int8)
    return PointCloud(xyz, rgb, labels)
