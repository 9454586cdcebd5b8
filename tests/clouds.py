"""Random test clouds and a failing row formatter, importable from any test
module as ``clouds``."""

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


def failing_format_rows(format_rows, directory, seen):
    """A ``format_rows`` that yields its first chunk and then fails as a full
    disk would, noting in ``seen`` the names in ``directory`` at that moment."""
    def fail(row, columns):
        yield next(format_rows(row, columns))
        seen.extend(sorted(p.name for p in directory.iterdir()))
        raise OSError("disk full")
    return fail
