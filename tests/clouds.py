"""Random test clouds, PFH kernel scenes, a call recorder and a failing row
formatter, importable from any test module as ``clouds``.

A kernel scene is ``(xyz, normals, valid, nbr_idx, nbr_off, radius)``: the
inputs of ``_kernels.pfh_pair_histograms`` but the queries.
"""

import numpy as np

from peduncleseg import PointCloud, SpatialIndex


def random_cloud(rng, n=50, labelled=True, scale=0.05):
    xyz = rng.normal(size=(n, 3)) * scale
    rgb = rng.integers(0, 256, size=(n, 3), dtype=np.int64).astype(np.uint8)
    if labelled:
        labels = rng.integers(0, 2, size=n).astype(np.int8)
    else:
        labels = np.full(n, -1, dtype=np.int8)
    return PointCloud(xyz, rgb, labels)


def scene(rng, n=300, radius=0.015):
    xyz = rng.normal(size=(n, 3)) * 0.02
    normals = rng.normal(size=(n, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    valid = rng.random(n) > 0.05
    nbr_idx, nbr_off = SpatialIndex(xyz).radius_neighbors_csr(radius)
    return xyz, normals, valid, nbr_idx, nbr_off, radius


def edge_case_scene(rng, n=60, radius=0.012):
    """A small cloud holding every pair the PFH kernels must skip."""
    xyz = rng.normal(size=(n, 3)) * 0.01
    normals = rng.normal(size=(n, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    valid = np.ones(n, dtype=bool)
    valid[[4, 9]] = False                  # invalid normals
    xyz[7] = xyz[3]                        # duplicated point: d2 == 0
    xyz[1] = xyz[0] + [0.002, 0.001, 0.0]  # source normal along the join line
    normals[0] = (xyz[1] - xyz[0]) / np.linalg.norm(xyz[1] - xyz[0])
    nbr_idx, nbr_off = SpatialIndex(xyz).radius_neighbors_csr(radius)
    return xyz, normals, valid, nbr_idx, nbr_off, radius


def clustered_scene(rng, clusters=5, size=8):
    """Tight, far-apart clusters: within a cluster every point is inside
    every neighbourhood, and no neighbourhood reaches another cluster."""
    centres = np.arange(clusters)[:, None] * [1.0, 0.0, 0.0]
    xyz = np.repeat(centres, size, axis=0) + rng.normal(size=(clusters * size, 3)) * 1e-3
    normals = rng.normal(size=xyz.shape)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    valid = np.ones(len(xyz), dtype=bool)
    nbr_idx, nbr_off = SpatialIndex(xyz).radius_neighbors_csr(0.1)
    assert np.all(np.diff(nbr_off) == size)
    return xyz, normals, valid, nbr_idx, nbr_off, 0.1


def record_calls(monkeypatch, module, name):
    """List that collects the arguments of every call to ``module.name``
    while ``monkeypatch`` is active."""
    calls = []
    real = getattr(module, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


def failing_format_rows(format_rows, directory, seen):
    """A ``format_rows`` that yields its first chunk and then fails as a full
    disk would, noting in ``seen`` the names in ``directory`` at that moment."""
    def fail(row, columns):
        yield next(format_rows(row, columns))
        seen.extend(sorted(p.name for p in directory.iterdir()))
        raise OSError("disk full")
    return fail
