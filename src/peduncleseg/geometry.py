"""Spatial indexing and radius-based surface-normal estimation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from . import _kernels
from .cloud_io import PointCloud


@dataclass
class NormalParams:
    radius_rn: float = 0.01
    viewpoint: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.viewpoint = np.asarray(self.viewpoint, dtype=np.float64).reshape(3)
        if not 0 < self.radius_rn < np.inf:
            raise ValueError("radius_rn must be > 0 and finite")
        if not np.isfinite(self.viewpoint).all():
            raise ValueError("viewpoint must be finite")


@dataclass
class NormalSet:
    """Per-point unit normals.

    Entries with valid=False (fewer than 3 neighbours, or a collinear /
    coincident neighbourhood) carry a zero normal; they are flagged, never
    used silently.
    """

    normals: np.ndarray   # (N, 3)
    valid: np.ndarray     # (N,) bool

    def __len__(self):
        return len(self.normals)


class SpatialIndex:
    """KD-tree over cloud positions answering inclusive radius queries."""

    def __init__(self, xyz):
        self.xyz = np.ascontiguousarray(xyz, dtype=np.float64)
        if len(self.xyz) == 0:
            raise ValueError("cannot index an empty cloud")
        self._tree = cKDTree(self.xyz)
        self._csr = {}

    def __len__(self):
        return len(self.xyz)

    def radius_neighbors_csr(self, radius):
        """Neighbour lists of every indexed point against itself, in CSR form.

        Returns (indices, offsets), both int64: point i's neighbours, within
        ``radius`` inclusive, self included, ascending, are
        indices[offsets[i]:offsets[i+1]].  The rows are built from arrays:
        the tree's pairs (i, j), i < j, are mirrored, every point joins its
        own row, and one sort of the unique keys ``i * N + j`` orders them
        by row, then column.  They are built once per radius and shared by
        every caller, so both arrays are read-only.
        """
        radius = float(radius)
        csr = self._csr.get(radius)
        if csr is None:
            n = len(self.xyz)
            pairs = self._tree.query_pairs(radius, output_type="ndarray")
            own = np.arange(n)
            rows = np.concatenate((pairs[:, 0], pairs[:, 1], own))
            cols = np.concatenate((pairs[:, 1], pairs[:, 0], own))
            indices = np.sort(rows * n + cols) % n
            offsets = np.concatenate(
                ([0], np.cumsum(np.bincount(rows, minlength=n))))
            indices.flags.writeable = False
            offsets.flags.writeable = False
            csr = self._csr[radius] = (indices, offsets)
        return csr

    def knn_distances(self, k):
        """Distances to the k nearest other points, shape (N, k)."""
        if k >= len(self.xyz):
            raise ValueError(f"k={k} must be smaller than the point count "
                             f"{len(self.xyz)}")
        dists, _ = self._tree.query(self.xyz, k=k + 1)
        return dists[:, 1:]


def build_index(cloud: PointCloud) -> SpatialIndex:
    return SpatialIndex(cloud.xyz)


# second-smallest eigenvalue below this fraction of the largest means the
# neighbourhood is collinear (or coincident) and has no stable normal
_DEGENERATE_EIG_RATIO = 1e-12


def estimate_normals(cloud: PointCloud, index: SpatialIndex,
                     params: NormalParams) -> NormalSet:
    """PCA normals over radius neighbourhoods, oriented toward the viewpoint.

    The normal is the smallest-eigenvalue eigenvector of the neighbourhood
    covariance, flipped so that n . (viewpoint - p) >= 0.  When that dot
    product is exactly zero the sign is canonical: positive z, else positive
    y, else positive x.
    """
    if len(cloud) == 0:
        raise ValueError("empty cloud")
    if len(index) != len(cloud):
        raise ValueError("index was built from a different cloud")
    xyz = cloud.xyz
    nbr_idx, nbr_off = index.radius_neighbors_csr(params.radius_rn)
    counts, _means, covs = _kernels.neighborhood_moments(xyz, nbr_idx, nbr_off)

    evals, evecs = np.linalg.eigh(covs)
    evals = np.maximum(evals, 0.0)
    normals = np.ascontiguousarray(evecs[:, :, 0])
    total = evals.sum(axis=1)

    valid = (counts >= 3) & (total > 0.0) \
        & (evals[:, 1] > _DEGENERATE_EIG_RATIO * evals[:, 2])

    toward = params.viewpoint[None, :] - xyz
    orient = np.einsum("ij,ij->i", normals, toward)
    flip = orient < 0.0
    tie = orient == 0.0
    if np.any(tie):
        nz = normals[:, 2]
        ny = normals[:, 1]
        nx = normals[:, 0]
        canon = np.where(nz != 0.0, nz, np.where(ny != 0.0, ny, nx))
        flip = flip | (tie & (canon < 0.0))
    normals[flip] *= -1.0
    normals[~valid] = 0.0
    return NormalSet(normals, valid)
