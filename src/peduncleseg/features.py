"""Point descriptors: HSV colour plus a 33-bin point feature histogram.

A point's descriptor is 36 floats: (h, s, v) of its own colour followed by
the PFH over its radius neighbourhood.  The PFH pools the Darboux angle
triple (alpha, phi, theta) of every unordered neighbour pair into three
consecutive 11-bin blocks, each block normalised to sum 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .cloud_io import PointCloud
from .geometry import NormalSet, SpatialIndex

HIST_BINS = 3 * _kernels.NBINS   # 33
FEATURE_DIM = 3 + HIST_BINS      # 36

# column blocks of the assembled feature matrix, by name
FEATURE_SLICES = {
    "full": slice(0, FEATURE_DIM),
    "hsv": slice(0, 3),
    "pfh": slice(3, FEATURE_DIM),
}


class DegeneratePairError(ValueError):
    """The two points coincide or a normal is parallel to the join line."""


@dataclass(frozen=True)
class DarbouxQuadruplet:
    alpha: float
    phi: float
    theta: float
    distance: float


def darboux_features(p_src, n_src, p_tgt, n_tgt) -> DarbouxQuadruplet:
    """Darboux-frame angles of one point pair.

    The source is the point whose normal makes the larger |cos| angle with
    the join line; on an exact tie the first argument is the source.  Frame:
    u = n_source, v = unit(u x d_hat), w = u x v, with d_hat the unit vector
    from source to target.
    """
    p_src = np.asarray(p_src, dtype=np.float64).reshape(3)
    p_tgt = np.asarray(p_tgt, dtype=np.float64).reshape(3)
    n_src = np.asarray(n_src, dtype=np.float64).reshape(3)
    n_tgt = np.asarray(n_tgt, dtype=np.float64).reshape(3)

    d = p_tgt - p_src
    dist = float(np.linalg.norm(d))
    if dist == 0.0:
        raise DegeneratePairError("coincident points have no Darboux frame")
    d_hat = d / dist
    if abs(float(n_tgt @ d_hat)) > abs(float(n_src @ d_hat)):
        p_src, p_tgt = p_tgt, p_src
        n_src, n_tgt = n_tgt, n_src
        d_hat = -d_hat

    u = n_src
    cross = np.cross(u, d_hat)
    if float(cross @ cross) < _kernels.DEGENERATE_CROSS_SQ:
        raise DegeneratePairError(
            "source normal is parallel to the line joining the points")
    v = cross / np.linalg.norm(cross)
    w = np.cross(u, v)

    alpha = float(v @ n_tgt)
    phi = float(u @ d_hat)
    theta = math.atan2(float(w @ n_tgt), float(u @ n_tgt))
    return DarbouxQuadruplet(alpha, phi, theta, dist)


def rgb_to_hsv(rgb):
    """Map 8-bit RGB to HSV, every channel in [0, 1].

    Accepts one triple or an (N, 3) array.  Hexcone model: h is 0 for grey
    pixels, s is 0 when v is 0.
    """
    arr = np.asarray(rgb, dtype=np.float64)
    single = arr.ndim == 1
    arr = np.atleast_2d(arr) / 255.0
    r, g, b = arr[:, 0], arr[:, 1], arr[:, 2]

    maxc = np.max(arr, axis=1)
    minc = np.min(arr, axis=1)
    rangec = maxc - minc
    v = maxc

    s = np.zeros_like(v)
    np.divide(rangec, maxc, out=s, where=maxc > 0)

    grey = rangec == 0
    safe = np.where(grey, 1.0, rangec)
    rc = (maxc - r) / safe
    gc = (maxc - g) / safe
    bc = (maxc - b) / safe
    # later assignments win, so ties resolve r over g over b as in colorsys
    h = 4.0 + gc - rc
    h = np.where(g == maxc, 2.0 + rc - bc, h)
    h = np.where(r == maxc, bc - gc, h)
    h = np.where(grey, 0.0, (h / 6.0) % 1.0)

    out = np.stack([h, s, v], axis=1)
    return out[0] if single else out


def hsv_to_rgb(hsv):
    """Inverse of rgb_to_hsv, returning float channels in [0, 1]."""
    arr = np.asarray(hsv, dtype=np.float64)
    single = arr.ndim == 1
    arr = np.atleast_2d(arr)
    h, s, v = arr[:, 0], arr[:, 1], arr[:, 2]

    i = np.floor(h * 6.0)
    f = h * 6.0 - i
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))
    i = i.astype(np.int64) % 6

    r = np.choose(i, [v, q, p, p, t, v])
    g = np.choose(i, [t, v, v, q, p, p])
    b = np.choose(i, [p, p, t, v, v, q])
    out = np.stack([r, g, b], axis=1)
    return out[0] if single else out


@dataclass
class PfhHistogram:
    bins: np.ndarray   # (33,) float64, each 11-bin block sums to 1
    pair_count: int


@dataclass
class FeatureMatrix:
    """Per-point descriptors aligned with the cloud they came from."""

    values: np.ndarray   # (N, 36)
    labels: np.ndarray   # (N,) int8, -1 where unlabelled
    valid: np.ndarray    # (N,) bool, False where the PFH is undefined

    def __len__(self):
        return len(self.values)


def compute_pfh(query_index: int, cloud: PointCloud, normals: NormalSet,
                index: SpatialIndex, radius_ri: float) -> PfhHistogram:
    """PFH of one point over its radius_ri neighbourhood.

    Pairs with an invalid normal on either side, and degenerate pairs, are
    skipped.  A neighbourhood with no scorable pair yields the zero
    histogram with pair_count 0.
    """
    if not 0 <= query_index < len(cloud):
        raise IndexError(f"query index {query_index} out of range")
    nbrs = index.radius_query(cloud.xyz[query_index], radius_ri)
    # CSR with only the query's slot populated
    offsets = np.zeros(len(cloud) + 1, dtype=np.int64)
    offsets[query_index + 1:] = len(nbrs)
    counts, pairs = _kernels.pfh_pair_histograms(
        cloud.xyz, normals.normals, normals.valid,
        nbrs, offsets, np.array([query_index], dtype=np.int64))
    npairs = int(pairs[0])
    bins = counts[0].astype(np.float64)
    if npairs > 0:
        bins /= npairs
    return PfhHistogram(bins, npairs)


def extract_features(cloud: PointCloud, normals: NormalSet,
                     index: SpatialIndex, radius_ri: float) -> FeatureMatrix:
    """Assemble the (N, 36) feature matrix for a whole cloud.

    Rows whose query point has an invalid normal, or whose neighbourhood
    yields no scorable pair, are flagged valid=False (their PFH block is
    zero; the HSV block is still filled).
    """
    if radius_ri <= 0:
        raise ValueError("radius_ri must be > 0")
    if len(normals) != len(cloud) or len(index) != len(cloud):
        raise ValueError("cloud, normals and index disagree on point count")
    n = len(cloud)
    nbr_idx, nbr_off = index.radius_neighbors_csr(radius_ri)
    queries = np.arange(n, dtype=np.int64)
    counts, pairs = _kernels.pfh_pair_histograms(
        cloud.xyz, normals.normals, normals.valid, nbr_idx, nbr_off, queries)

    values = np.zeros((n, FEATURE_DIM))
    values[:, :3] = rgb_to_hsv(cloud.rgb)
    hist = counts.astype(np.float64)
    scorable = pairs > 0
    hist[scorable] /= pairs[scorable, None].astype(np.float64)
    values[:, 3:] = hist
    valid = normals.valid & scorable
    return FeatureMatrix(values, cloud.labels.copy(), valid)


def select_features(features: FeatureMatrix, subset: str) -> FeatureMatrix:
    """Restrict the descriptor to a named column block: full, hsv or pfh."""
    if subset not in FEATURE_SLICES:
        raise ValueError(f"unknown feature subset {subset!r}; expected one of "
                         + ", ".join(sorted(FEATURE_SLICES)))
    cols = FEATURE_SLICES[subset]
    return FeatureMatrix(features.values[:, cols], features.labels,
                         features.valid)
