"""Point descriptors: HSV colour plus a 33-bin point feature histogram.

A point's full descriptor is 36 floats: (h, s, v) of its own colour
followed by the PFH over its radius neighbourhood.  The PFH pools the
Darboux angle triple (alpha, phi, theta) of every unordered neighbour pair
into three consecutive 11-bin blocks, each block normalised to sum 1.  A
feature set names the block a matrix holds: full, hsv or pfh.
"""

from __future__ import annotations

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


@dataclass
class PfhHistogram:
    bins: np.ndarray   # (33,) float64, each 11-bin block sums to 1
    pair_count: int


@dataclass
class FeatureMatrix:
    """Per-point descriptors aligned with the cloud they came from."""

    values: np.ndarray   # (N, d): the columns of one feature set
    labels: np.ndarray   # (N,) int8, -1 where unlabelled
    valid: np.ndarray    # (N,) bool, False where the PFH is undefined

    def __len__(self):
        return len(self.values)


def _check_inputs(cloud, normals, index, radius_ri):
    if radius_ri <= 0:
        raise ValueError("radius_ri must be > 0")
    if len(normals) != len(cloud) or len(index) != len(cloud):
        raise ValueError("cloud, normals and index disagree on point count")


def _pfh_rows(cloud, normals, index, radius_ri, queries):
    """Normalised PFH rows and pair counts of ``queries``, read from the
    index's radius CSR."""
    _check_inputs(cloud, normals, index, radius_ri)
    counts = _kernels.pfh_pair_histograms(
        cloud.xyz, normals.normals, normals.valid,
        *index.radius_neighbors_csr(radius_ri), radius_ri, queries)
    pairs = counts[:, :_kernels.NBINS].sum(axis=1)   # the alpha block's total
    hist = counts.astype(np.float64)
    scorable = pairs > 0
    hist[scorable] /= pairs[scorable, None].astype(np.float64)
    return hist, pairs


def compute_pfh(query_index: int, cloud: PointCloud, normals: NormalSet,
                index: SpatialIndex, radius_ri: float) -> PfhHistogram:
    """PFH of one point over its radius_ri neighbourhood.

    Pairs with an invalid normal on either side, and degenerate pairs, are
    skipped.  A neighbourhood with no scorable pair yields the zero
    histogram with pair_count 0.
    """
    if not 0 <= query_index < len(cloud):
        raise IndexError(f"query index {query_index} out of range")
    hist, pairs = _pfh_rows(cloud, normals, index, radius_ri,
                            np.array([query_index], dtype=np.int64))
    return PfhHistogram(hist[0], int(pairs[0]))


def _scorable(cloud, normals, index, radius_ri):
    """The rows of extract_features' ``valid``, without counting histograms.

    A valid point's PFH has a scorable pair as soon as one of its own pairs
    with a valid neighbour is scorable.  Only the valid points with no such
    pair, whose scorable pairs can lie between two other neighbours, are
    counted.
    """
    _check_inputs(cloud, normals, index, radius_ri)
    ok = normals.valid
    marked = _kernels.own_pair_scorable(
        cloud.xyz, normals.normals, ok,
        *index.radius_neighbors_csr(radius_ri))
    rest = np.flatnonzero(ok & ~marked)
    _hist, pairs = _pfh_rows(cloud, normals, index, radius_ri, rest)
    marked[rest] = pairs > 0
    return ok & marked


def extract_features(cloud: PointCloud, normals: NormalSet,
                     index: SpatialIndex, radius_ri: float,
                     feature_set: str = "full") -> FeatureMatrix:
    """Assemble the feature matrix of a whole cloud in ``feature_set``.

    The matrix holds that set's columns only: (N, 3) HSV for hsv, (N, 33)
    PFH for pfh, (N, 36) for full, so it equals ``select_features`` of the
    full matrix, and the PFH is counted only when the set holds it.  Rows
    whose query point has an invalid normal, or whose neighbourhood yields
    no scorable pair, are flagged valid=False (their PFH is zero); ``valid``
    is the same whatever the set.
    """
    cols = _columns(feature_set)
    # filled in place: stacking the blocks after the PFH kernel ran raised
    # the peak RSS of segbench's detect workload by about 3 MB
    values = np.empty((len(cloud), cols.stop - cols.start))
    if cols.start < 3:
        values[:, :3] = rgb_to_hsv(cloud.rgb)
    if cols.stop > 3:
        hist, pairs = _pfh_rows(cloud, normals, index, radius_ri,
                                np.arange(len(cloud), dtype=np.int64))
        values[:, 3 - cols.start:] = hist
        valid = normals.valid & (pairs > 0)
    else:
        valid = _scorable(cloud, normals, index, radius_ri)
    return FeatureMatrix(values, cloud.labels.copy(), valid)


def _columns(subset):
    if subset not in FEATURE_SLICES:
        raise ValueError(f"unknown feature subset {subset!r}; expected one of "
                         + ", ".join(sorted(FEATURE_SLICES)))
    return FEATURE_SLICES[subset]


def select_features(features: FeatureMatrix, subset: str) -> FeatureMatrix:
    """Cut a named column block, full, hsv or pfh, from full 36-column rows."""
    cols, width = _columns(subset), features.values.shape[1]
    if width != FEATURE_DIM:
        raise ValueError(f"select_features cuts full {FEATURE_DIM}-column "
                         f"rows, got {width} columns")
    return FeatureMatrix(features.values[:, cols], features.labels,
                         features.valid)
