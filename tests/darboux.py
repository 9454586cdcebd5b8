"""Scalar Darboux-frame angles of one point pair, importable from any test
module as ``darboux``.

The pipeline bins pairs with the vectorised ``_kernels._bin_codes``; this is
the one-pair form of the same frame, kept to test the frame's definition.
"""

import math
from dataclasses import dataclass

import numpy as np

from peduncleseg._kernels import DEGENERATE_CROSS_SQ


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
    if float(cross @ cross) < DEGENERATE_CROSS_SQ:
        raise DegeneratePairError(
            "source normal is parallel to the line joining the points")
    v = cross / np.linalg.norm(cross)
    w = np.cross(u, v)

    alpha = float(v @ n_tgt)
    phi = float(u @ d_hat)
    theta = math.atan2(float(w @ n_tgt), float(u @ n_tgt))
    return DarbouxQuadruplet(alpha, phi, theta, dist)
