"""Synthetic capsicum scenes with exact point-level labels.

A scene is a sphere (the fruit body, label 0) with a bent tube (the
peduncle, label 1) grafted onto its top pole.  The tube follows a circular
arc of the requested curvature; curvature 0 degenerates to a straight
cylinder along +z.  Geometry and colours are drawn from one seeded
generator, so a spec reproduces its cloud bit for bit.
"""

from __future__ import annotations

import colorsys
import math
from dataclasses import dataclass, replace

import numpy as np

from .cloud_io import PepperColour, PointCloud, read_ini


class SceneSpecError(ValueError):
    """A scene parameter is out of its documented range."""


@dataclass(frozen=True)
class SceneSpec:
    body_radius: float = 0.04
    peduncle_radius: float = 0.005
    peduncle_length: float = 0.03
    peduncle_curvature: float = 25.0   # 1 / bend radius, 0 = straight
    body_hue: float = 0.0              # red
    peduncle_hue: float = 1.0 / 3.0    # green
    colour_noise_std: float = 8.0      # 8-bit channel units
    position_noise_std: float = 0.001
    points_body: int = 5000
    points_peduncle: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.body_radius < math.inf
                and 0 < self.peduncle_radius < math.inf):
            raise SceneSpecError("radii must be > 0 and finite")
        if not 0 < self.peduncle_length < math.inf:
            raise SceneSpecError("peduncle_length must be > 0 and finite")
        if not 0 <= self.peduncle_curvature < math.inf:
            raise SceneSpecError("peduncle_curvature must be >= 0 and finite")
        if self.peduncle_curvature * self.peduncle_length >= 2.0 * math.pi:
            raise SceneSpecError("peduncle arc would wrap onto itself")
        if not 0.0 <= self.body_hue <= 1.0 or not 0.0 <= self.peduncle_hue <= 1.0:
            raise SceneSpecError("hues must lie in [0, 1]")
        if not (0 <= self.colour_noise_std < math.inf
                and 0 <= self.position_noise_std < math.inf):
            raise SceneSpecError("noise levels must be >= 0 and finite")
        if self.points_body < 1 or self.points_peduncle < 1:
            raise SceneSpecError("point counts must be >= 1")


def _unit_rows(rng, n):
    """Uniform directions on the sphere via normalized Gaussian triples."""
    v = rng.normal(size=(n, 3))
    norms = np.linalg.norm(v, axis=1)
    # redraw the (measure-zero) rows that normalized to nothing
    while np.any(norms == 0.0):
        bad = norms == 0.0
        v[bad] = rng.normal(size=(int(bad.sum()), 3))
        norms = np.linalg.norm(v, axis=1)
    return v / norms[:, None]


def _peduncle_points(rng, spec):
    """Points on a tube around a circular arc leaving the top pole along +z."""
    n = spec.points_peduncle
    s = rng.uniform(0.0, spec.peduncle_length, n)     # arc length along axis
    ring = rng.uniform(0.0, 2.0 * math.pi, n)          # angle around the tube
    kappa = spec.peduncle_curvature
    pole = np.array([0.0, 0.0, spec.body_radius])
    if kappa > 0.0:
        r_arc = 1.0 / kappa
        psi = s * kappa
        centre = np.stack([r_arc * (1.0 - np.cos(psi)),
                           np.zeros(n),
                           r_arc * np.sin(psi)], axis=1) + pole
        # local frame: normal in the bend plane, binormal fixed at +y
        nrm = np.stack([np.cos(psi), np.zeros(n), -np.sin(psi)], axis=1)
    else:
        centre = np.stack([np.zeros(n), np.zeros(n), s], axis=1) + pole
        nrm = np.tile([1.0, 0.0, 0.0], (n, 1))
    binorm = np.tile([0.0, 1.0, 0.0], (n, 1))
    offset = (np.cos(ring)[:, None] * nrm + np.sin(ring)[:, None] * binorm)
    return centre + spec.peduncle_radius * offset


def _colours(rng, hue, n, noise_std):
    base = np.array(colorsys.hsv_to_rgb(hue, 1.0, 1.0)) * 255.0
    noisy = base[None, :] + rng.normal(0.0, noise_std, (n, 3))
    return np.clip(np.floor(noisy + 0.5), 0.0, 255.0).astype(np.uint8)


def generate_scene(spec: SceneSpec) -> PointCloud:
    """Sample one labelled scene; identical spec gives an identical cloud."""
    rng = np.random.default_rng(spec.seed)
    body = spec.body_radius * _unit_rows(rng, spec.points_body)
    ped = _peduncle_points(rng, spec)
    xyz = np.concatenate([body, ped])
    xyz = xyz + rng.normal(0.0, spec.position_noise_std, xyz.shape)

    rgb = np.concatenate([
        _colours(rng, spec.body_hue, spec.points_body, spec.colour_noise_std),
        _colours(rng, spec.peduncle_hue, spec.points_peduncle,
                 spec.colour_noise_std),
    ])
    labels = np.concatenate([
        np.zeros(spec.points_body, dtype=np.int8),
        np.ones(spec.points_peduncle, dtype=np.int8),
    ])
    return PointCloud(xyz, rgb, labels)


# hue presets for the dataset colour tags; "mixed" alternates per scene
COLOUR_HUES = {"red": 0.0, "green": 1.0 / 3.0}


def scene_for_colour(spec: SceneSpec, colour: str, index: int) -> SceneSpec:
    """Specialise a base spec for a manifest colour tag and scene index."""
    if colour == "mixed":
        hue = COLOUR_HUES["red"] if index % 2 == 0 else COLOUR_HUES["green"]
    elif colour in COLOUR_HUES:
        hue = COLOUR_HUES[colour]
    else:
        raise SceneSpecError(f"unknown colour tag {colour!r}")
    return replace(spec, body_hue=hue, seed=spec.seed + index)


@dataclass(frozen=True)
class DatasetRequest:
    """One synth run: how many scenes of which colour from which base spec."""

    base: SceneSpec
    scenes: int
    colour: str
    prefix: str = "scene"

    def __post_init__(self):
        if self.scenes < 1:
            raise SceneSpecError("scenes must be >= 1")
        if self.colour not in PepperColour:
            raise SceneSpecError(f"unknown colour tag {self.colour!r}")
        if not self.prefix or "/" in self.prefix:
            raise SceneSpecError("prefix must be a plain file name stem")


_SCHEMA = {
    "dataset": {"scenes": int, "seed": int, "colour": str, "prefix": str},
    "scene": {"body_radius": float, "peduncle_radius": float,
              "peduncle_length": float, "peduncle_curvature": float,
              "body_hue": float, "peduncle_hue": float,
              "colour_noise_std": float, "position_noise_std": float,
              "points_body": int, "points_peduncle": int},
}


def load_scene_request(path) -> DatasetRequest:
    """Parse a scene spec INI: a [dataset] section plus optional [scene] keys."""
    values = read_ini(path, _SCHEMA, SceneSpecError, "scene spec")
    dataset = values["dataset"]
    base = SceneSpec(seed=dataset.pop("seed", 0), **values["scene"])
    return DatasetRequest(base=base,
                          scenes=dataset.get("scenes", 8),
                          colour=dataset.get("colour", "red"),
                          prefix=dataset.get("prefix", "scene"))
