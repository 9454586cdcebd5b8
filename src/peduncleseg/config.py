"""Declarative pipeline configuration: the INI file that --config names."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .cloud_io import read_ini
from .geometry import NormalParams
from .learn import KernelSpec, TrainConfig
from .preprocess import OutlierParams, VoxelParams


class ConfigError(ValueError):
    """The pipeline config file is malformed or holds an invalid value."""


@dataclass
class PipelineConfig:
    outlier: OutlierParams = field(default_factory=OutlierParams)
    voxel: VoxelParams = field(default_factory=VoxelParams)
    normals: NormalParams = field(default_factory=NormalParams)
    radius_ri: float = 0.01
    train: TrainConfig = field(default_factory=TrainConfig)
    max_train_rows: int = 4000

    def __post_init__(self):
        if not 0 < self.radius_ri < np.inf:
            raise ConfigError("radius_ri must be > 0 and finite")
        if self.max_train_rows < 2:
            raise ConfigError("max_train_rows must be >= 2")


def _vec3(raw):
    """Three numbers separated by spaces or commas."""
    parts = raw.replace(",", " ").split()
    if len(parts) != 3:
        raise ValueError("expected three numbers")
    return np.array([float(v) for v in parts])


# section -> key -> parser; mirrors the dataclasses above
_SCHEMA = {
    "outlier": {"k_neighbours": int, "stddev_multiplier": float},
    "voxel": {"leaf_size": float},
    "normals": {"radius_rn": float, "viewpoint": _vec3},
    "features": {"radius_ri": float},
    "train": {"kernel": str, "gamma": float, "c": float, "tolerance": float,
              "max_passes": int, "seed": int, "feature_set": str,
              "max_train_rows": int},
}
# keys that set a field of PipelineConfig itself; the other keys of a
# section set the same-named field of its part (outlier, voxel, normals,
# train; kernel and gamma make the train part's KernelSpec)
_TOP_FIELDS = {("features", "radius_ri"): "radius_ri",
               ("train", "max_train_rows"): "max_train_rows"}


def load_pipeline_config(path) -> PipelineConfig:
    """Parse an INI pipeline config; unknown sections or keys are errors."""
    return _build(read_ini(path, _SCHEMA, ConfigError, "config"))


def _build(values) -> PipelineConfig:
    """PipelineConfig from the dataclass defaults and the keys the file sets."""
    def part(section):
        return {key: v for key, v in values[section].items()
                if (section, key) not in _TOP_FIELDS}

    base = PipelineConfig()
    try:
        train = part("train")
        kind = train.pop("kernel", base.train.kernel.kind)
        gamma = train.pop("gamma",
                          KernelSpec().gamma if kind == "rbf" else None)
        return replace(
            base,
            outlier=replace(base.outlier, **part("outlier")),
            voxel=replace(base.voxel, **part("voxel")),
            normals=replace(base.normals, **part("normals")),
            train=replace(base.train, kernel=KernelSpec(kind, gamma), **train),
            **{name: values[s][key] for (s, key), name in _TOP_FIELDS.items()
               if key in values[s]})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
