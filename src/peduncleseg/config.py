"""Declarative pipeline configuration: one INI file drives every command."""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

import numpy as np

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
    model_path: str = "model.json"
    report_dir: str = "reports"

    def __post_init__(self):
        if self.radius_ri <= 0:
            raise ConfigError("radius_ri must be > 0")
        if self.max_train_rows < 2:
            raise ConfigError("max_train_rows must be >= 2")


# section -> key -> parser; mirrors the dataclasses above
_SCHEMA = {
    "outlier": {"k_neighbours": int, "stddev_multiplier": float},
    "voxel": {"leaf_size": float},
    "normals": {"radius_rn": float, "viewpoint": "vec3"},
    "features": {"radius_ri": float},
    "train": {"kernel": str, "gamma": float, "c": float, "tolerance": float,
              "max_passes": int, "seed": int, "feature_set": str,
              "max_train_rows": int},
    "paths": {"model": str, "reports": str},
}


def _parse_value(section, key, raw):
    kind = _SCHEMA[section][key]
    try:
        if kind == "vec3":
            parts = raw.replace(",", " ").split()
            if len(parts) != 3:
                raise ValueError("expected three numbers")
            return np.array([float(v) for v in parts])
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(
            f"[{section}] {key} = {raw!r}: {exc}") from exc


def load_pipeline_config(path) -> PipelineConfig:
    """Parse an INI pipeline config; unknown sections or keys are errors."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc

    values = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            values[(section, key)] = _parse_value(section, key, raw)
    return _build(values)


def _build(values) -> PipelineConfig:
    def get(section, key, default):
        return values.get((section, key), default)

    try:
        outlier = OutlierParams(get("outlier", "k_neighbours", 50),
                                get("outlier", "stddev_multiplier", 1.0))
        voxel = VoxelParams(get("voxel", "leaf_size", 0.002))
        normals = NormalParams(get("normals", "radius_rn", 0.01),
                               get("normals", "viewpoint", np.zeros(3)))
        kind = get("train", "kernel", "rbf")
        gamma = get("train", "gamma", 0.01 if kind == "rbf" else None)
        kernel = KernelSpec(kind, gamma)
        train = TrainConfig(
            kernel=kernel,
            c=get("train", "c", 100.0),
            tolerance=get("train", "tolerance", 1e-3),
            max_passes=get("train", "max_passes", 10),
            seed=get("train", "seed", 0),
            feature_set=get("train", "feature_set", "full"),
        )
        return PipelineConfig(
            outlier=outlier,
            voxel=voxel,
            normals=normals,
            radius_ri=get("features", "radius_ri", 0.01),
            train=train,
            max_train_rows=get("train", "max_train_rows", 4000),
            model_path=get("paths", "model", "model.json"),
            report_dir=get("paths", "reports", "reports"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

