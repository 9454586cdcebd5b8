"""Declarative pipeline configuration: one INI file drives every command."""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, replace

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
# keys that set a field of PipelineConfig itself; the other keys of a
# section set the same-named field of its part (outlier, voxel, normals,
# train; kernel and gamma make the train part's KernelSpec)
_TOP_FIELDS = {("features", "radius_ri"): "radius_ri",
               ("train", "max_train_rows"): "max_train_rows",
               ("paths", "model"): "model_path",
               ("paths", "reports"): "report_dir"}


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
    """PipelineConfig from the dataclass defaults and the keys the file sets."""
    def part(section):
        return {key: v for (s, key), v in values.items()
                if s == section and (s, key) not in _TOP_FIELDS}

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
            **{name: values[key] for key, name in _TOP_FIELDS.items()
               if key in values})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
