"""Scene-level plumbing: cleanup -> normals -> features, and training pools."""

from __future__ import annotations

import logging
import time

import numpy as np

from .cloud_io import DatasetManifest, PointCloud, read_cloud
from .config import PipelineConfig
from .features import FeatureMatrix, extract_features, select_features
from .geometry import build_index, estimate_normals
from .learn import TrainConfig, TrainingError
from .preprocess import remove_statistical_outliers, voxel_downsample

log = logging.getLogger(__name__)


def scene_features(cloud: PointCloud, cfg: PipelineConfig):
    """Run one cloud through the full feature pipeline.

    Returns (processed_cloud, features); the feature matrix is aligned with
    the processed (outlier-filtered, downsampled) cloud, not the input.
    """
    t0 = time.perf_counter()
    filtered = remove_statistical_outliers(cloud, cfg.outlier)
    t1 = time.perf_counter()
    log.info("outlier removal: %d -> %d points (%.2fs)",
             len(cloud), len(filtered), t1 - t0)

    sampled = voxel_downsample(filtered, cfg.voxel)
    t2 = time.perf_counter()
    log.info("voxel downsample: %d -> %d points (%.2fs)",
             len(filtered), len(sampled), t2 - t1)

    index = build_index(sampled)
    normals = estimate_normals(sampled, index, cfg.normals)
    t3 = time.perf_counter()
    log.info("normal estimation: %d points, %d valid (%.2fs)",
             len(sampled), int(normals.valid.sum()), t3 - t2)

    features = extract_features(sampled, normals, index, cfg.radius_ri)
    t4 = time.perf_counter()
    log.info("feature extraction: %d rows, %d valid (%.2fs)",
             len(features), int(features.valid.sum()), t4 - t3)
    return sampled, features


def manifest_scene_features(manifest: DatasetManifest, cfg: PipelineConfig):
    """Read and featurise each scene of the manifest in order.

    Yields (entry, features) per entry; the features are the full 36-d rows
    of scene_features.
    """
    for entry in manifest.entries:
        log.info("processing scene %s", entry.path)
        _cloud, fm = scene_features(read_cloud(manifest.resolve(entry)), cfg)
        yield entry, fm


def pooled_features(manifest: DatasetManifest, cfg: PipelineConfig) -> FeatureMatrix:
    """Concatenate feature rows of every scene in the manifest (full 36-d)."""
    scenes = [fm for _entry, fm in manifest_scene_features(manifest, cfg)]
    return FeatureMatrix(np.concatenate([fm.values for fm in scenes]),
                         np.concatenate([fm.labels for fm in scenes]),
                         np.concatenate([fm.valid for fm in scenes]))


def assemble_training_matrix(source, cfg: PipelineConfig,
                             train_config: TrainConfig | None = None) -> FeatureMatrix:
    """Build the training pool: labelled, valid rows, capped and sliced.

    ``source`` is a DatasetManifest (scenes are processed here) or an
    already-pooled full-width FeatureMatrix.  Rows beyond cfg.max_train_rows
    are subsampled per class with the training seed, keeping class
    proportions; the feature subset of the train config is then applied.
    """
    train_config = train_config or cfg.train
    full = source if isinstance(source, FeatureMatrix) \
        else pooled_features(source, cfg)
    usable = (full.labels >= 0) & full.valid
    if not usable.any():
        raise TrainingError("no labelled rows with valid descriptors")
    rows = np.flatnonzero(usable)
    labels = full.labels[rows]

    if rows.size > cfg.max_train_rows:
        rng = np.random.default_rng(train_config.seed)
        pos = rows[labels == 1]
        neg = rows[labels != 1]
        n_pos = round(cfg.max_train_rows * pos.size / rows.size)
        n_pos = min(max(n_pos, 1 if pos.size else 0), pos.size,
                    cfg.max_train_rows - 1)
        n_neg = min(cfg.max_train_rows - n_pos, neg.size)
        keep = np.concatenate([
            pos[rng.permutation(pos.size)[:n_pos]],
            neg[rng.permutation(neg.size)[:n_neg]],
        ])
        keep.sort()
        log.info("training pool capped: %d -> %d rows", rows.size, keep.size)
        rows = keep

    pool = FeatureMatrix(full.values[rows], full.labels[rows], full.valid[rows])
    return select_features(pool, train_config.feature_set)
