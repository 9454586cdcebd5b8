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


def scene_features(cloud: PointCloud, cfg: PipelineConfig,
                   feature_set: str = "full"):
    """Run one cloud through the full feature pipeline.

    Returns (processed_cloud, features); the feature matrix is aligned with
    the processed (outlier-filtered, downsampled) cloud, not the input,
    and holds the columns of ``feature_set`` only (see extract_features).
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

    features = extract_features(sampled, normals, index, cfg.radius_ri,
                                feature_set)
    t4 = time.perf_counter()
    log.info("feature extraction: %d rows, %d valid (%.2fs)",
             len(features), int(features.valid.sum()), t4 - t3)
    return sampled, features


def manifest_scene_features(manifest: DatasetManifest, cfg: PipelineConfig,
                            feature_set: str = "full"):
    """Read and featurise each scene of the manifest in order.

    Yields (entry, features) per entry; the features are the rows of
    scene_features in ``feature_set``.
    """
    for entry in manifest.entries:
        log.info("processing scene %s", entry.path)
        _cloud, fm = scene_features(read_cloud(manifest.resolve(entry)), cfg,
                                    feature_set)
        yield entry, fm


def pooled_features(manifest: DatasetManifest, cfg: PipelineConfig,
                    feature_set: str = "full") -> FeatureMatrix:
    """Concatenate the feature rows, in ``feature_set``, of every scene in
    the manifest."""
    scenes = [fm for _entry, fm in manifest_scene_features(manifest, cfg,
                                                           feature_set)]
    return FeatureMatrix(np.concatenate([fm.values for fm in scenes]),
                         np.concatenate([fm.labels for fm in scenes]),
                         np.concatenate([fm.valid for fm in scenes]))


def assemble_training_matrix(source, cfg: PipelineConfig,
                             train_config: TrainConfig | None = None) -> FeatureMatrix:
    """Build the training pool: labelled, valid rows, capped and sliced.

    ``source`` is a DatasetManifest, whose scenes are featurised here in
    the train config's feature set, or an already-pooled full-width
    FeatureMatrix, from which that set's columns are selected.  Rows beyond
    cfg.max_train_rows are subsampled per class with the training seed,
    keeping class proportions.
    """
    train_config = train_config or cfg.train
    pool = (select_features(source, train_config.feature_set)
            if isinstance(source, FeatureMatrix)
            else pooled_features(source, cfg, train_config.feature_set))
    usable = (pool.labels >= 0) & pool.valid
    if not usable.any():
        raise TrainingError("no labelled rows with valid descriptors")
    rows = np.flatnonzero(usable)
    labels = pool.labels[rows]

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

    return FeatureMatrix(pool.values[rows], pool.labels[rows], pool.valid[rows])
