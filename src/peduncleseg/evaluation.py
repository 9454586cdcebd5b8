"""Dataset splitting, precision-recall curves and AUC, scene evaluation."""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

from .cloud_io import DatasetManifest
from .features import select_features
from .learn import SvmModel, TrainConfig, TrainingError, decision_scores, train_svm
from .pipeline import (assemble_training_matrix, manifest_scene_features,
                       pooled_features)

log = logging.getLogger(__name__)

STRATIFY_KEYS = ("none", "trip", "colour")
# evaluate's slices in report order: (tag, manifest entry field, value);
# "overall" holds every scene
_SLICES = (("overall", None, None), ("trip-1", "trip", 1),
           ("trip-2", "trip", 2), ("red", "colour", "red"),
           ("green", "colour", "green"), ("mixed", "colour", "mixed"))


class EvaluationError(RuntimeError):
    """Scores and labels cannot produce a curve (for example one class only)."""


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.5
    seed: int = 0
    stratify_by: str = "none"

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be strictly between 0 and 1")
        if self.stratify_by not in STRATIFY_KEYS:
            raise ValueError(f"unknown stratify_by {self.stratify_by!r}")


def split_dataset(manifest: DatasetManifest, spec: SplitSpec):
    """Deterministic shuffled split of manifest entries.

    Entries are grouped by the stratum key, each group is shuffled with a
    generator seeded by spec.seed, and the first round(fraction * n) of each
    go to the train side.  Returns (train_manifest, test_manifest); the two
    partition the input.
    """
    entries = manifest.entries
    if len(entries) < 2:
        raise ValueError("need at least 2 entries to split")
    if spec.stratify_by == "none":
        groups = {"all": list(entries)}
    else:
        groups = {}
        for entry in entries:
            key = entry.trip if spec.stratify_by == "trip" else entry.colour
            groups.setdefault(key, []).append(entry)
    rng = np.random.default_rng(spec.seed)
    train, test = [], []
    for key in sorted(groups, key=str):
        members = groups[key]
        order = rng.permutation(len(members))
        cut = round(spec.train_fraction * len(members))
        train.extend(members[i] for i in order[:cut])
        test.extend(members[i] for i in order[cut:])
    if not train or not test:
        raise ValueError(
            f"train_fraction {spec.train_fraction} leaves an empty side "
            f"for {len(entries)} entries")
    return (DatasetManifest(train, manifest.base_dir),
            DatasetManifest(test, manifest.base_dir))


@dataclass
class PrCurve:
    """Operating points ordered by decreasing threshold.

    The first point is the zero-recall anchor at the precision of the
    top-scoring tie group (threshold +inf); each later point is one distinct
    score threshold, ties collapsed.
    """

    recall: np.ndarray
    precision: np.ndarray
    thresholds: np.ndarray

    @property
    def points(self):
        return list(zip(self.recall.tolist(), self.precision.tolist()))


def pr_curve(scores, labels) -> PrCurve:
    """Precision-recall curve of scores against binary labels (1 positive)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be equal-length 1-d arrays")
    if not np.all(np.isfinite(scores)):
        raise EvaluationError("scores contain non-finite values")
    pos = labels == 1
    p = int(pos.sum())
    if p == 0 or p == len(labels):
        raise EvaluationError(
            "precision-recall needs at least one positive and one negative")

    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_pos = pos[order].astype(np.int64)
    # last index of each distinct-score tie group
    last = np.flatnonzero(np.diff(sorted_scores) != 0.0)
    last = np.append(last, len(scores) - 1)
    tp = np.cumsum(sorted_pos)[last]
    total = last + 1
    recall = tp / p
    precision = tp / total
    thresholds = sorted_scores[last]
    return PrCurve(
        np.concatenate(([0.0], recall)),
        np.concatenate(([precision[0]], precision)),
        np.concatenate(([np.inf], thresholds)),
    )


def auc(curve: PrCurve) -> float:
    """Area under the curve along the recall axis (trapezoid rule)."""
    r, p = curve.recall, curve.precision
    return float(np.sum(np.diff(r) * (p[1:] + p[:-1]) / 2.0))


@dataclass
class EvalReport:
    slice_tag: str
    auc: float
    curve: PrCurve
    positives: int
    negatives: int


def evaluate(model: SvmModel, test: DatasetManifest, pipeline) -> list[EvalReport]:
    """Point-pooled PR/AUC over the test manifest, overall plus slices.

    Produces one report per slice: "overall", then "trip-1"/"trip-2" and one
    per colour tag, in that order, for slices that are present.  A slice
    holds the labelled points of the scenes whose manifest entry matches it.
    A slice whose pooled points are single-class is skipped with a warning.
    """
    feature_set = model.meta.get("feature_set", "full")
    scenes = []   # (entry, scores, labels) of each scene with labelled points
    for entry, fm in manifest_scene_features(test, pipeline):
        fm = select_features(fm, feature_set)
        keep = fm.labels >= 0
        if not keep.any():
            log.warning("scene %s has no labelled points, skipping", entry.path)
            continue
        scenes.append((entry, decision_scores(model, fm.values[keep]),
                       fm.labels[keep]))
    if not scenes:
        raise EvaluationError("no labelled points in any scene")

    reports = []
    for tag, attr, value in _SLICES:
        members = [(s, lab) for entry, s, lab in scenes
                   if attr is None or getattr(entry, attr) == value]
        if not members:
            continue
        sl = np.concatenate([s for s, _lab in members])
        ll = np.concatenate([lab for _s, lab in members])
        try:
            curve = pr_curve(sl, ll)
        except EvaluationError as exc:
            log.warning("slice %s skipped: %s", tag, exc)
            continue
        reports.append(EvalReport(tag, auc(curve), curve,
                                  positives=int((ll == 1).sum()),
                                  negatives=int((ll == 0).sum())))
    if not reports:
        raise EvaluationError("every slice was single-class; nothing to report")
    return reports


@dataclass
class SweepResult:
    config: TrainConfig
    auc: float | None = None
    error: str | None = None


def sweep(train: DatasetManifest, grid, validation: DatasetManifest,
          pipeline) -> list[SweepResult]:
    """Train one model per grid entry and rank by validation AUC.

    Features are extracted once per manifest and reused across configs.
    Successes come first, sorted by AUC descending with ties kept in grid
    order; failed configs follow with their error message.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("empty parameter grid")
    train_full = pooled_features(train, pipeline)
    val_full = pooled_features(validation, pipeline)
    val_keep = val_full.labels >= 0
    if not val_keep.any():
        raise EvaluationError("validation manifest has no labelled points")

    results = []
    for config in grid:
        try:
            fm = assemble_training_matrix(train_full, pipeline, config)
            model = train_svm(fm, config)
            val = select_features(val_full, config.feature_set)
            scores = decision_scores(model, val.values[val_keep])
            curve = pr_curve(scores, val.labels[val_keep])
            results.append(SweepResult(config, auc=auc(curve)))
        except (TrainingError, EvaluationError, ValueError) as exc:
            log.warning("sweep config %s failed: %s", config, exc)
            results.append(SweepResult(config, error=str(exc)))
    ok = [r for r in results if r.error is None]
    ok.sort(key=lambda r: -r.auc)
    failed = [r for r in results if r.error is not None]
    return ok + failed


def write_report_json(reports, path):
    doc = [{"slice": r.slice_tag, "auc": r.auc, "positives": r.positives,
            "negatives": r.negatives, "curve_points": len(r.curve.recall)}
           for r in reports]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def write_curve_csv(curve: PrCurve, path):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("threshold,recall,precision\n")
        for t, r, p in zip(curve.thresholds, curve.recall, curve.precision):
            fh.write(f"{repr(float(t))},{repr(float(r))},{repr(float(p))}\n")
