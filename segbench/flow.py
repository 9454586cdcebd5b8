"""The benchmark's calls into the program, with an optional layer trace.

Untraced, a ``Flow`` calls the program's composite functions
(``scene_features``, ``assemble_training_matrix`` on a manifest,
``evaluate``) exactly as the CLI does.  Traced, it makes the same calls one
public function at a time, in the order the composites make them, and
records a span around each: the spans name the layer (module) and the
function, so ``scene_features`` becomes ``preprocess.outlier`` ->
``preprocess.voxel`` -> ``geometry.index`` -> ``geometry.normals`` ->
``features.extract``.  Both paths return the same values; the benchmark's
tests hold them to that.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from peduncleseg import (DatasetManifest, FeatureMatrix,
                         assemble_training_matrix, auc, build_index,
                         decision_scores, estimate_normals, evaluate,
                         extract_features, generate_scene, load_model,
                         pooled_features, pr_curve, predict_parallel,
                         read_cloud, remove_statistical_outliers, save_model,
                         scene_features, select_features, train_svm,
                         voxel_downsample, write_cloud)
from peduncleseg.evaluation import EvalReport, EvaluationError

OP = "op"            # inside a timed operation
OUTSIDE = "outside"  # set-up, round preparation and end-of-run work

# every per-layer metric, in the order the result line prints them
LAYER_METRICS = (
    ("cloud_io.read_s", "s"), ("cloud_io.write_s", "s"),
    ("cloud_io.points_read", "count"),
    ("preprocess.outlier_s", "s"), ("preprocess.voxel_s", "s"),
    ("preprocess.points_in", "count"), ("preprocess.points_out", "count"),
    ("geometry.index_s", "s"), ("geometry.csr_s", "s"),
    ("geometry.normals_s", "s"), ("geometry.neighbours", "count"),
    ("geometry.normals_invalid", "count"),
    ("features.extract_s", "s"), ("features.rows", "count"),
    ("features.rows_invalid", "count"),
    ("features.pair_instances", "count"), ("features.unique_pairs", "count"),
    ("features.pair_reuse", "ratio"),
    ("learn.smo_s", "s"), ("learn.smo_iterations", "count"),
    ("learn.smo_unconverged", "count"), ("learn.train_rows", "count"),
    ("learn.support_vectors", "count"), ("learn.score_s", "s"),
    ("learn.kernel_evals", "count"), ("learn.model_bytes", "bytes"),
    ("learn.model_io_s", "s"),
    ("pipeline.featurise_passes", "count"),
    ("pipeline.distinct_scenes", "count"),
    ("pipeline.distinct_share", "ratio"), ("pipeline.assemble_s", "s"),
    ("evaluation.curve_s", "s"), ("evaluation.scored_points", "count"),
    ("synth.generate_s", "s"),
)

# ratios are taken from the sums of the two counts, phase by phase
_RATIOS = {
    "features.pair_reuse": ("features.pair_instances",
                            "features.unique_pairs"),
    "pipeline.distinct_share": ("pipeline.distinct_scenes",
                                "pipeline.featurise_passes"),
}


class Trace:
    """Spans and counts recorded at layer boundaries, kept in memory.

    Every span and count lands in one of two phases: inside a timed
    operation (``op``) or outside one (set-up, round preparation, the
    end-of-run metric).  A disabled trace records nothing and costs one
    attribute test per call.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.sums = {OP: defaultdict(float), OUTSIDE: defaultdict(float)}
        self.featurised = {OP: set(), OUTSIDE: set()}
        self.ops = 0
        self.setups = 0
        self._phase = OUTSIDE
        self._op_id = None
        self._stack: list[int] = []

    @contextmanager
    def op(self, op_id: str):
        """Mark everything inside as part of operation ``op_id``."""
        self._phase, self._op_id = OP, op_id
        self.ops += 1
        try:
            with self.span("op"):
                yield
        finally:
            self._phase, self._op_id = OUTSIDE, None

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        record = {"name": name, "op": self._op_id, "phase": self._phase,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None}
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            if name != "op":
                self.sums[self._phase][name + "_s"] += \
                    record["end"] - record["start"]

    def add(self, name: str, value):
        if self.enabled:
            self.sums[self._phase][name] += value

    def featurise(self, path):
        """Count one featurisation of the scene file ``path``."""
        if self.enabled:
            self.add("pipeline.featurise_passes", 1)
            seen = self.featurised[self._phase]
            if path not in seen:
                seen.add(path)
                self.add("pipeline.distinct_scenes", 1)

    def layer_metrics(self) -> dict:
        """Per-layer figures of the run.

        A metric whose layer worked inside the timed operations is that
        work's total divided by the number of operations.  A layer that did
        no work inside them (training in the set-up of ``detect``, say)
        reports its work outside them divided by the number of set-ups.
        """
        out = {}
        for name, unit in LAYER_METRICS:
            num_den = _RATIOS.get(name)
            key = num_den[1] if num_den else name
            if key in self.sums[OP]:
                sums, per = self.sums[OP], max(self.ops, 1)
            else:
                sums, per = self.sums[OUTSIDE], max(self.setups, 1)
            if num_den:
                den = sums.get(num_den[1], 0.0)
                value = sums.get(num_den[0], 0.0) / den if den else 0.0
            else:
                value = sums.get(name, 0.0) / per
            out[name] = {"value": value, "unit": unit}
        return out


def pair_counts(nbr_idx, nbr_off, valid):
    """Pair instances the PFH kernel visits and how many distinct pairs they are.

    An instance is one unordered pair (i, j) of valid points inside the
    influence region of one valid query; the same pair met in another
    query's region is another instance of the same unique pair.
    """
    n = len(valid)
    seen = np.zeros(n * n, dtype=bool)
    instances = 0
    triu = {}
    for q in np.flatnonzero(valid):
        members = nbr_idx[nbr_off[q]:nbr_off[q + 1]]
        members = members[valid[members]]
        k = members.size
        if k < 2:
            continue
        if k not in triu:
            triu[k] = np.triu_indices(k, 1)
        iu, ju = triu[k]
        seen[members[iu] * n + members[ju]] = True
        instances += iu.size
    return instances, int(np.count_nonzero(seen))


class Flow:
    """One pipeline configuration's calls into the program, traced or not."""

    def __init__(self, cfg, trace: Trace):
        self.cfg = cfg
        self.trace = trace

    @property
    def traced(self):
        return self.trace.enabled

    def generate(self, spec):
        with self.trace.span("synth.generate"):
            return generate_scene(spec)

    def write_cloud(self, cloud, path):
        with self.trace.span("cloud_io.write"):
            write_cloud(cloud, path)

    def read_cloud(self, path):
        with self.trace.span("cloud_io.read"):
            cloud = read_cloud(path)
        self.trace.add("cloud_io.points_read", len(cloud))
        return cloud

    def scene_features(self, cloud, path):
        """``pipeline.scene_features``: (processed cloud, feature matrix)."""
        self.trace.featurise(str(path))
        if not self.traced:
            return scene_features(cloud, self.cfg)
        span, add, cfg = self.trace.span, self.trace.add, self.cfg
        with span("preprocess.outlier"):
            filtered = remove_statistical_outliers(cloud, cfg.outlier)
        with span("preprocess.voxel"):
            sampled = voxel_downsample(filtered, cfg.voxel)
        with span("geometry.index"):
            index = build_index(sampled)
        with span("geometry.normals"):
            normals = estimate_normals(sampled, index, cfg.normals)
        with span("features.extract"):
            features = extract_features(sampled, normals, index, cfg.radius_ri)
        # one more CSR build, timed on its own: the program builds it inside
        # both estimate_normals and extract_features
        with span("geometry.csr"):
            nbr_idx, nbr_off = index.radius_neighbors_csr(cfg.radius_ri)
        with span("bench.pair_count"):
            instances, unique = pair_counts(nbr_idx, nbr_off, normals.valid)
        add("preprocess.points_in", len(cloud))
        add("preprocess.points_out", len(sampled))
        add("geometry.neighbours", len(nbr_idx))
        add("geometry.normals_invalid", int(np.count_nonzero(~normals.valid)))
        add("features.rows", len(features))
        add("features.rows_invalid", int(np.count_nonzero(~features.valid)))
        add("features.pair_instances", instances)
        add("features.unique_pairs", unique)
        return sampled, features

    def pooled_features(self, manifest: DatasetManifest) -> FeatureMatrix:
        """``pipeline.pooled_features``: every scene's rows, concatenated."""
        if not self.traced:
            return pooled_features(manifest, self.cfg)
        values, labels, valid = [], [], []
        for entry in manifest.entries:
            path = manifest.resolve(entry)
            _cloud, fm = self.scene_features(self.read_cloud(path), path)
            values.append(fm.values)
            labels.append(fm.labels)
            valid.append(fm.valid)
        return FeatureMatrix(np.concatenate(values), np.concatenate(labels),
                             np.concatenate(valid))

    def assemble(self, source, train_config) -> FeatureMatrix:
        """``pipeline.assemble_training_matrix`` from a manifest or a pool."""
        if isinstance(source, DatasetManifest):
            if not self.traced:
                return assemble_training_matrix(source, self.cfg, train_config)
            source = self.pooled_features(source)
        with self.trace.span("pipeline.assemble"):
            return assemble_training_matrix(source, self.cfg, train_config)

    def train(self, features, train_config):
        with self.trace.span("learn.smo"):
            model = train_svm(features, train_config)
        add = self.trace.add
        add("learn.smo_iterations", model.meta["iterations"])
        add("learn.smo_unconverged", 0 if model.meta["converged"] else 1)
        add("learn.train_rows", model.meta["train_rows"])
        add("learn.support_vectors", model.support_count)
        return model

    def save_model(self, model, path):
        with self.trace.span("learn.model_io"):
            save_model(model, path)
        self.trace.add("learn.model_bytes", os.path.getsize(path))

    def load_model(self, path):
        with self.trace.span("learn.model_io"):
            return load_model(path)

    def predict(self, model, rows, workers):
        """``learn.predict_parallel``: (labels, scores)."""
        with self.trace.span("learn.score"):
            labels, scores, _elapsed = predict_parallel(model, rows, workers)
        self.trace.add("learn.kernel_evals", len(scores) * model.support_count)
        return labels, scores

    def curve(self, scores, labels):
        """``evaluation.pr_curve`` and ``evaluation.auc``: (curve, auc)."""
        with self.trace.span("evaluation.curve"):
            curve = pr_curve(scores, labels)
            area = auc(curve)
        self.trace.add("evaluation.scored_points", len(scores))
        return curve, area

    def evaluate(self, model, manifest: DatasetManifest):
        """``evaluation.evaluate``: one EvalReport per slice."""
        if not self.traced:
            return evaluate(model, manifest, self.cfg)
        feature_set = model.meta.get("feature_set", "full")
        scores, labels, trips, colours = [], [], [], []
        for entry in manifest.entries:
            path = manifest.resolve(entry)
            _cloud, fm = self.scene_features(self.read_cloud(path), path)
            fm = select_features(fm, feature_set)
            keep = fm.labels >= 0
            if not keep.any():
                continue
            with self.trace.span("learn.score"):
                part = decision_scores(model, fm.values[keep])
            self.trace.add("learn.kernel_evals",
                           len(part) * model.support_count)
            scores.append(part)
            labels.append(fm.labels[keep])
            trips.append(np.full(len(part), entry.trip, dtype=np.int64))
            colours.append(np.array([entry.colour] * len(part)))
        if not scores:
            raise EvaluationError("no labelled points in any scene")
        scores, labels = np.concatenate(scores), np.concatenate(labels)
        trips, colours = np.concatenate(trips), np.concatenate(colours)
        slices = [("overall", np.ones(len(scores), dtype=bool))]
        slices += [(f"trip-{t}", trips == t) for t in (1, 2)
                   if np.any(trips == t)]
        slices += [(c, colours == c) for c in ("red", "green", "mixed")
                   if np.any(colours == c)]
        reports = []
        for tag, mask in slices:
            sl, ll = scores[mask], labels[mask]
            try:
                curve, area = self.curve(sl, ll)
            except EvaluationError:
                continue
            reports.append(EvalReport(tag, area, curve,
                                      positives=int((ll == 1).sum()),
                                      negatives=int((ll == 0).sum())))
        if not reports:
            raise EvaluationError("every slice was single-class; nothing to report")
        return reports
