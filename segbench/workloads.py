"""The three workloads: ``detect``, ``train-eval`` and ``sweep``.

Each is one process running a closed loop: an operation starts when the one
before it has finished and been checked.  A workload has a set-up, run
several times and timed as ``setup_s``, and rounds of operations; every
round runs the same operations on inputs no earlier round used.  Inputs
are synthetic scenes drawn from the run's seed.  ``check`` tests every
operation's outputs with the independent computations of ``checks``.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
from dataclasses import replace
from pathlib import Path

import numpy as np

from peduncleseg import (DatasetManifest, KernelSpec, ManifestEntry,
                         PipelineConfig, SceneSpec, TrainConfig,
                         assemble_training_matrix, build_index,
                         decision_scores, estimate_normals, evaluate,
                         generate_scene, load_model, predict_parallel,
                         read_cloud, read_manifest, save_model,
                         scene_features, scene_for_colour, select_features,
                         train_svm, write_cloud, write_manifest)
from peduncleseg.evaluation import write_curve_csv, write_report_json

from . import checks

DEFAULT_SCENE = SceneSpec()


def scene_spec(seed, size, colour):
    """A default scene with ``size`` times the default point counts."""
    base = replace(DEFAULT_SCENE,
                   points_body=round(DEFAULT_SCENE.points_body * size),
                   points_peduncle=round(DEFAULT_SCENE.points_peduncle * size),
                   seed=seed)
    return scene_for_colour(base, colour, 0)


def file_digest(*paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def warm_up(work: Path, workers: int):
    """Run every code path once on a tiny scene set, untimed and untraced."""
    cfg = PipelineConfig()
    entries = []
    for k, colour in enumerate(("red", "green")):
        name = f"warm-{k}.cloud"
        write_cloud(generate_scene(scene_spec(k, 0.1, colour)), work / name)
        entries.append(ManifestEntry(name, name, 1 + k, colour))
    manifest = DatasetManifest(entries, base_dir=work)
    model = train_svm(assemble_training_matrix(manifest, cfg), cfg.train)
    save_model(model, work / "warm.json")
    model = load_model(work / "warm.json")
    _cloud, fm = scene_features(read_cloud(work / "warm-0.cloud"), cfg)
    predict_parallel(model, fm, workers)
    evaluate(model, manifest, cfg)


def feature_problems(processed, features, cfg, rng, n_pfh=2, n_rows=24):
    """Normals, PFH and HSV of sampled points of one featurised scene.

    The program's own normals (recomputed here from the processed cloud
    with its public functions) feed the brute-force PFH, so the PFH check
    tests the histogram stage alone.
    """
    index = build_index(processed)
    normals = estimate_normals(processed, index, cfg.normals)
    n = len(processed)
    rows = rng.choice(n, size=min(n_rows, n), replace=False)
    pfh_rows = rng.choice(n, size=min(n_pfh, n), replace=False)
    return (checks.hsv_problems(processed.rgb, features.values[:, :3], rows)
            + checks.normal_problems(processed.xyz, cfg.normals.radius_rn,
                                     cfg.normals.viewpoint, normals.normals,
                                     normals.valid, rows)
            + checks.pfh_problems(processed.xyz, normals.normals,
                                  normals.valid, cfg.radius_ri,
                                  features.values[:, 3:], features.valid,
                                  pfh_rows))


def worker_sample(n, rng, workers, size=128):
    """Rows around the boundaries where ``workers`` chunks meet, plus random rows."""
    cuts = np.cumsum([len(c) for c in np.array_split(np.arange(n), workers)])
    near = np.concatenate([np.arange(c - 4, c + 4) for c in cuts[:-1]]) \
        if workers > 1 else np.array([], dtype=np.int64)
    rand = rng.choice(n, size=min(size, n), replace=False)
    idx = np.unique(np.concatenate([near, rand]).astype(np.int64))
    return idx[(idx >= 0) & (idx < n)]


class Workload:
    """Set-up, rounds of operations and their checks; see module docstring."""

    def __init__(self, flow, seed: int, work: Path, workers: int):
        self.flow = flow
        self.cfg = flow.cfg
        self.seed = seed
        self.work = work
        self.workers = workers
        self.rng = np.random.default_rng([seed, 7])
        self.aucs: list[float] = []

    def scene(self, name, seed, size, colour, trip=1):
        """Generate and write one scene; its manifest entry."""
        cloud = self.flow.generate(scene_spec(seed, size, colour))
        self.flow.write_cloud(cloud, self.work / name)
        return ManifestEntry(name, name.rsplit(".", 1)[0], trip, colour)

    def manifest(self, name, entries):
        write_manifest(DatasetManifest(entries, base_dir=self.work),
                       self.work / name)
        return self.work / name

    @classmethod
    def config(cls):
        return PipelineConfig()

    def check_setup(self):
        return []

    def finish(self):
        """Checks that need every operation of the run; their problems."""
        return []

    def quality(self) -> float:
        return statistics.median(self.aucs)


class Detect(Workload):
    """A robot labels unseen scenes one at a time, as ``peduncleseg predict``.

    The model is trained and loaded once in set-up.  An operation takes one
    scene from its cloud file to the labelled cloud and the scores CSV.
    Scenes are 0.8, 1.0 and 1.2 times the default point count (one of each
    per round, so neighbourhood sizes vary), alternately red and green.
    """

    SIZES = (0.8, 1.0, 1.2)
    TRAIN_SIZE = 0.3

    def setup(self):
        entries = [self.scene(f"train-{k}.cloud", self.seed * 1000 + k,
                              self.TRAIN_SIZE, colour, trip=1 + k)
                   for k, colour in enumerate(("red", "green"))]
        manifest = read_manifest(self.manifest("train.csv", entries))
        features = self.flow.assemble(manifest, self.cfg.train)
        model = self.flow.train(features, self.cfg.train)
        self.model_path = self.work / "model.json"
        self.flow.save_model(model, self.model_path)
        self.model = self.flow.load_model(self.model_path)
        self.model_doc = checks.read_model_doc(self.model_path)
        self.scores, self.truth = [], []

    def round(self, r):
        ops = []
        for k, size in enumerate(self.SIZES):
            idx = r * len(self.SIZES) + k
            colour = ("red", "green")[idx % 2]
            self.scene(f"scene-{idx}.cloud", self.seed * 1000 + 100 + idx,
                       size, colour)
            ops.append((f"scene-{idx}", self.detect,
                        (self.work / f"scene-{idx}.cloud",
                         self.work / f"scene-{idx}-labelled.cloud")))
        return ops

    def detect(self, path, out):
        flow = self.flow
        cloud = flow.read_cloud(path)
        processed, features = flow.scene_features(cloud, path)
        subset = self.model.meta.get("feature_set", "full")
        rows = select_features(features, subset).values
        labels, scores = flow.predict(self.model, rows, 1)
        flow.write_cloud(processed.with_labels(labels), out)
        scores_path = out.with_name(out.stem + "_scores.csv")
        with open(scores_path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("index,score,label\n")
            for i, (s, lab) in enumerate(zip(scores, labels)):
                fh.write(f"{i},{repr(float(s))},{int(lab)}\n")
        return {"processed": processed, "features": features, "rows": rows,
                "labels": labels, "scores": scores, "out": out,
                "scores_path": scores_path}

    def check(self, res):
        rows, labels, scores = res["rows"], res["labels"], res["scores"]
        problems = checks.label_problems(scores, labels)
        back = read_cloud(res["out"])
        if not (np.array_equal(back.labels, labels)
                and np.array_equal(back.xyz, res["processed"].xyz)):
            problems.append("labelled cloud does not read back as written")
        with open(res["scores_path"], encoding="ascii") as fh:
            written = [line.split(",") for line in fh.read().splitlines()[1:]]
        if [float(w[1]) for w in written] != scores.tolist() \
                or [int(w[2]) for w in written] != labels.tolist():
            problems.append("scores CSV does not read back as written")
        sample = worker_sample(len(rows), self.rng, self.workers)
        _l, many, _t = predict_parallel(self.model, rows[sample], self.workers)
        problems += checks.worker_problems(scores[sample], many, self.workers)
        problems += checks.score_problems(
            self.model_doc, rows, scores,
            self.rng.choice(len(rows), size=8, replace=False))
        problems += feature_problems(res["processed"], res["features"],
                                     self.cfg, self.rng)
        self.scores.append(scores)
        self.truth.append(res["processed"].labels)
        return problems

    def digest(self, res):
        return file_digest(res["out"], res["scores_path"])

    def finish(self):
        """Precision-recall AUC of all the run's detections against the truth."""
        scores, truth = np.concatenate(self.scores), np.concatenate(self.truth)
        curve, area = self.flow.curve(scores, truth)
        self.aucs.append(area)
        return checks.curve_problems(curve.recall, curve.precision, area,
                                     scores, truth, tag="detections")


class TrainEval(Workload):
    """The detection-quality research flow on freshly written scenes.

    Each round has two red and two green training scenes and as many test
    scenes, at 0.4 times the default point count; set-up writes the first
    rounds' scenes and manifests, as ``peduncleseg synth`` would.  A round
    trains and evaluates a red model, a green full-descriptor model and a
    green HSV ablation from manifests, as ``peduncleseg train`` and
    ``evaluate`` do.  An operation is one model: manifest to saved model,
    then model file to report and curves.  The two green models featurise
    the same files, and the HSV model's SMO stops at ``max_passes``.
    """

    SIZE = 0.4
    MODELS = (("red", "full"), ("green", "full"), ("green", "hsv"))
    SETUP_ROUNDS = 4   # rounds whose scenes set-up writes; later ones write their own

    def setup(self):
        self.prepared = [self.write_round(r) for r in range(self.SETUP_ROUNDS)]

    def write_round(self, r):
        out = {}
        for c, colour in enumerate(("red", "green")):
            for part in ("train", "test"):
                entries = []
                for k in range(2):
                    idx = ((r * 2 + c) * 2 + (part == "test")) * 2 + k
                    entries.append(self.scene(
                        f"r{r}-{colour}-{part}-{k}.cloud",
                        self.seed * 1000 + idx, self.SIZE, colour,
                        trip=1 + k))
                out[colour, part] = self.manifest(
                    f"r{r}-{colour}-{part}.csv", entries)
        return out

    def round(self, r):
        manifests = self.prepared[r] if r < self.SETUP_ROUNDS \
            else self.write_round(r)
        self.test_features = {}
        return [(f"r{r}-{colour}-{subset}", self.model_flow,
                 (manifests[colour, "train"], manifests[colour, "test"],
                  subset))
                for colour, subset in self.MODELS]

    def model_flow(self, train_path, test_path, subset):
        flow = self.flow
        train_config = replace(self.cfg.train, feature_set=subset)
        stem = Path(train_path).stem.replace("-train", "") + f"-{subset}"
        model_path = self.work / f"{stem}.json"
        features = flow.assemble(read_manifest(train_path), train_config)
        model = flow.train(features, train_config)
        flow.save_model(model, model_path)

        model = flow.load_model(model_path)
        reports = flow.evaluate(model, read_manifest(test_path))
        report_dir = self.work / stem
        os.makedirs(report_dir, exist_ok=True)
        write_report_json(reports, report_dir / "report.json")
        for report in reports:
            write_curve_csv(report.curve,
                            report_dir / f"pr_{report.slice_tag}.csv")
        return {"model": model, "model_path": model_path,
                "features": features, "test_path": test_path,
                "reports": reports, "report_dir": report_dir,
                "green_full": stem.endswith("green-full")}

    def test_scene(self, path):
        """The program's features of one test scene, computed once a round.

        The first time a scene is seen its features are checked too.
        """
        if path in self.test_features:
            return self.test_features[path], []
        processed, fm = scene_features(read_cloud(path), self.cfg)
        self.test_features[path] = fm
        return fm, feature_problems(processed, fm, self.cfg, self.rng)

    def check(self, res):
        model, features = res["model"], res["features"]
        doc = checks.read_model_doc(res["model_path"])
        problems = checks.dual_problems(doc, (features.values, features.labels))
        sample = self.rng.choice(len(features), size=8, replace=False)
        problems += checks.score_problems(
            doc, features.values[sample],
            decision_scores(model, features.values[sample]), range(8))

        # rebuild every slice from the scenes' features and the model
        manifest = read_manifest(res["test_path"])
        subset = model.meta.get("feature_set", "full")
        parts = []
        for entry in manifest.entries:
            path = manifest.resolve(entry)
            fm, bad = self.test_scene(path)
            problems += bad
            rows = select_features(fm, subset).values[fm.labels >= 0]
            parts.append((decision_scores(model, rows),
                          fm.labels[fm.labels >= 0], entry))
        scores = np.concatenate([p[0] for p in parts])
        labels = np.concatenate([p[1] for p in parts])
        slices = {"overall": np.ones(len(scores), dtype=bool)}
        for key, value in (("trip", 1), ("trip", 2), ("colour", "red"),
                           ("colour", "green")):
            mask = np.concatenate([np.full(len(p[0]),
                                           getattr(p[2], key) == value)
                                   for p in parts])
            if mask.any():
                slices[f"trip-{value}" if key == "trip" else value] = mask
        written = json.loads((res["report_dir"] / "report.json").read_text())
        if [r.slice_tag for r in res["reports"]] != list(slices) \
                or [w["slice"] for w in written] != list(slices):
            problems.append(f"report slices {[r.slice_tag for r in res['reports']]}"
                            f" against {list(slices)}")
            return problems
        for report, entry in zip(res["reports"], written):
            mask = slices[report.slice_tag]
            problems += checks.curve_problems(
                report.curve.recall, report.curve.precision, report.auc,
                scores[mask], labels[mask], tag=report.slice_tag)
            with open(res["report_dir"] / f"pr_{report.slice_tag}.csv") as fh:
                curve = [line.split(",") for line in fh.read().splitlines()[1:]]
            if entry["auc"] != report.auc \
                    or [float(c[1]) for c in curve] != report.curve.recall.tolist() \
                    or [float(c[2]) for c in curve] != report.curve.precision.tolist():
                problems.append(f"{report.slice_tag}: written report or curve "
                                f"differs from the evaluation")
        if res["green_full"]:
            self.aucs.append(res["reports"][0].auc)
        return problems

    def digest(self, res):
        files = sorted(res["report_dir"].iterdir())
        return file_digest(res["model_path"], *files)


class Sweep(Workload):
    """A parameter grid trained and scored on features pooled in set-up.

    The body of ``evaluation.sweep``: per config, assemble the training
    matrix (row cap raised to 4500, so SMO and its n x n matrices
    dominate), train, score the validation rows with ``predict_parallel``
    on every usable CPU, and take the precision-recall AUC.  An operation
    is one pass over the grid, ending with the best model saved; passes
    differ in training seed, so each subsamples other rows.
    """

    SIZE = 0.25
    TRAIN = ("green", "red", "green", "red")
    VALIDATION = ("red", "green")
    ROW_CAP = 4500
    # about a hundred to two thousand support vectors; the HSV ablation
    # cannot tell green peduncles from green bodies and stops at max_passes
    GRID = (
        TrainConfig(kernel=KernelSpec("rbf", 0.1), c=10.0),
        TrainConfig(kernel=KernelSpec("linear", None), c=0.1),
        TrainConfig(kernel=KernelSpec("rbf", 0.1), c=10.0, feature_set="pfh"),
        TrainConfig(kernel=KernelSpec("rbf", 0.01), c=100.0, max_passes=4,
                    feature_set="hsv"),
    )

    @classmethod
    def config(cls):
        return PipelineConfig(max_train_rows=cls.ROW_CAP)

    def setup(self):
        pools = {}
        for part, colours in (("train", self.TRAIN),
                              ("validation", self.VALIDATION)):
            entries = [self.scene(f"{part}-{k}.cloud",
                                  self.seed * 1000 + 10 * (part == "train") + k,
                                  self.SIZE, colour, trip=1 + k % 2)
                       for k, colour in enumerate(colours)]
            manifest = read_manifest(self.manifest(f"{part}.csv", entries))
            pools[part] = self.flow.pooled_features(manifest)
        self.train_full, self.val_full = pools["train"], pools["validation"]
        self.val_keep = self.val_full.labels >= 0

    def check_setup(self):
        processed, fm = scene_features(read_cloud(self.work / "train-0.cloud"),
                                       self.cfg)
        return feature_problems(processed, fm, self.cfg, self.rng)

    def round(self, r):
        return [(f"pass-{r}", self.sweep_pass, (r,))]

    def sweep_pass(self, r):
        flow = self.flow
        results = []
        for config in self.GRID:
            config = replace(config, seed=self.seed * 1000 + r)
            features = flow.assemble(self.train_full, config)
            model = flow.train(features, config)
            val = select_features(self.val_full, config.feature_set)
            rows = val.values[self.val_keep]
            labels, scores = flow.predict(model, rows, self.workers)
            curve, area = flow.curve(scores, val.labels[self.val_keep])
            results.append({"config": config, "model": model,
                            "features": features, "rows": rows,
                            "labels": labels, "scores": scores,
                            "truth": val.labels[self.val_keep],
                            "curve": curve, "auc": area})
        best = max(results, key=lambda res: res["auc"])
        model_path = self.work / f"best-{r}.json"
        flow.save_model(best["model"], model_path)
        return {"results": results, "best": best, "model_path": model_path}

    def check(self, res):
        problems = []
        for item in res["results"]:
            model, rows, scores = item["model"], item["rows"], item["scores"]
            doc = checks.model_doc(model)
            problems += checks.dual_problems(
                doc, (item["features"].values, item["features"].labels))
            problems += checks.label_problems(scores, item["labels"])
            sample = worker_sample(len(rows), self.rng, self.workers)
            _l, one, _t = predict_parallel(model, rows[sample], 1)
            problems += checks.worker_problems(one, scores[sample],
                                               self.workers)
            problems += checks.score_problems(
                doc, rows, scores,
                self.rng.choice(len(rows), size=3, replace=False))
            problems += checks.curve_problems(
                item["curve"].recall, item["curve"].precision, item["auc"],
                scores, item["truth"], tag=str(item["config"].kernel))
        best = res["best"]
        doc = checks.read_model_doc(res["model_path"])
        if not (np.array_equal(doc["sv"], best["model"].support_vectors)
                and np.array_equal(doc["coef"], best["model"].dual_coefs)
                and doc["bias"] == best["model"].bias):
            problems.append("saved best model differs from the trained one")
        problems += checks.score_problems(
            doc, best["rows"], best["scores"],
            self.rng.choice(len(best["rows"]), size=3, replace=False))
        self.aucs.append(best["auc"])
        return problems

    def digest(self, res):
        text = json.dumps([[str(i["config"]), repr(i["auc"])]
                           for i in res["results"]])
        return hashlib.sha256(text.encode()).hexdigest() + ":" + \
            file_digest(res["model_path"])


WORKLOADS = {"detect": Detect, "train-eval": TrainEval, "sweep": Sweep}
