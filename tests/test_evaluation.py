import logging
import os
from dataclasses import replace

import numpy as np
import pytest

from peduncleseg import (DatasetManifest, EvaluationError, ManifestEntry,
                         PipelineConfig, PrCurve, SplitSpec, TrainConfig, auc,
                         evaluate, pr_curve, split_dataset, sweep)
from peduncleseg import evaluation
from peduncleseg.cloud_io import _WRITE_ROWS
from peduncleseg.evaluation import write_curve_csv, write_report_json

from clouds import failing_format_rows


def manifest_of(n, colours=("red",), trips=(1, 2)):
    entries = [ManifestEntry(f"s{i:03d}.cloud", f"s{i:03d}",
                             trips[i % len(trips)], colours[i % len(colours)])
               for i in range(n)]
    return DatasetManifest(entries)


class TestSplit:
    def test_72_at_half_gives_36_36(self):
        train, test = split_dataset(manifest_of(72), SplitSpec(0.5, seed=1))
        assert (len(train), len(test)) == (36, 36)

    def test_72_at_079_gives_57_15(self):
        train, test = split_dataset(manifest_of(72), SplitSpec(0.79, seed=1))
        assert (len(train), len(test)) == (57, 15)

    def test_partition_laws(self):
        m = manifest_of(31)
        train, test = split_dataset(m, SplitSpec(0.4, seed=9))
        got = {e.path for e in train.entries} | {e.path for e in test.entries}
        assert got == {e.path for e in m.entries}
        assert not ({e.path for e in train.entries}
                    & {e.path for e in test.entries})

    def test_deterministic(self):
        m = manifest_of(20)
        a = split_dataset(m, SplitSpec(0.5, seed=3))
        b = split_dataset(m, SplitSpec(0.5, seed=3))
        assert a[0].entries == b[0].entries
        assert a[1].entries == b[1].entries
        c = split_dataset(m, SplitSpec(0.5, seed=4))
        assert c[0].entries != a[0].entries

    def test_stratified_by_trip_balances_strata(self):
        m = manifest_of(40, trips=(1, 2))   # 20 per trip
        train, _test = split_dataset(m, SplitSpec(0.5, seed=0,
                                                  stratify_by="trip"))
        trips = [e.trip for e in train.entries]
        assert trips.count(1) == 10 and trips.count(2) == 10

    def test_stratified_by_colour(self):
        m = manifest_of(30, colours=("red", "green", "mixed"))
        train, _ = split_dataset(m, SplitSpec(0.5, seed=0,
                                              stratify_by="colour"))
        cols = [e.colour for e in train.entries]
        assert cols.count("red") == cols.count("green") == cols.count("mixed") == 5

    def test_base_dir_propagates(self, tmp_path):
        m = manifest_of(4)
        m.base_dir = tmp_path
        train, test = split_dataset(m, SplitSpec(0.5, seed=0))
        assert train.base_dir == tmp_path and test.base_dir == tmp_path

    def test_errors(self):
        with pytest.raises(ValueError):
            split_dataset(manifest_of(1), SplitSpec(0.5))
        with pytest.raises(ValueError):
            split_dataset(manifest_of(2), SplitSpec(0.1))  # empty train side
        with pytest.raises(ValueError):
            SplitSpec(0.0)
        with pytest.raises(ValueError):
            SplitSpec(0.5, stratify_by="scene")


class TestPrCurve:
    def test_perfect_ranking_example(self):
        curve = pr_curve([0.9, 0.8, 0.3], [1, 1, 0])
        assert (0.5, 1.0) in curve.points
        assert (1.0, 1.0) in curve.points
        assert auc(curve) == 1.0

    def test_hand_enumerated_example(self):
        curve = pr_curve([0.9, 0.8, 0.3], [0, 1, 1])
        assert curve.points[-1] == (1.0, pytest.approx(2 / 3))
        assert (0.5, 0.5) in curve.points
        assert auc(curve) == pytest.approx(5 / 12, abs=1e-12)

    def test_anchor_point(self):
        curve = pr_curve([0.9, 0.8, 0.3], [0, 1, 1])
        assert curve.recall[0] == 0.0
        assert curve.precision[0] == curve.precision[1]
        assert curve.thresholds[0] == np.inf

    def test_ties_grouped(self):
        # three equal scores enter as one threshold group
        curve = pr_curve([0.5, 0.5, 0.5, 0.1], [1, 0, 1, 0])
        assert len(curve.recall) == 3   # anchor + 2 groups
        assert curve.recall[1] == pytest.approx(1.0)
        assert curve.precision[1] == pytest.approx(2 / 3)

    def test_all_scores_equal_rectangle(self):
        curve = pr_curve([2.0] * 8, [1, 1, 1, 0, 0, 0, 0, 0])
        assert auc(curve) == pytest.approx(3 / 8)

    def test_recall_monotone_and_ranges(self, rng):
        for _ in range(20):
            n = int(rng.integers(5, 60))
            scores = rng.normal(size=n)
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            curve = pr_curve(scores, labels)
            assert np.all(np.diff(curve.recall) >= 0)
            assert np.all((curve.precision >= 0) & (curve.precision <= 1))
            assert np.all((curve.recall >= 0) & (curve.recall <= 1))

    def test_errors(self):
        with pytest.raises(EvaluationError):
            pr_curve([1.0, 2.0], [1, 1])
        with pytest.raises(EvaluationError):
            pr_curve([1.0, 2.0], [0, 0])
        with pytest.raises(ValueError):
            pr_curve([1.0, 2.0], [1])
        with pytest.raises(EvaluationError):
            pr_curve([np.nan, 2.0], [1, 0])


class TestAuc:
    def test_labels_as_scores_exactly_one(self, rng):
        for _ in range(10):
            labels = rng.integers(0, 2, size=int(rng.integers(4, 40)))
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert auc(pr_curve(labels.astype(float), labels)) == 1.0

    def test_perfect_ranking_exactly_one(self, rng):
        # positives strictly above negatives; exact 1.0 bit-for-bit
        scores = np.concatenate([rng.uniform(2, 3, 8), rng.uniform(0, 1, 8)])
        labels = np.array([1] * 8 + [0] * 8)
        assert auc(pr_curve(scores, labels)) == 1.0

    def test_monotone_transform_invariance_100_cases(self, rng):
        transforms = [lambda s: 3.0 * s + 11.0,
                      lambda s: np.arctan(s),
                      lambda s: s ** 3]
        for case in range(100):
            n = int(rng.integers(6, 50))
            scores = np.round(rng.normal(size=n), 3)  # separated values
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            base = auc(pr_curve(scores, labels))
            t = transforms[case % len(transforms)]
            assert auc(pr_curve(t(scores), labels)) == pytest.approx(
                base, abs=1e-12)

    def test_joint_permutation_invariance_100_cases(self, rng):
        for _ in range(100):
            n = int(rng.integers(6, 50))
            scores = rng.normal(size=n)
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            base = auc(pr_curve(scores, labels))
            perm = rng.permutation(n)
            assert auc(pr_curve(scores[perm], labels[perm])) == base


def tiny_config():
    from peduncleseg import (KernelSpec, NormalParams, OutlierParams,
                             VoxelParams)

    return PipelineConfig(
        outlier=OutlierParams(k_neighbours=8),
        voxel=VoxelParams(leaf_size=0.0015),
        normals=NormalParams(radius_rn=0.012, viewpoint=[0, 0, 0.4]),
        radius_ri=0.012,
        train=TrainConfig(c=10.0, max_passes=20),
        max_train_rows=1200,
    )


def synth_dataset(tmp_path, n_scenes=4, colour="red", seed0=0, relabel=None):
    from peduncleseg import (DatasetManifest, ManifestEntry, SceneSpec,
                             generate_scene, scene_for_colour, write_cloud)

    tmp_path.mkdir(parents=True, exist_ok=True)
    base = SceneSpec(points_body=350, points_peduncle=90, seed=seed0)
    entries = []
    for i in range(n_scenes):
        spec = scene_for_colour(base, colour, i)
        cloud = generate_scene(spec)
        if relabel is not None:
            cloud = relabel(i, cloud)
        name = f"s{i}.cloud"
        write_cloud(cloud, tmp_path / name)
        entries.append(ManifestEntry(name, f"s{i}", 1 + i % 2, colour))
    return DatasetManifest(entries, base_dir=tmp_path)


def trained_model(manifest, cfg):
    from peduncleseg import assemble_training_matrix, train_svm

    return train_svm(assemble_training_matrix(manifest, cfg), cfg.train)


class TestEvaluate:
    def test_red_scene_reports(self, tmp_path):
        cfg = tiny_config()
        train_m = synth_dataset(tmp_path / "train", 2, seed0=0)
        test_m = synth_dataset(tmp_path / "test", 4, seed0=50)
        model = trained_model(train_m, cfg)
        reports = evaluate(model, test_m, cfg)
        tags = [r.slice_tag for r in reports]
        assert tags[0] == "overall"
        assert "trip-1" in tags and "trip-2" in tags and "red" in tags
        overall = reports[0]
        assert overall.auc >= 0.95
        assert overall.positives > 0 and overall.negatives > 0
        # auc recomputable from its own curve
        for r in reports:
            assert auc(r.curve) == pytest.approx(r.auc, abs=1e-12)

    def test_single_class_slice_skipped_with_warning(self, tmp_path, caplog):
        cfg = tiny_config()
        train_m = synth_dataset(tmp_path / "train", 2, seed0=0)
        model = trained_model(train_m, cfg)

        def relabel(i, cloud):
            if i % 2 == 1:   # trip-2 scenes: body-only labels
                return cloud.with_labels(np.zeros(len(cloud), dtype=np.int8))
            return cloud

        test_m = synth_dataset(tmp_path / "test", 4, seed0=80, relabel=relabel)
        with caplog.at_level(logging.WARNING):
            reports = evaluate(model, test_m, cfg)
        tags = [r.slice_tag for r in reports]
        assert "trip-1" in tags
        assert "trip-2" not in tags
        assert any("trip-2" in rec.message for rec in caplog.records)

    def test_model_narrower_than_its_feature_set_refused_before_featurising(
            self, tmp_path, monkeypatch):
        from peduncleseg import (KernelSpec, ModelFormatError, ScalingStats,
                                 SvmModel, pipeline)

        def model(width, subset):
            return SvmModel(KernelSpec(), 1.0,
                            ScalingStats(np.zeros(width), np.ones(width)),
                            np.zeros((1, width)), np.ones(1), 0.0,
                            {"feature_set": subset})

        test_m = synth_dataset(tmp_path / "test", 1, seed0=3)
        calls = []
        featurise = pipeline.scene_features

        def spy(*args, **kwargs):
            calls.append(args)
            return featurise(*args, **kwargs)

        monkeypatch.setattr(pipeline, "scene_features", spy)
        with pytest.raises(ModelFormatError,
                           match="model meta names feature set 'full' of 36 "
                                 "columns, but its vectors have 2"):
            evaluate(model(2, "full"), test_m, tiny_config())
        assert calls == []
        # the spy sees the scene of a model as wide as its set
        evaluate(model(3, "hsv"), test_m, tiny_config())
        assert len(calls) == 1

    def test_deterministic(self, tmp_path):
        cfg = tiny_config()
        train_m = synth_dataset(tmp_path / "train", 2, seed0=0)
        test_m = synth_dataset(tmp_path / "test", 2, seed0=9)
        model = trained_model(train_m, cfg)
        a = evaluate(model, test_m, cfg)
        b = evaluate(model, test_m, cfg)
        assert [(r.slice_tag, r.auc) for r in a] == \
            [(r.slice_tag, r.auc) for r in b]


def scene_dataset(tmp_path, scenes):
    """Manifest of synthetic scenes, one per (colour, trip, seed, labels).

    labels is None to keep the scene's own labels, or the one label every
    point gets (-1 leaves the scene unlabelled).
    """
    from peduncleseg import SceneSpec, generate_scene, scene_for_colour, \
        write_cloud

    tmp_path.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, (colour, trip, seed, labels) in enumerate(scenes):
        spec = scene_for_colour(
            SceneSpec(points_body=350, points_peduncle=90, seed=seed),
            colour, i)
        cloud = generate_scene(spec)
        if labels is not None:
            cloud = cloud.with_labels(np.full(len(cloud), labels,
                                              dtype=np.int8))
        write_cloud(cloud, tmp_path / f"s{i}.cloud")
        entries.append(ManifestEntry(f"s{i}.cloud", f"s{i}", trip, colour))
    return DatasetManifest(entries, base_dir=tmp_path)


def reference_reports(model, manifest, cfg):
    """evaluate() written out: per-point slice masks over the pooled scores.

    Returns (tag, auc, curve, positives, negatives) per reported slice.
    """
    from peduncleseg import (decision_scores, read_cloud, scene_features,
                             select_features)

    subset = model.meta.get("feature_set", "full")
    scores, labels, trips, colours = [], [], [], []
    for entry in manifest.entries:
        _cloud, fm = scene_features(read_cloud(manifest.resolve(entry)), cfg)
        fm = select_features(fm, subset)
        keep = fm.labels >= 0
        scores.append(decision_scores(model, fm.values[keep]))
        labels.append(fm.labels[keep])
        trips += [entry.trip] * int(keep.sum())
        colours += [entry.colour] * int(keep.sum())
    scores, labels = np.concatenate(scores), np.concatenate(labels)
    trips, colours = np.array(trips), np.array(colours)
    masks = [("overall", np.ones(len(scores), dtype=bool)),
             ("trip-1", trips == 1), ("trip-2", trips == 2),
             ("red", colours == "red"), ("green", colours == "green"),
             ("mixed", colours == "mixed")]
    out = []
    for tag, mask in masks:
        ll = labels[mask]
        if (ll == 1).any() and (ll == 0).any():
            curve = pr_curve(scores[mask], ll)
            out.append((tag, auc(curve), curve, int((ll == 1).sum()),
                        int((ll == 0).sum())))
    return out


def assert_reports_equal(reports, expected):
    assert [r.slice_tag for r in reports] == [e[0] for e in expected]
    for r, (_tag, area, curve, positives, negatives) in zip(reports,
                                                            expected):
        assert r.auc == area
        assert np.array_equal(r.curve.recall, curve.recall)
        assert np.array_equal(r.curve.precision, curve.precision)
        assert np.array_equal(r.curve.thresholds, curve.thresholds)
        assert (r.positives, r.negatives) == (positives, negatives)


MIXED_SCENES = [("red", 1, 10, None), ("green", 2, 11, None),
                ("mixed", 1, 12, None), ("green", 1, 13, None),
                ("red", 2, 14, None), ("mixed", 2, 15, None)]


@pytest.fixture(scope="module")
def mixed_model(tmp_path_factory):
    cfg = tiny_config()
    base = tmp_path_factory.mktemp("mixed")
    train_m = scene_dataset(base / "train", [("red", 1, 0, None),
                                             ("green", 2, 1, None),
                                             ("mixed", 1, 2, None)])
    return cfg, trained_model(train_m, cfg), base


class TestEvaluateSlices:
    def test_every_slice_equals_reference(self, mixed_model):
        cfg, model, base = mixed_model
        test_m = scene_dataset(base / "test", MIXED_SCENES)
        reports = evaluate(model, test_m, cfg)
        assert [r.slice_tag for r in reports] == [
            "overall", "trip-1", "trip-2", "red", "green", "mixed"]
        assert_reports_equal(reports, reference_reports(model, test_m, cfg))

    def test_unlabelled_scene_skipped_with_warning(self, mixed_model,
                                                   caplog):
        cfg, model, base = mixed_model
        scenes = MIXED_SCENES[:3] + [("red", 2, 16, -1)]
        test_m = scene_dataset(base / "unlabelled", scenes)
        with caplog.at_level(logging.WARNING):
            reports = evaluate(model, test_m, cfg)
        assert any("s3.cloud has no labelled points, skipping" in rec.message
                   for rec in caplog.records)
        expected = reference_reports(model, test_m, cfg)
        assert_reports_equal(reports, expected)
        # the unlabelled trip-2 red scene adds nothing to any slice
        without = DatasetManifest(test_m.entries[:3], base_dir=test_m.base_dir)
        assert_reports_equal(reports, reference_reports(model, without, cfg))
        assert [r.slice_tag for r in reports] == [
            "overall", "trip-1", "trip-2", "red", "green", "mixed"]

    def test_single_class_slice_skipped(self, mixed_model):
        cfg, model, base = mixed_model
        # every point of the green scenes is body: the green slice is
        # single-class and left out, the rest keep their reference values
        scenes = [("red", 1, 20, None), ("green", 2, 21, 0),
                  ("green", 1, 22, 0), ("mixed", 2, 23, None)]
        test_m = scene_dataset(base / "one-class", scenes)
        reports = evaluate(model, test_m, cfg)
        assert [r.slice_tag for r in reports] == [
            "overall", "trip-1", "trip-2", "red", "mixed"]
        assert_reports_equal(reports, reference_reports(model, test_m, cfg))

    def test_every_slice_single_class_raises(self, mixed_model):
        cfg, model, base = mixed_model
        test_m = scene_dataset(base / "all-body", [("red", 1, 40, 0),
                                                   ("green", 2, 41, 0)])
        with pytest.raises(EvaluationError,
                           match="every slice was single-class; nothing to "
                                 "report"):
            evaluate(model, test_m, cfg)

    def test_non_finite_scores_named(self, mixed_model):
        cfg, model, base = mixed_model
        coefs = model.dual_coefs.copy()
        coefs[0] = np.nan
        broken = replace(model, dual_coefs=coefs)
        test_m = scene_dataset(base / "nan", MIXED_SCENES[:2])
        with pytest.raises(EvaluationError,
                           match="every slice was skipped: scores contain "
                                 "non-finite values; nothing to report"):
            evaluate(broken, test_m, cfg)

    def test_no_labelled_points_raises(self, mixed_model):
        cfg, model, base = mixed_model
        test_m = scene_dataset(base / "none", [("red", 1, 30, -1),
                                               ("green", 2, 31, -1)])
        with pytest.raises(EvaluationError,
                           match="no labelled points in any scene"):
            evaluate(model, test_m, cfg)


class TestSweep:
    def test_ranking_and_head(self, tmp_path):
        from peduncleseg import KernelSpec

        cfg = tiny_config()
        train_m = synth_dataset(tmp_path / "train", 2, seed0=0)
        val_m = synth_dataset(tmp_path / "val", 2, seed0=30)
        grid = [TrainConfig(kernel=KernelSpec("rbf", g), c=c, max_passes=20)
                for g in (0.01, 0.1) for c in (1.0, 10.0)]
        results = sweep(train_m, grid, val_m, cfg)
        assert len(results) == 4
        assert all(r.error is None for r in results)
        aucs = [r.auc for r in results]
        assert aucs == sorted(aucs, reverse=True)
        assert results[0].auc == max(aucs)

    def test_single_config_grid(self, tmp_path):
        cfg = tiny_config()
        train_m = synth_dataset(tmp_path / "train", 2, seed0=0)
        val_m = synth_dataset(tmp_path / "val", 2, seed0=30)
        results = sweep(train_m, [cfg.train], val_m, cfg)
        assert len(results) == 1 and results[0].config == cfg.train

    def test_ablation_full_beats_hsv_on_green(self, tmp_path):
        cfg = tiny_config()
        train_m = synth_dataset(tmp_path / "train", 2, colour="green", seed0=0)
        val_m = synth_dataset(tmp_path / "val", 2, colour="green", seed0=40)
        grid = [TrainConfig(feature_set="hsv", max_passes=20),
                TrainConfig(feature_set="full", max_passes=20)]
        results = sweep(train_m, grid, val_m, cfg)
        by_set = {r.config.feature_set: r.auc for r in results}
        assert by_set["full"] > by_set["hsv"]

    def test_failures_recorded_not_raised(self, tmp_path, caplog):
        cfg = tiny_config()

        def relabel(_i, cloud):
            return cloud.with_labels(np.zeros(len(cloud), dtype=np.int8))

        train_m = synth_dataset(tmp_path / "train", 2, seed0=0,
                                relabel=relabel)
        val_m = synth_dataset(tmp_path / "val", 2, seed0=30)
        with caplog.at_level(logging.WARNING):
            results = sweep(train_m, [TrainConfig(), TrainConfig(c=1.0)],
                            val_m, cfg)
        assert len(results) == 2
        assert all(r.error is not None for r in results)
        assert all(r.auc is None for r in results)

    def test_empty_grid_rejected(self, tmp_path):
        cfg = tiny_config()
        m = synth_dataset(tmp_path, 2)
        with pytest.raises(ValueError):
            sweep(m, [], m, cfg)


def curve_text(curve):
    """The oracle for write_curve_csv: the file's text, formatted one
    operating point at a time."""
    lines = ["threshold,recall,precision"]
    for t, r, p in zip(curve.thresholds, curve.recall, curve.precision):
        lines.append(f"{repr(float(t))},{repr(float(r))},{repr(float(p))}")
    return "\n".join(lines) + "\n"


class TestReportFiles:
    # 5 points fit one chunk; one point more than a chunk takes a second one
    @pytest.mark.parametrize("n", [5, _WRITE_ROWS + 1])
    def test_curve_bytes_equal_the_per_point_formatter(self, rng, tmp_path,
                                                        n):
        thresholds = np.sort(rng.normal(size=n))[::-1]
        thresholds[:4] = [np.inf, 1e300, 5e-324, -0.0]
        recall = np.linspace(0.0, 1.0, n)
        recall[1] = 0.1 + 0.2
        precision = rng.random(n)
        curve = PrCurve(recall, precision, thresholds)
        path = tmp_path / "pr.csv"
        write_curve_csv(curve, path)
        assert path.read_bytes() == curve_text(curve).encode("ascii")

    def test_failed_curve_write_keeps_the_old_file(self, rng, tmp_path,
                                                   monkeypatch):
        path = tmp_path / "pr.csv"
        write_curve_csv(pr_curve(rng.normal(size=30), [0, 1] * 15), path)
        before = path.read_bytes()
        seen = []
        monkeypatch.setattr(evaluation, "format_rows", failing_format_rows(
            evaluation.format_rows, tmp_path, seen))
        scores = rng.normal(size=2 * _WRITE_ROWS)
        with pytest.raises(OSError, match="disk full"):
            write_curve_csv(pr_curve(scores, [0, 1] * _WRITE_ROWS), path)
        # the first chunk went to a temporary file named for this process
        assert seen == ["pr.csv", f"pr.csv.tmp.{os.getpid()}"]
        assert [p.name for p in tmp_path.iterdir()] == ["pr.csv"]
        assert path.read_bytes() == before

    def test_report_json_and_curve_csv(self, tmp_path, rng):
        curve = pr_curve(rng.normal(size=30), rng.integers(0, 2, 30))
        from peduncleseg.evaluation import EvalReport

        report = EvalReport("overall", auc(curve), curve, 10, 20)
        write_report_json([report], tmp_path / "report.json")
        write_curve_csv(curve, tmp_path / "pr_overall.csv")

        import json

        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc[0]["slice"] == "overall"
        assert doc[0]["auc"] == report.auc

        rows = (tmp_path / "pr_overall.csv").read_text().splitlines()
        assert rows[0] == "threshold,recall,precision"
        assert len(rows) == 1 + len(curve.recall)
        got = np.array([[float(v) for v in row.split(",")]
                        for row in rows[1:]])
        assert np.array_equal(got[:, 1], curve.recall)
        assert np.array_equal(got[:, 2], curve.precision)
