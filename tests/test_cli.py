"""End-to-end CLI tests; each command runs in-process via cli.main()."""

import json
import re

import numpy as np
import pytest

from peduncleseg import (CloudFormatError, ConfigError, EvaluationError,
                         KernelSpec, NormalParams, OutlierParams,
                         PipelineConfig, TrainConfig, VoxelParams, cli,
                         evaluation, load_pipeline_config, pipeline,
                         read_cloud, read_manifest, select_features, sweep,
                         write_cloud)

from clouds import record_calls

CONFIG_INI = """\
[outlier]
k_neighbours = 8
[voxel]
leaf_size = 0.0015
[normals]
radius_rn = 0.012
viewpoint = 0 0 0.4
[features]
radius_ri = 0.012
[train]
c = 10
max_passes = 20
max_train_rows = 1200
"""

SCENE_INI = """\
[dataset]
scenes = 4
colour = red
[scene]
points_body = 350
points_peduncle = 90
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One synth dataset + trained model shared by the read-only tests."""
    base = tmp_path_factory.mktemp("cli")
    cfg = base / "pipeline.ini"
    cfg.write_text(CONFIG_INI)
    spec = base / "scenes.ini"
    spec.write_text(SCENE_INI)
    data = base / "data"
    assert cli.main(["--config", str(cfg), "synth", str(spec),
                     str(data)]) == 0
    model = base / "model.json"
    assert cli.main(["--config", str(cfg), "train",
                     str(data / "manifest.csv"), str(model)]) == 0
    return {"base": base, "cfg": str(cfg), "spec": str(spec),
            "data": data, "manifest": str(data / "manifest.csv"),
            "model": str(model)}


def unlabelled_manifest(workdir, tmp_path):
    """Manifest of two copies of a scene with every label removed."""
    cloud = read_cloud(workdir["data"] / "scene-000.cloud")
    unlabelled = cloud.with_labels(np.full(len(cloud), -1, dtype=np.int8))
    write_cloud(unlabelled, tmp_path / "a.cloud")
    write_cloud(unlabelled, tmp_path / "b.cloud")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("a.cloud,a,1,red\nb.cloud,b,2,red\n")
    return manifest


def model_file(workdir, tmp_path, edit):
    """Path of a copy of the trained model whose text ``edit`` rewrote."""
    path = tmp_path / "edited.json"
    path.write_text(edit((workdir["base"] / "model.json").read_text()))
    return path


def bogus_feature_set_model(workdir, tmp_path, feature_set="bogus"):
    """Copy of the trained 36-column model whose meta names another feature
    set: an unknown one by default."""
    doc = json.loads((workdir["base"] / "model.json").read_text())
    doc["meta"]["feature_set"] = feature_set
    path = tmp_path / f"{feature_set}.json"
    path.write_text(json.dumps(doc))
    return path


class TestHelpAndUsage:
    @pytest.mark.parametrize("argv", [
        ["--help"],
        ["synth", "--help"],
        ["train", "--help"],
        ["predict", "--help"],
        ["evaluate", "--help"],
        ["sweep", "--help"],
    ])
    def test_help_exits_zero(self, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [["--verbose", "train", "m.csv"],
                                      ["train", "m.csv", "--verbose"]])
    def test_verbose_flag_is_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "--verbose" in capsys.readouterr().err

    def test_unknown_config_key_exit_2(self, tmp_path, workdir):
        bad = tmp_path / "bad.ini"
        bad.write_text("[train]\nmomentum = 0.9\n")
        rc = cli.main(["--config", str(bad), "synth", workdir["spec"],
                       str(tmp_path / "out")])
        assert rc == 2

    def test_removed_data_root_key_exit_2(self, tmp_path, workdir):
        cfg = tmp_path / "old.ini"
        cfg.write_text("[paths]\ndata_root = data\n")
        with pytest.raises(ConfigError, match="data_root"):
            load_pipeline_config(cfg)
        rc = cli.main(["--config", str(cfg), "synth", workdir["spec"],
                       str(tmp_path / "out")])
        assert rc == 2


def assert_configs_equal(got, want):
    assert got.outlier == want.outlier
    assert got.voxel == want.voxel
    assert got.normals.radius_rn == want.normals.radius_rn
    assert np.array_equal(got.normals.viewpoint, want.normals.viewpoint)
    assert got.train == want.train
    assert (got.radius_ri, got.max_train_rows, got.model_path,
            got.report_dir) == (want.radius_ri, want.max_train_rows,
                                want.model_path, want.report_dir)


class TestPipelineConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("")
        assert_configs_equal(load_pipeline_config(path), PipelineConfig())

    def test_every_key_sets_its_field(self, tmp_path):
        path = tmp_path / "full.ini"
        path.write_text("""\
[outlier]
k_neighbours = 7
stddev_multiplier = 2.5
[voxel]
leaf_size = 0.004
[normals]
radius_rn = 0.03
viewpoint = 1, 2 3
[features]
radius_ri = 0.02
[train]
kernel = rbf
gamma = 0.5
c = 3
tolerance = 0.01
max_passes = 4
seed = 9
feature_set = hsv
max_train_rows = 300
[paths]
model = m.json
reports = out
""")
        want = PipelineConfig(
            outlier=OutlierParams(7, 2.5), voxel=VoxelParams(0.004),
            normals=NormalParams(0.03, np.array([1.0, 2.0, 3.0])),
            radius_ri=0.02,
            train=TrainConfig(KernelSpec("rbf", 0.5), c=3.0, tolerance=0.01,
                              max_passes=4, seed=9, feature_set="hsv"),
            max_train_rows=300, model_path="m.json", report_dir="out")
        assert_configs_equal(load_pipeline_config(path), want)
        # the file above sets every key of the schema
        from peduncleseg.config import _SCHEMA
        text = path.read_text()
        for section, keys in _SCHEMA.items():
            assert f"[{section}]" in text
            for key in keys:
                assert f"\n{key} = " in text

    @pytest.mark.parametrize("train, gamma", [
        ("kernel = linear\n", None),
        ("kernel = rbf\n", 0.01),
        ("c = 5\n", 0.01),
    ])
    def test_gamma_default_follows_kernel(self, tmp_path, train, gamma):
        path = tmp_path / "k.ini"
        path.write_text("[train]\n" + train)
        assert load_pipeline_config(path).train.kernel.gamma == gamma

    # each message is matched word for word; {path} is the file's path
    @pytest.mark.parametrize("text, message", [
        ("[train]\nkernel = linear\ngamma = 0.1\n",
         "linear kernel takes no gamma"),
        ("[voxel]\nleaf_size = 0\n", "leaf_size must be > 0"),
        ("[train]\nmax_train_rows = 1\n", "max_train_rows must be >= 2"),
        ("k_neighbours = 8\n",
         "cannot parse config {path}: File contains no section headers."),
        ("[weather]\nsun = 1\n", "unknown config section [weather]"),
        ("[train]\nmomentum = 0.9\n",
         "unknown key 'momentum' in section [train]"),
        ("[voxel]\nleaf_size = big\n",
         "[voxel] leaf_size = 'big': could not convert string to float: "
         "'big'"),
        ("[normals]\nviewpoint = 0 0\n",
         "[normals] viewpoint = '0 0': expected three numbers"),
        ("[DEFAULT]\nleaf_size = 0.5\n[outlier]\nk_neighbours = 8\n",
         "unknown config section [DEFAULT]"),
        ("[train]\nc = nan\n", "c must be > 0 and finite"),
        ("[train]\nc = inf\n", "c must be > 0 and finite"),
        ("[train]\ngamma = nan\n", "rbf kernel needs gamma > 0 and finite"),
        ("[train]\ntolerance = inf\n", "tolerance must be > 0 and finite"),
        ("[voxel]\nleaf_size = nan\n", "leaf_size must be > 0 and finite"),
        ("[outlier]\nstddev_multiplier = inf\n",
         "stddev_multiplier must be > 0 and finite"),
        ("[normals]\nradius_rn = nan\n", "radius_rn must be > 0 and finite"),
        ("[normals]\nviewpoint = 0 nan 0\n", "viewpoint must be finite"),
        ("[features]\nradius_ri = inf\n", "radius_ri must be > 0 and finite"),
    ])
    def test_invalid_value_is_config_error(self, tmp_path, text, message):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        with pytest.raises(ConfigError,
                           match=re.escape(message.format(path=path))):
            load_pipeline_config(path)


class TestSynth:
    def test_writes_scenes_and_manifest(self, workdir):
        data = workdir["data"]
        files = sorted(p.name for p in data.glob("*.cloud"))
        assert files == [f"scene-{i:03d}.cloud" for i in range(4)]
        manifest = read_manifest(data / "manifest.csv")
        assert [e.trip for e in manifest.entries] == [1, 2, 1, 2]
        assert {e.colour for e in manifest.entries} == {"red"}
        cloud = read_cloud(data / "scene-000.cloud")
        assert len(cloud) == 440 and cloud.has_labels

    def test_same_seed_reproduces_bytes(self, workdir, tmp_path):
        rerun = tmp_path / "rerun"
        assert cli.main(["--config", workdir["cfg"], "synth",
                         workdir["spec"], str(rerun)]) == 0
        for name in ("scene-000.cloud", "scene-003.cloud", "manifest.csv"):
            assert (rerun / name).read_bytes() \
                == (workdir["data"] / name).read_bytes()

    def test_seed_flag_changes_scenes(self, workdir, tmp_path):
        out = tmp_path / "seeded"
        assert cli.main(["synth", workdir["spec"], str(out),
                         "--seed", "123"]) == 0
        assert (out / "scene-000.cloud").read_bytes() \
            != (workdir["data"] / "scene-000.cloud").read_bytes()

    def test_malformed_spec_exit_2(self, tmp_path, capsys):
        spec = tmp_path / "spec.ini"
        spec.write_text("[dataset]\nscene_count = 4\n")
        rc = cli.main(["synth", str(spec), str(tmp_path / "out")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_out_dir_through_regular_file_exit_3(self, tmp_path, workdir):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n")
        rc = cli.main(["synth", workdir["spec"], str(blocker / "out")])
        assert rc == 3


class TestTrain:
    def test_model_file_written(self, workdir):
        doc = json.loads((workdir["base"] / "model.json").read_text())
        assert doc["schema_version"] == 1
        assert doc["kernel"] == "rbf" and doc["c"] == 10.0
        assert len(doc["support_vectors"]) >= 1
        assert len(doc["dual_coefs"]) == len(doc["support_vectors"])
        assert doc["meta"]["feature_set"] == "full"

    def test_missing_cloud_exit_3(self, tmp_path, workdir, capsys):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("ghost.cloud,ghost,1,red\n")
        rc = cli.main(["--config", workdir["cfg"], "train", str(manifest),
                       str(tmp_path / "model.json")])
        assert rc == 3
        assert "ghost.cloud" in capsys.readouterr().err

    def test_empty_manifest_exit_3(self, tmp_path, workdir):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("# nothing here\n")
        rc = cli.main(["--config", workdir["cfg"], "train", str(manifest),
                       str(tmp_path / "model.json")])
        assert rc == 3

    def test_single_class_exit_4(self, tmp_path, workdir, capsys):
        cloud = read_cloud(workdir["data"] / "scene-000.cloud")
        from peduncleseg import write_cloud
        write_cloud(cloud.with_labels(np.zeros(len(cloud), dtype=np.int8)),
                    tmp_path / "flat.cloud")
        (tmp_path / "manifest.csv").write_text("flat.cloud,flat,1,red\n")
        rc = cli.main(["--config", workdir["cfg"], "train",
                       str(tmp_path / "manifest.csv"),
                       str(tmp_path / "model.json")])
        assert rc == 4
        assert "single class" in capsys.readouterr().err

    def test_no_usable_rows_exit_4(self, tmp_path, workdir, capsys):
        manifest = unlabelled_manifest(workdir, tmp_path)
        model = tmp_path / "model.json"
        rc = cli.main(["--config", workdir["cfg"], "train", str(manifest),
                       str(model)])
        assert rc == 4
        assert "no labelled rows with valid descriptors" in \
            capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("train, status", [
        ("max_passes = 1\ntolerance = 1e-12",
         "SMO not converged (stopped at max_passes)"),
        ("max_passes = 1000", "SMO converged"),
    ])
    def test_summary_reports_convergence(self, tmp_path, workdir, capsys,
                                         train, status):
        cfg = tmp_path / "pipeline.ini"
        cfg.write_text(CONFIG_INI.replace("max_passes = 20", train))
        model = tmp_path / "model.json"
        capsys.readouterr()
        rc = cli.main(["--config", str(cfg), "train", workdir["manifest"],
                       str(model)])
        assert rc == 0
        meta = json.loads(model.read_text())["meta"]
        assert meta["converged"] is ("not" not in status)
        out = capsys.readouterr().out
        assert f"trained on {meta['train_rows']} rows " \
            f"({meta['distinct_rows']} distinct) in " in out
        assert f"{status} after {meta['iterations']} iterations " \
            f"({meta['kernel_rows']} kernel rows computed)" in out


class TestPredict:
    def test_labels_scores_and_rate(self, workdir, tmp_path, capsys):
        out = tmp_path / "pred.cloud"
        rc = cli.main(["--config", workdir["cfg"], "predict",
                       workdir["model"],
                       str(workdir["data"] / "scene-000.cloud"), str(out)])
        assert rc == 0
        assert "points/s" in capsys.readouterr().out
        labelled = read_cloud(out)
        assert labelled.has_labels
        assert set(np.unique(labelled.labels)) <= {0, 1}
        scores = (tmp_path / "pred_scores.csv").read_text().splitlines()
        assert scores[0] == "index,score,label"
        assert len(scores) == len(labelled) + 1
        idx, score, label = scores[1].split(",")
        assert idx == "0" and (label in ("0", "1"))
        assert (float(score) > 0) == (label == "1")

    def test_workers_bit_identical(self, workdir, tmp_path):
        outs = []
        for workers in (1, 4):
            out = tmp_path / f"pred-{workers}.cloud"
            rc = cli.main(["--config", workdir["cfg"], "predict",
                           workdir["model"],
                           str(workdir["data"] / "scene-001.cloud"),
                           str(out), "--workers", str(workers)])
            assert rc == 0
            outs.append((out.read_bytes(),
                         (tmp_path / f"pred-{workers}_scores.csv").read_bytes()))
        assert outs[0] == outs[1]

    def test_corrupt_model_exit_4(self, workdir, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema_version": 1}\n')
        rc = cli.main(["--config", workdir["cfg"], "predict", str(bad),
                       str(workdir["data"] / "scene-000.cloud"),
                       str(tmp_path / "out.cloud")])
        assert rc == 4
        assert "model" in capsys.readouterr().err

    def test_ragged_model_exit_4(self, workdir, tmp_path, capsys):
        doc = json.loads((workdir["base"] / "model.json").read_text())
        doc["support_vectors"][0].pop()
        ragged = tmp_path / "ragged.json"
        ragged.write_text(json.dumps(doc))
        rc = cli.main(["--config", workdir["cfg"], "predict", str(ragged),
                       str(workdir["data"] / "scene-000.cloud"),
                       str(tmp_path / "out.cloud")])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "'support_vectors'" in err

    @pytest.mark.parametrize("edit, message", [
        (lambda t: f"[{t}]", "must hold a JSON object"),
        (lambda t: t.replace('"meta": {', '"meta": [{', 1)[:-2] + "]}\n",
         "'meta' has the wrong type"),
        (lambda t: t.replace('"kernel": "rbf"', '"kernel": 5'),
         "'kernel' has the wrong type"),
        (lambda t: t.replace('"mean": [', '"mean": [0.0, ', 1),
         "scaling statistics do not match the vectors"),
        (lambda t: t.replace('"meta": {', '"meta": {"x": NaN, ', 1),
         "'meta' holds a non-finite number"),
        (lambda t: t.replace('"meta": {', '"meta": {"x": [1e400], ', 1),
         "'meta' holds a non-finite number"),
    ])
    def test_malformed_model_exit_4(self, workdir, tmp_path, capsys, edit,
                                    message):
        model = model_file(workdir, tmp_path, edit)
        out = tmp_path / "out.cloud"
        rc = cli.main(["--config", workdir["cfg"], "predict", str(model),
                       str(workdir["data"] / "scene-000.cloud"), str(out)])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and message in err
        assert not out.exists()

    def test_unknown_feature_set_in_model_exit_4(self, workdir, tmp_path,
                                                 capsys):
        bogus = bogus_feature_set_model(workdir, tmp_path)
        rc = cli.main(["--config", workdir["cfg"], "predict", str(bogus),
                       str(workdir["data"] / "scene-000.cloud"),
                       str(tmp_path / "out.cloud")])
        assert rc == 4
        assert "bogus" in capsys.readouterr().err

    def test_feature_set_width_mismatch_exit_4(self, workdir, tmp_path,
                                               capsys, monkeypatch):
        featurised = record_calls(monkeypatch, cli, "scene_features")
        hsv = bogus_feature_set_model(workdir, tmp_path, "hsv")
        out = tmp_path / "out.cloud"
        rc = cli.main(["--config", workdir["cfg"], "predict", str(hsv),
                       str(workdir["data"] / "scene-000.cloud"), str(out)])
        assert rc == 4
        err = capsys.readouterr().err
        assert "'hsv' of 3 columns" in err and "vectors have 36" in err
        assert not out.exists()
        assert featurised == []

    def test_missing_cloud_exit_3(self, workdir, tmp_path):
        rc = cli.main(["--config", workdir["cfg"], "predict",
                       workdir["model"], str(tmp_path / "nope.cloud"),
                       str(tmp_path / "out.cloud")])
        assert rc == 3


class TestFeatureSetRuns:
    """An hsv model's train, evaluate and predict featurise the hsv columns
    only, and write the bytes of featurising in full and then selecting."""

    @staticmethod
    def run_hsv(workdir, out):
        out.mkdir()
        cfg = out / "pipeline.ini"
        cfg.write_text(CONFIG_INI.replace("c = 10\n",
                                          "c = 10\nfeature_set = hsv\n"))
        model = out / "model.json"
        for argv in (["train", workdir["manifest"], str(model)],
                     ["evaluate", str(model), workdir["manifest"],
                      str(out / "reports")],
                     ["predict", str(model),
                      str(workdir["data"] / "scene-000.cloud"),
                      str(out / "pred.cloud")]):
            assert cli.main(["--config", str(cfg)] + argv) == 0
        return {p.relative_to(out).as_posix(): p.read_bytes()
                for p in sorted(out.rglob("*")) if p.is_file()}

    def test_outputs_match_full_then_select(self, workdir, tmp_path,
                                            monkeypatch):
        extract = pipeline.extract_features
        calls = record_calls(monkeypatch, pipeline, "extract_features")
        got = self.run_hsv(workdir, tmp_path / "hsv")
        assert {args[-1] for args in calls} == {"hsv"}
        monkeypatch.setattr(pipeline, "extract_features",
                            lambda *args: select_features(
                                extract(*args[:-1], "full"), args[-1]))
        want = self.run_hsv(workdir, tmp_path / "full")
        assert "reports/report.json" in got and "pred_scores.csv" in got
        assert got == want


class TestEvaluate:
    def test_report_files_and_auc(self, workdir, tmp_path, capsys):
        report_dir = tmp_path / "reports"
        rc = cli.main(["--config", workdir["cfg"], "evaluate",
                       workdir["model"], workdir["manifest"],
                       str(report_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "slice overall" in out
        doc = json.loads((report_dir / "report.json").read_text())
        by_tag = {r["slice"]: r for r in doc}
        assert by_tag["overall"]["auc"] >= 0.95
        for tag in by_tag:
            curve = (report_dir / f"pr_{tag}.csv").read_text().splitlines()
            assert curve[0] == "threshold,recall,precision"
            assert len(curve) > 2

    def test_unknown_feature_set_in_model_exit_4(self, workdir, tmp_path,
                                                 capsys):
        bogus = bogus_feature_set_model(workdir, tmp_path)
        rc = cli.main(["--config", workdir["cfg"], "evaluate", str(bogus),
                       workdir["manifest"], str(tmp_path / "reports")])
        assert rc == 4
        assert "bogus" in capsys.readouterr().err

    def test_feature_set_width_mismatch_exit_4(self, workdir, tmp_path,
                                               capsys, monkeypatch):
        featurised = record_calls(monkeypatch, pipeline, "scene_features")
        hsv = bogus_feature_set_model(workdir, tmp_path, "hsv")
        reports = tmp_path / "reports"
        rc = cli.main(["--config", workdir["cfg"], "evaluate", str(hsv),
                       workdir["manifest"], str(reports)])
        assert rc == 4
        err = capsys.readouterr().err
        assert "'hsv' of 3 columns" in err and "vectors have 36" in err
        assert not reports.exists()
        assert featurised == []

    def test_non_finite_meta_exit_4(self, workdir, tmp_path, capsys):
        model = model_file(workdir, tmp_path, lambda t: t.replace(
            '"meta": {', '"meta": {"x": {"y": -Infinity}, ', 1))
        reports = tmp_path / "reports"
        rc = cli.main(["--config", workdir["cfg"], "evaluate", str(model),
                       workdir["manifest"], str(reports)])
        assert rc == 4
        assert "'meta' holds a non-finite number" in capsys.readouterr().err
        assert not reports.exists()

    def test_no_labelled_points_exit_4(self, workdir, tmp_path, capsys):
        from peduncleseg import write_cloud
        cloud = read_cloud(workdir["data"] / "scene-000.cloud")
        write_cloud(cloud.with_labels(np.full(len(cloud), -1, dtype=np.int8)),
                    tmp_path / "a.cloud")
        (tmp_path / "manifest.csv").write_text("a.cloud,a,1,red\n")
        rc = cli.main(["--config", workdir["cfg"], "evaluate",
                       workdir["model"], str(tmp_path / "manifest.csv"),
                       str(tmp_path / "reports")])
        assert rc == 4
        assert "no labelled points" in capsys.readouterr().err

    def test_garbled_cloud_exit_3(self, workdir, tmp_path):
        (tmp_path / "bad.cloud").write_text("FIELDS x y z\nPOINTS 1\n1 2\n")
        (tmp_path / "manifest.csv").write_text("bad.cloud,bad,1,red\n")
        rc = cli.main(["--config", workdir["cfg"], "evaluate",
                       workdir["model"], str(tmp_path / "manifest.csv"),
                       str(tmp_path / "reports")])
        assert rc == 3


class TestUndecodableInput:
    """A file whose bytes do not decode ends with its reader's exit code."""

    @pytest.mark.parametrize("bad, code", [
        ("cloud", 3), ("manifest", 3), ("model", 4), ("config", 2),
        ("spec", 2), ("grid", 2),
    ])
    def test_exit_code(self, workdir, tmp_path, capsys, bad, code):
        files = {"cloud": workdir["data"] / "scene-000.cloud",
                 "manifest": workdir["data"] / "manifest.csv",
                 "model": workdir["base"] / "model.json",
                 "config": workdir["base"] / "pipeline.ini",
                 "spec": workdir["base"] / "scenes.ini",
                 "grid": tmp_path / "grid.csv"}
        files["grid"].write_text("kernel,gamma,c\nlinear,,1\n")
        data = files[bad].read_bytes()
        if bad == "model":   # valid UTF-8 JSON, but a model file is ASCII
            data = data.replace(b'"rbf"', '"rbf\u00e9"'.encode("utf-8"), 1)
        else:   # a stray 0xff byte at the start of the second line
            cut = data.index(b"\n") + 1
            data = data[:cut] + b"\xff" + data[cut:]
        files[bad] = tmp_path / files[bad].name
        files[bad].write_bytes(data)
        argv = {"spec": ["synth", files["spec"], tmp_path / "out"],
                "manifest": ["evaluate", files["model"], files["manifest"],
                             tmp_path / "reports"],
                "grid": ["sweep", files["manifest"], files["grid"],
                         tmp_path / "sweep.csv"]}.get(
            bad, ["predict", files["model"], files["cloud"],
                  tmp_path / "out.cloud"])
        assert cli.main(["--config", str(files["config"])]
                        + [str(a) for a in argv]) == code
        err = capsys.readouterr().err
        # a cloud error names its 1-based line, here the second
        assert f"error: {'line 2: ' * (bad == 'cloud')}{files[bad]} is not" \
            in err

    @pytest.mark.parametrize("cut", [0, 40, -5])
    def test_cloud_error_names_the_line(self, tmp_path, cut):
        body = ("FIELDS x y z r g b\nPOINTS 3000\n"
                + "0.1 0.2 0.3 1 2 3\r\n" * 3000).encode()
        data = body[:cut] + b"\xff" + body[cut:]
        path = tmp_path / "bad.cloud"
        path.write_bytes(data)
        with pytest.raises(CloudFormatError) as err:
            read_cloud(path)
        # cut = -5 puts the byte far past the file's first 8 KB
        assert err.value.line == data[:cut].count(b"\n") + 1 \
            == {0: 1, 40: 3, -5: 3002}[cut]
        assert str(err.value).startswith(f"line {err.value.line}: {path} is not")


class TestSweep:
    def test_ranked_csv_with_bad_row_skipped(self, workdir, tmp_path,
                                             capsys, caplog):
        grid = tmp_path / "grid.csv"
        grid.write_text("kernel,gamma,c\n"
                        "rbf,0.05,10\n"
                        "rbf,not-a-number,10\n"
                        "linear,,10\n")
        report = tmp_path / "sweep.csv"
        rc = cli.main(["--config", workdir["cfg"], "sweep",
                       workdir["manifest"], str(grid), str(report)])
        assert rc == 0
        assert any("skipped" in r.message for r in caplog.records)
        rows = report.read_text().splitlines()
        assert rows[0] == "kernel,gamma,c,feature_set,auc,error"
        body = [r.split(",") for r in rows[1:]]
        assert len(body) == 2          # bad grid row dropped
        aucs = [float(r[4]) for r in body if r[4]]
        assert aucs == sorted(aucs, reverse=True)
        assert "AUC" in capsys.readouterr().out

    def test_bad_grid_header_exit_2(self, workdir, tmp_path):
        grid = tmp_path / "grid.csv"
        grid.write_text("kern,g,cost\nrbf,0.1,10\n")
        rc = cli.main(["--config", workdir["cfg"], "sweep",
                       workdir["manifest"], str(grid),
                       str(tmp_path / "sweep.csv")])
        assert rc == 2

    def test_all_configs_failing_exit_4(self, workdir, tmp_path, capsys):
        cloud = read_cloud(workdir["data"] / "scene-000.cloud")
        from peduncleseg import write_cloud
        flat = cloud.with_labels(np.zeros(len(cloud), dtype=np.int8))
        write_cloud(flat, tmp_path / "a.cloud")
        write_cloud(flat, tmp_path / "b.cloud")
        (tmp_path / "manifest.csv").write_text(
            "a.cloud,a,1,red\nb.cloud,b,2,red\n")
        grid = tmp_path / "grid.csv"
        grid.write_text("kernel,gamma,c\nrbf,0.05,10\n")
        report = tmp_path / "sweep.csv"
        rc = cli.main(["--config", workdir["cfg"], "sweep",
                       str(tmp_path / "manifest.csv"), str(grid),
                       str(report)])
        assert rc == 4
        rows = report.read_text().splitlines()
        assert len(rows) == 2 and rows[1].split(",")[4] == ""
        assert "failed" in capsys.readouterr().err

    def test_no_usable_grid_rows_exit_2(self, workdir, tmp_path, capsys):
        grid = tmp_path / "grid.csv"
        grid.write_text("kernel,gamma,c\npoly,1,10\nrbf,,10\nlinear,,-1\n")
        with pytest.raises(ConfigError, match="has no usable rows"):
            cli._read_grid(grid, TrainConfig())
        report = tmp_path / "sweep.csv"
        rc = cli.main(["--config", workdir["cfg"], "sweep",
                       workdir["manifest"], str(grid), str(report)])
        assert rc == 2
        assert "has no usable rows" in capsys.readouterr().err
        assert not report.exists()

    def test_unlabelled_validation_exit_4(self, workdir, tmp_path, capsys):
        manifest = unlabelled_manifest(workdir, tmp_path)
        grid = tmp_path / "grid.csv"
        grid.write_text("kernel,gamma,c\nrbf,0.05,10\n")
        message = "validation manifest has no labelled points"
        entries = read_manifest(manifest)
        with pytest.raises(EvaluationError, match=message):
            sweep(entries, [TrainConfig()], entries,
                  load_pipeline_config(workdir["cfg"]))
        report = tmp_path / "sweep.csv"
        rc = cli.main(["--config", workdir["cfg"], "sweep", str(manifest),
                       str(grid), str(report)])
        assert rc == 4
        assert message in capsys.readouterr().err
        assert not report.exists()

    def test_grid_rows_without_train_keys_keep_the_defaults(self, tmp_path):
        grid = tmp_path / "grid.csv"
        grid.write_text("kernel,gamma,c,feature_set\n"
                        "rbf,0.05,10,\nlinear,,1,pfh\n")
        assert cli._read_grid(grid, PipelineConfig().train) == [
            TrainConfig(kernel=KernelSpec("rbf", 0.05), c=10.0),
            TrainConfig(kernel=KernelSpec("linear", None), c=1.0,
                        feature_set="pfh")]

    @pytest.mark.parametrize("seed_flag, seed", [([], 5), (["--seed", "11"], 11)])
    def test_train_section_reaches_every_grid_row(self, workdir, tmp_path,
                                                  monkeypatch, seed_flag,
                                                  seed):
        cfg = tmp_path / "pipeline.ini"
        cfg.write_text(CONFIG_INI.replace(
            "max_passes = 20", "max_passes = 7\ntolerance = 0.01\nseed = 5\n"
            "feature_set = hsv"))
        grid = tmp_path / "grid.csv"
        grid.write_text("kernel,gamma,c,feature_set\n"
                        "rbf,0.05,10,\nlinear,,1,pfh\n")
        trained = record_calls(monkeypatch, evaluation, "train_svm")
        splits = record_calls(monkeypatch, cli, "split_dataset")
        report = tmp_path / "sweep.csv"
        rc = cli.main(["--config", str(cfg), "sweep", workdir["manifest"],
                       str(grid), str(report)] + seed_flag)
        assert rc == 0
        assert [split.seed for _manifest, split in splits] == [seed]
        configs = [config for _fm, config in trained]
        assert [(c.kernel, c.c, c.feature_set) for c in configs] == [
            (KernelSpec("rbf", 0.05), 10.0, "hsv"),
            (KernelSpec("linear", None), 1.0, "pfh")]
        assert all((c.max_passes, c.tolerance, c.seed) == (7, 0.01, seed)
                   for c in configs)
        assert sorted(row.split(",")[3]
                      for row in report.read_text().splitlines()[1:]) \
            == ["hsv", "pfh"]
