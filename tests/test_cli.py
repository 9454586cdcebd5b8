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
    assert cli.main(["synth", str(spec), str(data)]) == 0
    model = base / "model.json"
    assert cli.main(["train", "--config", str(cfg),
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


# the flags each command reads, and so takes, after its name
COMMAND_FLAGS = {"synth": ["--seed"], "train": ["--config", "--seed"],
                 "predict": ["--config", "--workers"],
                 "evaluate": ["--config"], "sweep": ["--config", "--seed"]}


def usage_error(argv, capsys):
    """The one ``error:`` line of a command line that exits 2 in argparse."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    return next(line for line in err.splitlines() if "error:" in line)


class TestHelpAndUsage:
    @pytest.mark.parametrize("argv", [
        ["--help"],
        ["synth", "--help"],
        ["train", "--help"],
        ["predict", "--help"],
        ["evaluate", "--help"],
        ["sweep", "--help"],
    ])
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        # the top-level parser takes no flag but -h
        flags = COMMAND_FLAGS.get(argv[0], [])
        assert set(re.findall(r"--[a-z]+", capsys.readouterr().out)) \
            == {"--help", *flags}

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

    @pytest.mark.parametrize("command, flag", [
        ("synth", "--config"), ("synth", "--workers"), ("train", "--workers"),
        ("predict", "--seed"), ("evaluate", "--seed"),
        ("evaluate", "--workers"), ("sweep", "--workers"),
    ])
    def test_flag_the_command_does_not_read_exit_2(self, command, flag,
                                                    capsys):
        # four positionals fill every command's, so only the flag is left
        argv = [command, flag, "1", "a", "b", "c"]
        assert flag not in COMMAND_FLAGS[command]
        assert flag in usage_error(argv, capsys)

    @pytest.mark.parametrize("argv", [
        ["--config", "pipeline.ini", "train", "m.csv"],
        ["--seed", "3", "synth", "scenes.ini", "data"],
        ["--workers", "2", "predict", "m.json", "a.cloud", "out.cloud"],
    ])
    def test_flag_before_the_command_exit_2(self, argv, capsys):
        usage_error(argv, capsys)

    def test_unknown_config_key_exit_2(self, tmp_path, workdir):
        bad = tmp_path / "bad.ini"
        bad.write_text("[train]\nmomentum = 0.9\n")
        model = tmp_path / "model.json"
        rc = cli.main(["train", "--config", str(bad), workdir["manifest"],
                       str(model)])
        assert rc == 2
        assert not model.exists()

    def test_removed_data_root_key_exit_2(self, tmp_path, workdir):
        # [paths] went with its model and reports keys
        cfg = tmp_path / "old.ini"
        cfg.write_text("[paths]\ndata_root = data\n")
        with pytest.raises(ConfigError,
                           match=re.escape("unknown config section [paths]")):
            load_pipeline_config(cfg)
        model = tmp_path / "model.json"
        rc = cli.main(["train", "--config", str(cfg), workdir["manifest"],
                       str(model)])
        assert rc == 2
        assert not model.exists()


def assert_configs_equal(got, want):
    assert got.outlier == want.outlier
    assert got.voxel == want.voxel
    assert got.normals.radius_rn == want.normals.radius_rn
    assert np.array_equal(got.normals.viewpoint, want.normals.viewpoint)
    assert got.train == want.train
    assert (got.radius_ri, got.max_train_rows) \
        == (want.radius_ri, want.max_train_rows)


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
""")
        want = PipelineConfig(
            outlier=OutlierParams(7, 2.5), voxel=VoxelParams(0.004),
            normals=NormalParams(0.03, np.array([1.0, 2.0, 3.0])),
            radius_ri=0.02,
            train=TrainConfig(KernelSpec("rbf", 0.5), c=3.0, tolerance=0.01,
                              max_passes=4, seed=9, feature_set="hsv"),
            max_train_rows=300)
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
        ("[paths]\nmodel = m.json\n", "unknown config section [paths]"),
        ("[paths]\nreports = out\n", "unknown config section [paths]"),
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
        assert cli.main(["synth", workdir["spec"], str(rerun)]) == 0
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
        rc = cli.main(["train", "--config", workdir["cfg"], str(manifest),
                       str(tmp_path / "model.json")])
        assert rc == 3
        assert "ghost.cloud" in capsys.readouterr().err

    def test_empty_manifest_exit_3(self, tmp_path, workdir):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("# nothing here\n")
        rc = cli.main(["train", "--config", workdir["cfg"], str(manifest),
                       str(tmp_path / "model.json")])
        assert rc == 3

    def test_single_class_exit_4(self, tmp_path, workdir, capsys):
        cloud = read_cloud(workdir["data"] / "scene-000.cloud")
        from peduncleseg import write_cloud
        write_cloud(cloud.with_labels(np.zeros(len(cloud), dtype=np.int8)),
                    tmp_path / "flat.cloud")
        (tmp_path / "manifest.csv").write_text("flat.cloud,flat,1,red\n")
        rc = cli.main(["train", "--config", workdir["cfg"],
                       str(tmp_path / "manifest.csv"),
                       str(tmp_path / "model.json")])
        assert rc == 4
        assert "single class" in capsys.readouterr().err

    def test_no_usable_rows_exit_4(self, tmp_path, workdir, capsys):
        manifest = unlabelled_manifest(workdir, tmp_path)
        model = tmp_path / "model.json"
        rc = cli.main(["train", "--config", workdir["cfg"], str(manifest),
                       str(model)])
        assert rc == 4
        assert "no labelled rows with valid descriptors" in \
            capsys.readouterr().err
        assert not model.exists()

    def test_seed_flag_reaches_the_train_config(self, workdir, tmp_path,
                                                monkeypatch):
        assembled = record_calls(monkeypatch, cli, "assemble_training_matrix")
        rc = cli.main(["train", "--config", workdir["cfg"], "--seed", "7",
                       workdir["manifest"], str(tmp_path / "model.json")])
        assert rc == 0
        assert [config.train.seed for _manifest, config in assembled] == [7]

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
        rc = cli.main(["train", "--config", str(cfg), workdir["manifest"],
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
        rc = cli.main(["predict", "--config", workdir["cfg"],
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
            rc = cli.main(["predict", "--config", workdir["cfg"],
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
        rc = cli.main(["predict", "--config", workdir["cfg"], str(bad),
                       str(workdir["data"] / "scene-000.cloud"),
                       str(tmp_path / "out.cloud")])
        assert rc == 4
        assert "model" in capsys.readouterr().err

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
        rc = cli.main(["predict", "--config", workdir["cfg"], str(model),
                       str(workdir["data"] / "scene-000.cloud"), str(out)])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and message in err
        assert not out.exists()

    def test_unknown_feature_set_in_model_exit_4(self, workdir, tmp_path,
                                                 capsys):
        bogus = bogus_feature_set_model(workdir, tmp_path)
        rc = cli.main(["predict", "--config", workdir["cfg"], str(bogus),
                       str(workdir["data"] / "scene-000.cloud"),
                       str(tmp_path / "out.cloud")])
        assert rc == 4
        assert "bogus" in capsys.readouterr().err

    def test_feature_set_width_mismatch_exit_4(self, workdir, tmp_path,
                                               capsys, monkeypatch):
        featurised = record_calls(monkeypatch, cli, "scene_features")
        hsv = bogus_feature_set_model(workdir, tmp_path, "hsv")
        out = tmp_path / "out.cloud"
        rc = cli.main(["predict", "--config", workdir["cfg"], str(hsv),
                       str(workdir["data"] / "scene-000.cloud"), str(out)])
        assert rc == 4
        err = capsys.readouterr().err
        assert "'hsv' of 3 columns" in err and "vectors have 36" in err
        assert not out.exists()
        assert featurised == []

    def test_cloud_no_larger_than_k_neighbours_exit_2(self, workdir,
                                                       tmp_path, capsys):
        # the config and the cloud disagree, and the fix is in the config
        cfg = tmp_path / "pipeline.ini"
        cfg.write_text(CONFIG_INI.replace("k_neighbours = 8",
                                          "k_neighbours = 5"))
        rows = (workdir["data"] / "scene-000.cloud").read_text().split("\n")
        cloud = tmp_path / "five.cloud"
        cloud.write_text("\n".join([rows[0], "POINTS 5", *rows[2:7]]) + "\n")
        out = tmp_path / "out.cloud"
        rc = cli.main(["predict", "--config", str(cfg), workdir["model"],
                       str(cloud), str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "k=5 must be smaller than the point count 5" in err
        assert sorted(p.name for p in tmp_path.iterdir()) \
            == ["five.cloud", "pipeline.ini"]

    def test_missing_cloud_exit_3(self, workdir, tmp_path):
        rc = cli.main(["predict", "--config", workdir["cfg"],
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
            assert cli.main(argv + ["--config", str(cfg)]) == 0
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
        rc = cli.main(["evaluate", "--config", workdir["cfg"],
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
        rc = cli.main(["evaluate", "--config", workdir["cfg"], str(bogus),
                       workdir["manifest"], str(tmp_path / "reports")])
        assert rc == 4
        assert "bogus" in capsys.readouterr().err

    def test_feature_set_width_mismatch_exit_4(self, workdir, tmp_path,
                                               capsys, monkeypatch):
        featurised = record_calls(monkeypatch, pipeline, "scene_features")
        hsv = bogus_feature_set_model(workdir, tmp_path, "hsv")
        reports = tmp_path / "reports"
        rc = cli.main(["evaluate", "--config", workdir["cfg"], str(hsv),
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
        rc = cli.main(["evaluate", "--config", workdir["cfg"], str(model),
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
        rc = cli.main(["evaluate", "--config", workdir["cfg"],
                       workdir["model"], str(tmp_path / "manifest.csv"),
                       str(tmp_path / "reports")])
        assert rc == 4
        assert "no labelled points" in capsys.readouterr().err

    def test_garbled_cloud_exit_3(self, workdir, tmp_path):
        (tmp_path / "bad.cloud").write_text("FIELDS x y z\nPOINTS 1\n1 2\n")
        (tmp_path / "manifest.csv").write_text("bad.cloud,bad,1,red\n")
        rc = cli.main(["evaluate", "--config", workdir["cfg"],
                       workdir["model"], str(tmp_path / "manifest.csv"),
                       str(tmp_path / "reports")])
        assert rc == 3


def stray_byte(text):
    """A 0xff byte, which UTF-8 never holds, at the start of line 2."""
    return text.encode().replace(b"\n", b"\n\xff", 1)


def first_row(edit):
    """Cloud mutation that rewrites the first point row (file line 3)."""
    def mutate(text):
        lines = text.split("\n")
        lines[2] = edit(lines[2].split())
        return "\n".join(lines)
    return mutate


def model_doc(edit):
    """Model mutation that edits the parsed JSON document."""
    def mutate(text):
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc)
    return mutate


# the exit code README documents for a bad file of each kind
EXIT_CODES = {"cloud": 3, "manifest": 3, "model": 4, "config": 2,
              "spec": 2, "grid": 2}

# (kind, name, mutation of a valid file's text, fragment of the error line,
# where {path} is the mutated file); each mutation makes the file invalid
MUTATIONS = [
    ("cloud", "not-utf8", stray_byte, "line 2: {path} is not utf-8 text"),
    ("cloud", "short-row", first_row(lambda f: " ".join(f[:-1])),
     "line 3: expected 7 columns, got 6"),
    ("cloud", "nan", first_row(lambda f: " ".join(["nan"] + f[1:])),
     "line 3: non-finite coordinate"),
    ("cloud", "inf", first_row(lambda f: " ".join(f[:1] + ["-inf"] + f[2:])),
     "line 3: non-finite coordinate"),
    ("cloud", "huge-count",
     lambda t: t.replace("POINTS 440", "POINTS 99999999999"),
     "line 2: POINTS declares 99999999999 rows but file has 440"),
    ("cloud", "no-header", lambda t: t.split("\n", 1)[1],
     "line 1: expected 'FIELDS' header"),
    ("manifest", "not-utf8", stray_byte, "{path} is not utf-8 text"),
    ("manifest", "three-fields", lambda t: t.replace(",red", "", 1),
     "expected 4 comma-separated fields, got 3"),
    ("manifest", "trip-3", lambda t: t.replace(",1,red", ",3,red", 1),
     "trip must be 1 or 2, got '3'"),
    ("manifest", "unknown-colour", lambda t: t.replace(",red", ",blue", 1),
     "unknown colour tag 'blue'"),
    ("manifest", "duplicate-path",
     lambda t: t.replace("scene-001.cloud", "scene-000.cloud", 1),
     "duplicate path 'scene-000.cloud'"),
    ("model", "not-ascii", lambda t: t.replace('"rbf"', '"rbf\u00e9"', 1),
     "{path} is not ascii text"),
    ("model", "cut-off", lambda t: t[:len(t) // 2],
     "model file is not valid JSON"),
    ("model", "nan", lambda t: t.replace('"c": 10.0', '"c": NaN', 1),
     "model field 'c' holds a non-finite number"),
    ("model", "1e400",
     lambda t: re.sub(r'"bias": [^,\n]+', '"bias": 1e400', t),
     "model field 'bias' holds a non-finite number"),
    ("model", "ragged", model_doc(lambda d: d["support_vectors"][0].pop()),
     "model field 'support_vectors' must be a list of equal-length rows"),
    ("model", "no-bias", model_doc(lambda d: d.pop("bias")),
     "model file is missing field 'bias'"),
    ("config", "not-utf8", stray_byte, "{path} is not utf-8 text"),
    ("config", "unknown-key",
     lambda t: t.replace("max_passes = 20", "max_passes = 20\nmomentum = 1"),
     "unknown key 'momentum' in section [train]"),
    ("config", "nan-leaf",
     lambda t: t.replace("leaf_size = 0.0015", "leaf_size = nan"),
     "leaf_size must be > 0 and finite"),
    ("config", "cut-off-header", lambda t: t[:t.index("[train]") + 3],
     "cannot parse config {path}"),
    ("spec", "not-utf8", stray_byte, "{path} is not utf-8 text"),
    ("spec", "no-scenes", lambda t: t.replace("scenes = 4", "scenes = 0"),
     "scenes must be >= 1"),
    ("spec", "nan-hue", lambda t: t + "body_hue = nan\n",
     "hues must lie in [0, 1]"),
    ("spec", "unknown-key", lambda t: t + "sky = blue\n",
     "unknown key 'sky' in section [scene]"),
    ("grid", "not-utf8", stray_byte, "{path} is not utf-8 text"),
    ("grid", "no-c-column", lambda t: "kernel,gamma\nlinear,\n",
     "needs a kernel,gamma,c header"),
    ("grid", "no-usable-row", lambda t: "kernel,gamma,c\npoly,1,10\n",
     "has no usable rows"),
]


class TestMalformedInput:
    """A valid file of each kind, made invalid by each of a fixed list of
    mutations, ends with the kind's documented exit code, one error line and
    no output file."""

    @pytest.mark.parametrize("kind, mutate, message", [
        pytest.param(kind, mutate, message, id=f"{kind}-{name}")
        for kind, name, mutate, message in MUTATIONS])
    def test_exit_code(self, workdir, tmp_path, capsys, kind, mutate,
                       message):
        files = {"cloud": workdir["data"] / "scene-000.cloud",
                 "manifest": workdir["data"] / "manifest.csv",
                 "model": workdir["base"] / "model.json",
                 "config": workdir["base"] / "pipeline.ini",
                 "spec": workdir["base"] / "scenes.ini",
                 "grid": tmp_path / "grid.csv"}
        files["grid"].write_text("kernel,gamma,c\nlinear,,1\n")
        data = mutate(files[kind].read_text())
        files[kind] = tmp_path / files[kind].name
        if isinstance(data, str):
            data = data.encode()
        files[kind].write_bytes(data)
        config = ["--config", str(files["config"])]
        argv = {"spec": ["synth", files["spec"], tmp_path / "out"],
                "manifest": ["evaluate", *config, files["model"],
                             files["manifest"], tmp_path / "reports"],
                "grid": ["sweep", *config, files["manifest"], files["grid"],
                         tmp_path / "sweep.csv"]}.get(
            kind, ["predict", *config, files["model"], files["cloud"],
                   tmp_path / "out.cloud"])
        before = sorted(tmp_path.rglob("*"))
        assert cli.main([str(a) for a in argv]) == EXIT_CODES[kind]
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "Traceback" not in err
        assert message.format(path=files[kind]) in err
        # no output file, finished or temporary
        assert sorted(tmp_path.rglob("*")) == before

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
        rc = cli.main(["sweep", "--config", workdir["cfg"],
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
        rc = cli.main(["sweep", "--config", workdir["cfg"],
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
        rc = cli.main(["sweep", "--config", workdir["cfg"],
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
        rc = cli.main(["sweep", "--config", workdir["cfg"],
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
        rc = cli.main(["sweep", "--config", workdir["cfg"], str(manifest),
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
        rc = cli.main(["sweep", "--config", str(cfg), workdir["manifest"],
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
