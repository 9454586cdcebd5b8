"""End-to-end CLI tests; each command runs in-process via cli.main()."""

import json

import numpy as np
import pytest

from peduncleseg import (ConfigError, KernelSpec, NormalParams,
                         OutlierParams, PipelineConfig, TrainConfig,
                         VoxelParams, cli, learn, load_pipeline_config,
                         read_cloud, read_manifest)

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


def bogus_feature_set_model(workdir, tmp_path):
    """Copy of the trained model whose meta names an unknown feature set."""
    doc = json.loads((workdir["base"] / "model.json").read_text())
    doc["meta"]["feature_set"] = "bogus"
    path = tmp_path / "bogus.json"
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

    def test_invalid_value_is_config_error(self, tmp_path):
        path = tmp_path / "bad.ini"
        for text in ("[train]\nkernel = linear\ngamma = 0.1\n",
                     "[voxel]\nleaf_size = 0\n",
                     "[train]\nmax_train_rows = 1\n"):
            path.write_text(text)
            with pytest.raises(ConfigError):
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

    def test_matrix_beyond_memory_exit_4(self, tmp_path, workdir, capsys,
                                         monkeypatch):
        monkeypatch.setattr(learn, "_physical_memory_bytes", lambda: 1)
        model = tmp_path / "model.json"
        rc = cli.main(["--config", workdir["cfg"], "train",
                       workdir["manifest"], str(model)])
        assert rc == 4
        assert "max_train_rows" in capsys.readouterr().err
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
        assert f"{status} after {meta['iterations']} iterations" in \
            capsys.readouterr().out


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

    def test_unknown_feature_set_in_model_exit_4(self, workdir, tmp_path,
                                                 capsys):
        bogus = bogus_feature_set_model(workdir, tmp_path)
        rc = cli.main(["--config", workdir["cfg"], "predict", str(bogus),
                       str(workdir["data"] / "scene-000.cloud"),
                       str(tmp_path / "out.cloud")])
        assert rc == 4
        assert "bogus" in capsys.readouterr().err

    def test_missing_cloud_exit_3(self, workdir, tmp_path):
        rc = cli.main(["--config", workdir["cfg"], "predict",
                       workdir["model"], str(tmp_path / "nope.cloud"),
                       str(tmp_path / "out.cloud")])
        assert rc == 3


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
