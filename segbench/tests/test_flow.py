"""The traced decomposition gives the untraced composites' outputs."""

import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from peduncleseg import (DatasetManifest, ManifestEntry, PipelineConfig,
                         generate_scene, read_cloud, train_svm, write_cloud)
from segbench.flow import OP, OUTSIDE, Flow, Trace, pair_counts
from segbench.workloads import scene_spec

CFG = PipelineConfig()


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    base = tmp_path_factory.mktemp("scenes")
    entries = []
    for k, colour in enumerate(("red", "green", "green")):
        name = f"s{k}.cloud"
        write_cloud(generate_scene(scene_spec(20 + k, 0.15, colour)),
                    base / name)
        entries.append(ManifestEntry(name, name, 1 + k % 2, colour))
    return DatasetManifest(entries, base_dir=base)


def flows():
    return Flow(CFG, Trace(False)), Flow(CFG, Trace(True))


def _same_features(a, b):
    return (np.array_equal(a.values, b.values)
            and np.array_equal(a.labels, b.labels)
            and np.array_equal(a.valid, b.valid))


def test_scene_features(manifest):
    plain, traced = flows()
    path = manifest.resolve(manifest.entries[0])
    cloud = read_cloud(path)
    pa, fa = plain.scene_features(cloud, path)
    pb, fb = traced.scene_features(cloud, path)
    assert np.array_equal(pa.xyz, pb.xyz) and _same_features(fa, fb)
    names = [s["name"] for s in traced.trace.spans]
    assert names[:5] == ["preprocess.outlier", "preprocess.voxel",
                         "geometry.index", "geometry.normals",
                         "features.extract"]
    assert plain.trace.spans == []


def test_training_and_evaluation(manifest):
    plain, traced = flows()
    train = DatasetManifest(manifest.entries[:2], manifest.base_dir)
    test = DatasetManifest(manifest.entries[1:], manifest.base_dir)
    for subset in ("full", "hsv"):
        config = replace(CFG.train, feature_set=subset)
        fa = plain.assemble(train, config)
        fb = traced.assemble(train, config)
        assert _same_features(fa, fb)
        model = train_svm(fa, config)
        ra, rb = plain.evaluate(model, test), traced.evaluate(model, test)
        assert [r.slice_tag for r in ra] == [r.slice_tag for r in rb]
        for a, b in zip(ra, rb):
            assert a.auc == b.auc
            assert (a.positives, a.negatives) == (b.positives, b.negatives)
            assert np.array_equal(a.curve.recall, b.curve.recall)
            assert np.array_equal(a.curve.precision, b.curve.precision)
            assert np.array_equal(a.curve.thresholds, b.curve.thresholds)
    assert _same_features(plain.pooled_features(test),
                          traced.pooled_features(test))
    sums = traced.trace.sums[OUTSIDE]
    assert sums["pipeline.featurise_passes"] > sums["pipeline.distinct_scenes"]


def test_pair_counts_against_sets():
    rng = np.random.default_rng(3)
    n = 40
    valid = rng.random(n) > 0.2
    lists = [np.sort(rng.choice(n, size=rng.integers(1, 9), replace=False))
             for _ in range(n)]
    offsets = np.concatenate([[0], np.cumsum([len(m) for m in lists])])
    indices = np.concatenate(lists)
    instances, seen = 0, set()
    for q in range(n):
        if not valid[q]:
            continue
        members = [int(m) for m in lists[q] if valid[m]]
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                instances += 1
                seen.add((members[a], members[b]))
    assert pair_counts(indices, offsets, valid) == (instances, len(seen))


def test_layer_metrics_fall_back_to_set_up_work():
    trace = Trace(True)
    with trace.span("learn.smo"):
        pass
    trace.add("learn.train_rows", 30)
    trace.setups = 3
    for op in ("a", "b"):
        with trace.op(op):
            trace.add("features.rows", 10)
    metrics = trace.layer_metrics()
    assert metrics["features.rows"]["value"] == 10
    assert metrics["learn.train_rows"]["value"] == 10
    assert trace.sums[OP]["features.rows"] == 20


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    bench = Path(__file__).resolve().parents[1]
    for path in bench.rglob("*.py"):
        target = tmp_path / "segbench" / path.relative_to(bench)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(path.read_bytes())
    done = subprocess.run(
        [sys.executable, "segbench/run.py", "--workload", "detect",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
