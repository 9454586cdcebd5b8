"""Each benchmark check passes on the program's output and fails on a corrupted copy."""

import numpy as np
import pytest

from peduncleseg import (FeatureMatrix, PipelineConfig, TrainConfig, auc,
                         build_index, compute_pfh, decision_scores,
                         estimate_normals, generate_scene, pr_curve,
                         predict_parallel, save_model, scene_features,
                         train_svm)
from segbench import checks
from segbench.workloads import scene_spec

CFG = PipelineConfig()


@pytest.fixture(scope="module")
def scene():
    cloud = generate_scene(scene_spec(5, 0.15, "green"))
    processed, fm = scene_features(cloud, CFG)
    normals = estimate_normals(processed, build_index(processed), CFG.normals)
    return processed, fm, normals


@pytest.fixture(scope="module")
def trained(scene):
    _processed, fm, _normals = scene
    keep = fm.valid
    train = FeatureMatrix(fm.values[keep], fm.labels[keep], fm.valid[keep])
    model = train_svm(train, TrainConfig())
    assert model.meta["converged"]
    return model, train


def _pfh(scene, rows, sample):
    processed, fm, normals = scene
    return checks.pfh_problems(processed.xyz, normals.normals, normals.valid,
                               CFG.radius_ri, rows, fm.valid, sample)


def test_pfh_matches_brute_force_and_catches_a_moved_count(scene):
    _processed, fm, _normals = scene
    q = int(np.argmax(fm.valid))
    rows = fm.values[:, 3:].copy()
    assert _pfh(scene, rows, [q, q + 1, q + 2]) == []

    processed, _fm, normals = scene
    npairs = compute_pfh(q, processed, normals, build_index(processed),
                         CFG.radius_ri).pair_count
    block = rows[q, :11]
    src = int(np.argmax(block))
    dst = (src + 5) % 11
    rows[q, src] -= 1.0 / npairs
    rows[q, dst] += 1.0 / npairs
    assert _pfh(scene, rows, [q])


def test_hsv_against_colorsys(scene):
    processed, fm, _normals = scene
    hsv = fm.values[:, :3].copy()
    assert checks.hsv_problems(processed.rgb, hsv, range(50)) == []
    hsv[7, 0] += 1e-9
    assert checks.hsv_problems(processed.rgb, hsv, range(50))


def test_normals_against_pca(scene):
    processed, _fm, normals = scene
    sample = range(0, len(processed), 7)
    args = (processed.xyz, CFG.normals.radius_rn, CFG.normals.viewpoint)
    assert checks.normal_problems(*args, normals.normals, normals.valid,
                                  sample) == []
    q = int(np.argmax(normals.valid))
    tilted = normals.normals.copy()
    tilted[q] += np.cross(tilted[q], [0.0, 0.0, 1.0]) * 1e-5
    tilted[q] /= np.linalg.norm(tilted[q])
    assert checks.normal_problems(*args, tilted, normals.valid, [q])
    assert checks.normal_problems(*args, -normals.normals, normals.valid,
                                  [q])


def test_scores_against_the_model_file(trained, tmp_path):
    model, train = trained
    save_model(model, tmp_path / "model.json")
    doc = checks.read_model_doc(tmp_path / "model.json")
    scores = decision_scores(model, train.values)
    assert checks.score_problems(doc, train.values, scores, range(10)) == []
    pushed = scores.copy()
    pushed[3] += 1e-6 * (1.0 + np.abs(model.dual_coefs).sum())
    assert checks.score_problems(doc, train.values, pushed, range(10))


def test_labels_equal_positive_scores(trained):
    model, train = trained
    labels, scores, _t = predict_parallel(model, train.values, 1)
    assert checks.label_problems(scores, labels) == []
    labels = labels.copy()
    labels[11] = 1 - labels[11]
    assert checks.label_problems(scores, labels)


def test_scores_from_one_and_two_workers(trained):
    model, train = trained
    _l, one, _t = predict_parallel(model, train.values, 1)
    _l, two, _t = predict_parallel(model, train.values, 2)
    assert checks.worker_problems(one, two, 2) == []
    two = two.copy()
    two[-1] = np.nextafter(two[-1], np.inf)
    assert checks.worker_problems(one, two, 2)


def test_duals_and_kkt(trained):
    model, train = trained
    doc = checks.model_doc(model)
    data = (train.values, train.labels)
    assert checks.dual_problems(doc, data) == []
    assert checks.dual_problems(dict(doc, bias=doc["bias"] + 0.1), data)
    coef = doc["coef"].copy()
    coef[0] += 1e-3
    assert checks.dual_problems(dict(doc, coef=coef))
    coef = doc["coef"].copy()
    coef[0] = np.sign(coef[0]) * doc["c"] * 1.01
    assert checks.dual_problems(dict(doc, coef=coef))


def test_curve_and_auc_rebuilt_from_scores(trained):
    model, train = trained
    scores = decision_scores(model, train.values)
    curve = pr_curve(scores, train.labels)
    area = auc(curve)
    args = (scores, train.labels)
    assert checks.curve_problems(curve.recall, curve.precision, area,
                                 *args) == []
    mid = len(curve.recall) // 2
    dropped = (np.delete(curve.recall, mid), np.delete(curve.precision, mid))
    assert checks.curve_problems(*dropped, area, *args)
    assert checks.curve_problems(curve.recall, curve.precision, area + 1e-9,
                                 *args)
    assert checks.curve_problems(curve.recall[:-1], curve.precision[:-1],
                                 area, *args)
