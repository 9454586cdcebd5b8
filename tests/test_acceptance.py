"""Acceptance gate: one test per release criterion, one verdict line each.

Run `pytest tests/test_acceptance.py -v -s` to see every verdict.  The
speedup figure in criterion 6 and the whole of criterion 9 are reported
rather than gating; everything else fails the suite when out of tolerance.
"""

import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from peduncleseg import (DatasetManifest, KernelSpec, ManifestEntry,
                         NormalParams, NormalSet, PipelineConfig, PointCloud,
                         ScalingStats, SceneSpec, SplitSpec, SvmModel,
                         TrainConfig, assemble_training_matrix, auc,
                         build_index, compute_pfh, decision_scores,
                         estimate_normals, evaluate, generate_scene, pr_curve,
                         predict_parallel, read_manifest, scene_for_colour,
                         split_dataset, train_svm, write_cloud)
from peduncleseg.features import FeatureMatrix


def _verdict(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


def _cloud(xyz):
    return PointCloud(np.asarray(xyz, dtype=np.float64),
                      np.zeros((len(xyz), 3), dtype=np.uint8),
                      np.full(len(xyz), -1, dtype=np.int8))


# --- independent oracles (transcribed from the raw definitions) ------------

def _oracle_pair(p1, n1, p2, n2):
    d = p2 - p1
    dist = np.linalg.norm(d)
    u_hat = d / dist
    if abs(np.dot(n2, u_hat)) > abs(np.dot(n1, u_hat)):
        p1, p2, n1, n2, u_hat = p2, p1, n2, n1, -u_hat
    cu = np.cross(n1, u_hat)
    if np.linalg.norm(cu) < 1e-12:
        return None
    v = cu / np.linalg.norm(cu)
    w = np.cross(n1, v)
    return (np.dot(v, n2), np.dot(n1, u_hat),
            math.atan2(np.dot(w, n2), np.dot(n1, n2)))


def _oracle_histogram(points, normals, centre_idx, radius):
    dist = np.linalg.norm(points - points[centre_idx], axis=1)
    members = np.flatnonzero(dist <= radius)
    counts = np.zeros(33)
    npairs = 0
    for a in range(len(members)):
        for b in range(a + 1, len(members)):
            i, j = members[a], members[b]
            quad = _oracle_pair(points[i], normals[i], points[j], normals[j])
            if quad is None:
                continue
            alpha, phi, theta = quad
            counts[min(int((alpha + 1) / 2 * 11), 10)] += 1
            counts[11 + min(int((phi + 1) / 2 * 11), 10)] += 1
            counts[22 + min(int((theta + math.pi) / (2 * math.pi) * 11), 10)] += 1
            npairs += 1
    return counts / max(npairs, 1), npairs


def _project_feasible(z, y, c):
    lo = -(np.abs(z).max() + c + 1.0)
    hi = -lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:   # the interval holds no float between
            break
        if float(y @ np.clip(z - mid * y, 0.0, c)) > 0.0:
            lo = mid
        else:
            hi = mid
    return np.clip(z - 0.5 * (lo + hi) * y, 0.0, c)


def _qp_oracle(k_mat, y, c, iters=30000):
    q = (y[:, None] * k_mat) * y[None, :]
    step = 1.0 / max(float(np.linalg.eigvalsh(q).max()), 1e-12)
    alpha = _project_feasible(np.zeros(len(y)), y, c)
    for _ in range(iters):
        new = _project_feasible(alpha - step * (q @ alpha - 1.0), y, c)
        if np.abs(new - alpha).max() < 1e-14:
            alpha = new
            break
        alpha = new
    return alpha, float(alpha.sum() - 0.5 * alpha @ q @ alpha)


def _gram(x, kernel):
    if kernel.kind == "linear":
        return x @ x.T
    sq = (x ** 2).sum(axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2 * x @ x.T, 0.0)
    return np.exp(-kernel.gamma * d2)


# --- criteria ---------------------------------------------------------------

def test_criterion_1_sphere_normal_accuracy(rng):
    radius = 0.04
    dirs = rng.normal(size=(6000, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    cloud = _cloud(radius * dirs)

    start = time.perf_counter()
    index = build_index(cloud)
    normals = estimate_normals(cloud, index, NormalParams(radius_rn=0.01))
    elapsed = time.perf_counter() - start

    assert np.all(normals.valid)
    cosang = np.abs(np.einsum("ij,ij->i", normals.normals, dirs)).clip(0, 1)
    mean_deg = float(np.degrees(np.arccos(cosang)).mean())
    _verdict(1, mean_deg < 2.0 and elapsed < 5.0,
             f"mean angular error {mean_deg:.3f} deg (< 2), "
             f"runtime {elapsed:.2f} s (< 5), 6000 samples")


def test_criterion_2_pfh_oracle_and_rigid_invariance(rng):
    worst_oracle = 0.0
    for _ in range(20):
        xyz = rng.normal(size=(15, 3)) * 0.02
        normals = rng.normal(size=(15, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        ns = NormalSet(normals, np.ones(15, dtype=bool))
        cloud = _cloud(xyz)
        hist = compute_pfh(0, cloud, ns, build_index(cloud), 1.0)
        want, npairs = _oracle_histogram(xyz, normals, 0, 1.0)
        assert hist.pair_count == npairs
        worst_oracle = max(worst_oracle, float(np.abs(hist.bins - want).max()))

    worst_rigid = 0.0
    waived = 0
    for _ in range(50):
        xyz = rng.normal(size=(12, 3)) * 0.02
        normals = rng.normal(size=(12, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        q_mat, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(q_mat) < 0:
            q_mat[:, 0] *= -1
        shift = rng.normal(size=3)
        ns_a = NormalSet(normals, np.ones(12, dtype=bool))
        ns_b = NormalSet(normals @ q_mat.T, np.ones(12, dtype=bool))
        ha = compute_pfh(0, _cloud(xyz), ns_a, build_index(_cloud(xyz)), 1.0)
        cloud_b = _cloud(xyz @ q_mat.T + shift)
        hb = compute_pfh(0, cloud_b, ns_b, build_index(cloud_b), 1.0)
        diff = float(np.abs(ha.bins - hb.bins).max())
        if diff > 1e-6:
            # a quadruplet within float fuzz of a bin boundary may hop bins
            assert diff * ha.pair_count <= 2 + 1e-9
            waived += 1
        else:
            worst_rigid = max(worst_rigid, diff)
    _verdict(2, worst_oracle <= 1e-9,
             f"oracle max dev {worst_oracle:.2e} (<= 1e-9) over 20 "
             f"neighbourhoods; rigid max dev {worst_rigid:.2e} (<= 1e-6) "
             f"over 50 clouds, {waived} boundary-hop waivers")


def test_criterion_3_plane_signature():
    side = np.arange(-12, 13) * 0.002
    gx, gy = np.meshgrid(side, side)
    xyz = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])
    cloud = _cloud(xyz)
    index = build_index(cloud)
    normals = estimate_normals(
        cloud, index, NormalParams(radius_rn=0.01, viewpoint=[0, 0, 1.0]))
    assert np.all(normals.valid)

    centre = int(np.argmin(np.linalg.norm(xyz, axis=1)))
    hist = compute_pfh(centre, cloud, normals, index, 0.01)
    mask = np.zeros(33, dtype=bool)
    mask[[5, 16, 27]] = True
    ok = (hist.pair_count > 0
          and np.all(hist.bins[mask] == 1.0)
          and np.all(hist.bins[~mask] == 0.0))
    _verdict(3, ok,
             f"all mass exactly in bins 5/16/27 over {hist.pair_count} pairs")


def test_criterion_4_smo_against_qp_oracle(rng):
    worst_obj = 0.0
    for trial in range(10):
        n = int(rng.integers(8, 21))
        # zero columns up to the full set's 36 scale to zero: the problem
        # is that of the 4 random columns
        x = np.pad(rng.normal(size=(n, 4)), ((0, 0), (0, 32)))
        labels = np.zeros(n, dtype=np.int8)
        labels[rng.permutation(n)[:n // 2]] = 1
        kernel = KernelSpec("rbf", 0.5) if trial % 2 else \
            KernelSpec("linear", None)
        config = TrainConfig(kernel=kernel, c=10.0, tolerance=1e-6,
                             max_passes=1000)
        fm = FeatureMatrix(x, labels, np.ones(n, dtype=bool))
        model = train_svm(fm, config)

        xs = model.scaling.apply(x)
        y = np.where(labels == 1, 1.0, -1.0)
        k_mat = _gram(xs, kernel)
        alpha_star, obj_star = _qp_oracle(k_mat, y, config.c)
        worst_obj = max(worst_obj,
                        abs(model.meta["dual_objective"] - obj_star))
        assert abs(model.meta["dual_objective"] - obj_star) <= 1e-3

        ky = k_mat @ (alpha_star * y)
        free = (alpha_star > 1e-6) & (alpha_star < config.c - 1e-6)
        bias = float(np.mean(y[free] - ky[free])) if free.any() \
            else float(np.mean(y - ky))
        assert np.array_equal(np.sign(decision_scores(model, x)),
                              np.sign(ky + bias))

        # each support vector is exactly one row of the scaled matrix
        same = (model.support_vectors[:, None, :] == xs[None, :, :]).all(axis=2)
        assert np.all(same.sum(axis=1) == 1)
        # KKT at 1e-3: margins sorted by the alpha box position
        alpha = np.zeros(n)
        alpha[same.argmax(axis=1)] = np.abs(model.dual_coefs)
        margins = y * (k_mat @ (alpha * y) + model.bias)
        at_zero = alpha <= 1e-9
        at_c = alpha >= config.c - 1e-9
        free = ~at_zero & ~at_c
        assert np.all(margins[at_zero] >= 1.0 - 1e-3)
        assert np.all(margins[at_c] <= 1.0 + 1e-3)
        assert np.all(np.abs(margins[free] - 1.0) <= 1e-3)

    xor = FeatureMatrix(
        np.pad([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]],
               ((0, 0), (0, 34))),
        np.array([0, 0, 1, 1], dtype=np.int8), np.ones(4, dtype=bool))
    rbf = train_svm(xor, TrainConfig(kernel=KernelSpec("rbf", 1.0), c=100.0,
                                     tolerance=1e-6, max_passes=1000))
    lin = train_svm(xor, TrainConfig(kernel=KernelSpec("linear", None),
                                     c=100.0, tolerance=1e-6,
                                     max_passes=1000))
    rbf_acc = float(((decision_scores(rbf, xor.values) > 0)
                     == (xor.labels == 1)).mean())
    lin_acc = float(((decision_scores(lin, xor.values) > 0)
                     == (xor.labels == 1)).mean())
    _verdict(4, rbf_acc == 1.0 and lin_acc <= 0.75,
             f"dual objective worst dev {worst_obj:.2e} (<= 1e-3) over 10 "
             f"sets, signs + KKT hold; XOR accuracy rbf {rbf_acc:.2f} "
             f"(= 1.0) vs linear {lin_acc:.2f} (<= 0.75)")


def _scene_manifest(base_dir, colour, seed0, n_scenes=2):
    base_dir.mkdir(parents=True, exist_ok=True)
    base = SceneSpec(seed=seed0)
    entries = []
    for i in range(n_scenes):
        cloud = generate_scene(scene_for_colour(base, colour, i))
        name = f"{colour}-{seed0 + i}.cloud"
        write_cloud(cloud, base_dir / name)
        entries.append(ManifestEntry(name, name[:-6], 1 + i % 2, colour))
    return DatasetManifest(entries, base_dir=base_dir)


def test_criterion_5_detection_quality(tmp_path):
    cfg = PipelineConfig()
    start = time.perf_counter()

    red_train = _scene_manifest(tmp_path / "red", "red", 0)
    red_test = _scene_manifest(tmp_path / "red", "red", 2)
    model_red = train_svm(assemble_training_matrix(red_train, cfg), cfg.train)
    auc_red = evaluate(model_red, red_test, cfg)[0].auc

    green_train = _scene_manifest(tmp_path / "green", "green", 0)
    green_test = _scene_manifest(tmp_path / "green", "green", 2)
    model_full = train_svm(assemble_training_matrix(green_train, cfg),
                           cfg.train)
    hsv_cfg = replace(cfg.train, feature_set="hsv")
    model_hsv = train_svm(
        assemble_training_matrix(green_train, cfg, hsv_cfg), hsv_cfg)
    auc_full = evaluate(model_full, green_test, cfg)[0].auc
    auc_hsv = evaluate(model_hsv, green_test, cfg)[0].auc

    elapsed = time.perf_counter() - start
    _verdict(5, auc_red >= 0.95 and auc_full - auc_hsv >= 0.10
             and elapsed < 120.0,
             f"red AUC {auc_red:.3f} (>= 0.95); green full {auc_full:.3f} "
             f"vs hsv {auc_hsv:.3f}, margin {auc_full - auc_hsv:.3f} "
             f"(>= 0.10); 8 scenes end to end in {elapsed:.1f} s (< 120)")


def test_criterion_6_parallel_prediction(rng):
    sv = rng.normal(size=(1000, 36))
    model = SvmModel(
        kernel=KernelSpec("rbf", 0.1), c=10.0,
        scaling=ScalingStats(np.zeros(36), np.ones(36)),
        support_vectors=sv, dual_coefs=rng.normal(size=1000), bias=0.1)
    x = rng.normal(size=(50000, 36))

    runs = {w: predict_parallel(model, x, w) for w in (1, 2, 4, 8)}
    identical = all(
        np.array_equal(runs[w][0], runs[1][0])
        and np.array_equal(runs[w][1], runs[1][1]) for w in (2, 4, 8))
    assert identical
    speedup = runs[1][2] / runs[4][2] if runs[4][2] > 0 else float("inf")
    ncpu = os.cpu_count()
    _verdict(6, identical,
             f"labels/scores bit-identical for workers 1/2/4/8 on 50k "
             f"points x 1000 SVs; 4-worker speedup {speedup:.2f}x on a "
             f"{ncpu}-cpu host (>= 2.5x expected on 4 cores; reported, "
             f"not gating)")


def test_criterion_7_split_arithmetic():
    entries = [ManifestEntry(f"s{i}.cloud", f"s{i}", 1 + i % 2, "red")
               for i in range(72)]
    manifest = DatasetManifest(entries, base_dir=".")
    half = split_dataset(manifest, SplitSpec(train_fraction=0.5))
    skew = split_dataset(manifest, SplitSpec(train_fraction=0.79))
    counts = (len(half[0].entries), len(half[1].entries),
              len(skew[0].entries), len(skew[1].entries))
    _verdict(7, counts == (36, 36, 57, 15),
             f"72 entries -> {counts[0]}/{counts[1]} at 0.5 and "
             f"{counts[2]}/{counts[3]} at 0.79")


def test_criterion_8_auc_invariants(rng):
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(6, 60))
        labels = rng.integers(0, 2, size=n)
        labels[0], labels[1] = 0, 1   # both classes present
        scores = np.round(rng.normal(size=n), 3)
        base = auc(pr_curve(scores, labels))
        for transform in (lambda s: 3.0 * s + 11.0, np.arctan,
                          lambda s: s ** 3):
            dev = abs(auc(pr_curve(transform(scores), labels)) - base)
            worst = max(worst, dev)
            assert dev <= 1e-12
        perm = rng.permutation(n)
        assert auc(pr_curve(scores[perm], labels[perm])) == base

    labels = np.array([1, 0, 1, 0, 0, 1])
    perfect = auc(pr_curve(labels.astype(float), labels))
    _verdict(8, perfect == 1.0,
             f"monotone-transform worst dev {worst:.2e} (<= 1e-12) and "
             f"joint-permutation exact over 100 cases; perfect ranking "
             f"AUC == {perfect}")


def test_criterion_9_field_dataset_optional():
    path = os.environ.get("PEDUNCLESEG_FIELD_DATASET")
    if not path:
        print("criterion 9: SKIP (set PEDUNCLESEG_FIELD_DATASET to a "
              "labelled field manifest to run; non-gating)", flush=True)
        pytest.skip("field dataset not available")
    cfg = PipelineConfig()
    manifest = read_manifest(path)
    train, test = split_dataset(manifest, SplitSpec(train_fraction=0.5))
    model = train_svm(assemble_training_matrix(train, cfg), cfg.train)
    overall = evaluate(model, test, cfg)[0].auc
    in_band = abs(overall - 0.71) <= 0.05
    # dataset-dependent: reported, never gating
    print(f"criterion 9: {'PASS' if in_band else 'REPORT'} (overall AUC "
          f"{overall:.3f}, target 0.71 +/- 0.05; non-gating)", flush=True)
