import colorsys
import math

import numpy as np
import pytest

from peduncleseg import (FeatureMatrix, NormalParams, NormalSet,
                         PipelineConfig, PointCloud, SceneSpec, SpatialIndex,
                         TrainConfig, assemble_training_matrix, build_index,
                         compute_pfh, estimate_normals, extract_features,
                         generate_scene, predict_parallel, rgb_to_hsv,
                         scene_features, select_features, train_svm)
from peduncleseg import _kernels
from peduncleseg.features import FEATURE_DIM, FEATURE_SLICES, HIST_BINS

from clouds import clustered_scene, edge_case_scene, record_calls, scene
from darboux import DegeneratePairError, darboux_features


def cloud_from(xyz, rgb=None, labels=None):
    xyz = np.asarray(xyz, dtype=np.float64)
    n = len(xyz)
    if rgb is None:
        rgb = np.zeros((n, 3), dtype=np.uint8)
    if labels is None:
        labels = np.full(n, -1, dtype=np.int8)
    return PointCloud(xyz, np.asarray(rgb, dtype=np.uint8),
                      np.asarray(labels, dtype=np.int8))


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# independent oracle: literal transcription of the Darboux-frame definition,
# written against the raw formulas and not sharing any package code
# ---------------------------------------------------------------------------

def oracle_pair(p1, n1, p2, n2):
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
            math.atan2(np.dot(w, n2), np.dot(n1, n2)), dist)


def oracle_histogram(points, normals, valid, centre_idx, radius):
    """Brute-force PFH: enumerate pairs, bin, normalize per block."""
    if not valid[centre_idx]:
        return np.zeros(33), 0
    dist = np.linalg.norm(points - points[centre_idx], axis=1)
    members = [i for i in np.flatnonzero(dist <= radius) if valid[i]]
    counts = np.zeros(33)
    npairs = 0
    for a in range(len(members)):
        for b in range(a + 1, len(members)):
            i, j = members[a], members[b]
            if np.array_equal(points[i], points[j]):
                continue
            quad = oracle_pair(points[i], normals[i], points[j], normals[j])
            if quad is None:
                continue
            alpha, phi, theta, _d = quad
            ba = min(int((alpha + 1) / 2 * 11), 10)
            bp = min(int((phi + 1) / 2 * 11), 10)
            bt = min(int((theta + math.pi) / (2 * math.pi) * 11), 10)
            counts[ba] += 1
            counts[11 + bp] += 1
            counts[22 + bt] += 1
            npairs += 1
    if npairs:
        counts /= npairs
    return counts, npairs


class TestDarboux:
    def test_matches_oracle_on_random_pairs(self, rng):
        for _ in range(200):
            p1, p2 = rng.normal(size=(2, 3))
            n1, n2 = (unit(v) for v in rng.normal(size=(2, 3)))
            got = darboux_features(p1, n1, p2, n2)
            want = oracle_pair(p1, n1, p2, n2)
            assert want is not None
            assert got.alpha == pytest.approx(want[0], abs=1e-12)
            assert got.phi == pytest.approx(want[1], abs=1e-12)
            assert got.theta == pytest.approx(want[2], abs=1e-12)
            assert got.distance == pytest.approx(want[3], abs=1e-12)

    def test_symmetric_in_argument_order_off_ties(self, rng):
        for _ in range(100):
            p1, p2 = rng.normal(size=(2, 3))
            n1, n2 = (unit(v) for v in rng.normal(size=(2, 3)))
            d_hat = unit(p2 - p1)
            if abs(abs(n1 @ d_hat) - abs(n2 @ d_hat)) < 1e-6:
                continue  # source choice ambiguous only on exact ties
            a = darboux_features(p1, n1, p2, n2)
            b = darboux_features(p2, n2, p1, n1)
            assert a == b

    def test_tie_takes_first_argument_as_source(self):
        # both normals at 45 degrees to the join line, mirrored: exact tie
        p1, p2 = np.zeros(3), np.array([1.0, 0, 0])
        n1 = unit([1.0, 1.0, 0.0])
        n2 = unit([-1.0, 1.0, 0.0])
        got = darboux_features(p1, n1, p2, n2)
        # source = first argument, so phi = n1 . u with u = +x
        assert got.phi == pytest.approx(n1[0])
        swapped = darboux_features(p2, n2, p1, n1)
        assert swapped.phi == pytest.approx(n2 @ np.array([-1.0, 0, 0]))

    def test_angle_ranges(self, rng):
        for _ in range(300):
            p1, p2 = rng.normal(size=(2, 3))
            n1, n2 = (unit(v) for v in rng.normal(size=(2, 3)))
            q = darboux_features(p1, n1, p2, n2)
            assert -1 <= q.alpha <= 1
            assert -1 <= q.phi <= 1
            assert -math.pi <= q.theta <= math.pi
            assert q.distance > 0

    def test_coincident_points_error(self):
        with pytest.raises(DegeneratePairError):
            darboux_features([0, 0, 0], [0, 0, 1], [0, 0, 0], [0, 0, 1])

    def test_parallel_normal_error(self):
        with pytest.raises(DegeneratePairError):
            darboux_features([0, 0, 0], [1, 0, 0], [1, 0, 0], [0, 1, 0])

    def test_coplanar_points_on_plane_give_zero_angles(self):
        q = darboux_features([0, 0, 0], [0, 0, 1], [0.3, 0.4, 0], [0, 0, 1])
        assert q.alpha == pytest.approx(0.0, abs=1e-15)
        assert q.phi == pytest.approx(0.0, abs=1e-15)
        assert q.theta == pytest.approx(0.0, abs=1e-15)


class TestPfh:
    def make_scene(self, rng, n=15):
        xyz = rng.normal(size=(n, 3)) * 0.01
        normals = rng.normal(size=(n, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        valid = np.ones(n, dtype=bool)
        return xyz, normals, valid

    def test_matches_brute_force_oracle(self, rng):
        from peduncleseg.geometry import NormalSet

        for trial in range(20):
            xyz, normals, valid = self.make_scene(rng)
            if trial % 3 == 0:
                valid[rng.integers(0, len(valid), 3)] = False
            cloud = cloud_from(xyz)
            ns = NormalSet(normals, valid)
            index = build_index(cloud)
            radius = float(rng.uniform(0.01, 0.05))
            q = int(rng.integers(0, len(xyz)))
            got = compute_pfh(q, cloud, ns, index, radius)
            want_bins, want_pairs = oracle_histogram(xyz, normals, valid, q,
                                                     radius)
            assert got.pair_count == want_pairs
            assert np.abs(got.bins - want_bins).max() <= 1e-9

    def test_blocks_sum_to_one(self, rng):
        from peduncleseg.geometry import NormalSet

        xyz, normals, valid = self.make_scene(rng, n=30)
        cloud = cloud_from(xyz)
        ns = NormalSet(normals, valid)
        hist = compute_pfh(3, cloud, ns, build_index(cloud), 0.05)
        assert hist.pair_count > 0
        for block in range(3):
            assert hist.bins[block * 11:(block + 1) * 11].sum() == \
                pytest.approx(1.0, abs=1e-12)

    def test_invalid_query_gives_zero_histogram(self, rng):
        from peduncleseg.geometry import NormalSet

        xyz, normals, valid = self.make_scene(rng)
        valid[4] = False
        cloud = cloud_from(xyz)
        ns = NormalSet(normals, valid)
        hist = compute_pfh(4, cloud, ns, build_index(cloud), 0.05)
        assert hist.pair_count == 0
        assert np.all(hist.bins == 0.0)

    def test_out_of_range_query_rejected(self, rng):
        from peduncleseg.geometry import NormalSet

        xyz, normals, valid = self.make_scene(rng)
        cloud = cloud_from(xyz)
        ns = NormalSet(normals, valid)
        with pytest.raises(IndexError):
            compute_pfh(99, cloud, ns, build_index(cloud), 0.05)

    def test_index_of_another_cloud_rejected(self, rng):
        from peduncleseg.geometry import NormalSet

        xyz, normals, valid = self.make_scene(rng)
        cloud = cloud_from(xyz)
        ns = NormalSet(normals, valid)
        other = build_index(cloud_from(xyz[:-1]))
        with pytest.raises(ValueError, match="disagree"):
            compute_pfh(0, cloud, ns, other, 0.05)
        with pytest.raises(ValueError, match="disagree"):
            extract_features(cloud, ns, other, 0.05)

    def test_rigid_motion_invariance(self, rng):
        from peduncleseg.geometry import NormalSet

        for _ in range(50):
            xyz, normals, valid = self.make_scene(rng, n=12)
            # random rotation via QR of a Gaussian matrix
            q_mat, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            if np.linalg.det(q_mat) < 0:
                q_mat[:, 0] *= -1
            shift = rng.normal(size=3)
            cloud_a = cloud_from(xyz)
            cloud_b = cloud_from(xyz @ q_mat.T + shift)
            ns_a = NormalSet(normals, valid)
            ns_b = NormalSet(normals @ q_mat.T, valid)
            ha = compute_pfh(0, cloud_a, ns_a, build_index(cloud_a), 0.04)
            hb = compute_pfh(0, cloud_b, ns_b, build_index(cloud_b), 0.04)
            assert ha.pair_count == hb.pair_count
            # tolerance course: values near a bin edge may legitimately hop
            diff = np.abs(ha.bins - hb.bins).max()
            if diff > 1e-6:
                # accept only if some angle sits within float fuzz of an edge
                assert diff * ha.pair_count <= 2 + 1e-9
            else:
                assert diff <= 1e-6

    def test_plane_concentrates_in_zero_bins(self, rng):
        from peduncleseg.geometry import NormalSet

        xy = rng.uniform(-0.02, 0.02, size=(60, 2))
        xyz = np.column_stack([xy, np.zeros(60)])
        cloud = cloud_from(xyz)
        ns = NormalSet(np.tile([0.0, 0.0, 1.0], (60, 1)),
                       np.ones(60, dtype=bool))
        hist = compute_pfh(0, cloud, ns, build_index(cloud), 0.05)
        assert hist.pair_count > 0
        assert hist.bins[5] == 1.0
        assert hist.bins[16] == 1.0
        assert hist.bins[27] == 1.0
        mask = np.ones(33, dtype=bool)
        mask[[5, 16, 27]] = False
        assert np.all(hist.bins[mask] == 0.0)


class TestColour:
    def test_matches_colorsys_exhaustive_sample(self):
        triples = [(r, g, b)
                   for r in range(0, 256, 51)
                   for g in range(0, 256, 51)
                   for b in range(0, 256, 51)]
        arr = rgb_to_hsv(np.array(triples, dtype=np.uint8))
        for (r, g, b), got in zip(triples, arr):
            want = colorsys.rgb_to_hsv(r / 255.0, g / 255.0, b / 255.0)
            assert np.abs(got - want).max() < 1e-9

    def test_known_values(self):
        assert np.allclose(rgb_to_hsv([255, 0, 0]), [0.0, 1.0, 1.0])
        assert np.allclose(rgb_to_hsv([0, 128, 0]), [1 / 3, 1.0, 128 / 255])
        assert np.allclose(rgb_to_hsv([0, 0, 0]), [0.0, 0.0, 0.0])
        assert np.allclose(rgb_to_hsv([77, 77, 77]), [0.0, 0.0, 77 / 255])

    def test_round_trip_through_inverse(self, rng):
        rgb = rng.integers(0, 256, size=(300, 3)).astype(np.uint8)
        back = np.array([colorsys.hsv_to_rgb(*hsv)
                         for hsv in rgb_to_hsv(rgb)]) * 255.0
        assert np.abs(back - rgb).max() < 1e-6

    def test_grey_has_zero_saturation_and_hue(self, rng):
        grey = np.repeat(rng.integers(0, 256, size=(50, 1)), 3, axis=1)
        hsv = rgb_to_hsv(grey.astype(np.uint8))
        assert np.all(hsv[:, 0] == 0.0)
        assert np.all(hsv[:, 1] == 0.0)


class TestExtractFeatures:
    def build(self, rng, n=120):
        xyz = rng.normal(size=(n, 3)) * 0.02
        rgb = rng.integers(0, 256, size=(n, 3)).astype(np.uint8)
        labels = (rng.random(n) > 0.5).astype(np.int8)
        cloud = cloud_from(xyz, rgb=rgb, labels=labels)
        index = build_index(cloud)
        normals = estimate_normals(cloud, index, NormalParams(radius_rn=0.015))
        return cloud, index, normals

    def test_shape_and_alignment(self, rng):
        cloud, index, normals = self.build(rng)
        fm = extract_features(cloud, normals, index, 0.015)
        assert fm.values.shape == (len(cloud), FEATURE_DIM)
        assert np.array_equal(fm.labels, cloud.labels)
        assert np.array_equal(fm.values[:, :3], rgb_to_hsv(cloud.rgb))

    @pytest.mark.parametrize("radius", [0.0, -0.01])
    def test_radius_must_be_positive(self, rng, radius):
        cloud, index, normals = self.build(rng, n=30)
        for feature_set in FEATURE_SLICES:   # hsv takes the _scorable path
            with pytest.raises(ValueError, match="radius_ri must be > 0"):
                extract_features(cloud, normals, index, radius, feature_set)
        with pytest.raises(ValueError, match="radius_ri must be > 0"):
            compute_pfh(0, cloud, normals, index, radius)

    def test_rows_match_single_point_op(self, rng):
        cloud, index, normals = self.build(rng, n=60)
        fm = extract_features(cloud, normals, index, 0.02)
        for q in [0, 17, 59]:
            hist = compute_pfh(q, cloud, normals, index, 0.02)
            assert np.abs(fm.values[q, 3:] - hist.bins).max() <= 1e-12

    def test_invalid_rows_flagged_with_zero_pfh(self, rng):
        xyz = np.vstack([rng.normal(size=(40, 3)) * 0.01, [[5.0, 5, 5]]])
        cloud = cloud_from(xyz, rgb=np.full((41, 3), 10))
        index = build_index(cloud)
        normals = estimate_normals(cloud, index, NormalParams(radius_rn=0.01))
        fm = extract_features(cloud, normals, index, 0.01)
        assert not fm.valid[40]              # isolated point
        assert np.all(fm.values[40, 3:] == 0.0)
        assert np.any(fm.values[40, :3] > 0)  # hsv still present

    def test_shared_csr_gives_fresh_index_features(self):
        # scene_features shares one index, and so one CSR, between normals
        # and PFH (radius_rn == radius_ri by default)
        cfg = PipelineConfig()
        assert cfg.normals.radius_rn == cfg.radius_ri
        cloud = generate_scene(SceneSpec(points_body=900, points_peduncle=200,
                                         seed=4))
        sampled, fm = scene_features(cloud, cfg)
        normals = estimate_normals(sampled, build_index(sampled), cfg.normals)
        fresh = extract_features(sampled, normals, build_index(sampled),
                                 cfg.radius_ri)
        assert np.array_equal(fm.values, fresh.values)
        assert np.array_equal(fm.valid, fresh.valid)

    def test_select_features_slices(self, rng):
        cloud, index, normals = self.build(rng, n=40)
        fm = extract_features(cloud, normals, index, 0.02)
        assert select_features(fm, "hsv").values.shape[1] == 3
        assert select_features(fm, "pfh").values.shape[1] == HIST_BINS
        assert select_features(fm, "full").values.shape[1] == FEATURE_DIM
        assert np.array_equal(select_features(fm, "pfh").values,
                              fm.values[:, 3:])
        with pytest.raises(ValueError):
            select_features(fm, "hsvpfh")


def isolated_scene(rng):
    """A kernel scene (see ``clouds``) where some points have no neighbour
    in radius, two have each other, and one has only a neighbour whose
    normal is invalid."""
    xyz = np.vstack([rng.normal(size=(30, 3)) * 0.01,
                     [[1.0, 0, 0], [2.0, 0, 0], [2.004, 0, 0], [3.0, 0, 0],
                      [4.0, 0, 0], [4.004, 0, 0]]])
    normals = rng.normal(size=xyz.shape)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    valid = np.ones(len(xyz), dtype=bool)
    valid[-1] = False
    return (xyz, normals, valid,
            *SpatialIndex(xyz).radius_neighbors_csr(0.01), 0.01)


def fallback_scene(_rng):
    """A kernel scene where point 0 lies on its own normal's line (z) with
    two neighbours on that line whose normals are x and y: both its own
    pairs bin to _SKIP, and the pair of its two neighbours does not."""
    xyz = np.array([[0.0, 0, 0], [0, 0, 0.002], [0, 0, 0.004]])
    normals = np.eye(3)[[2, 0, 1]]
    return (xyz, normals, np.ones(3, dtype=bool),
            *SpatialIndex(xyz).radius_neighbors_csr(0.01), 0.01)


class TestFeatureSets:
    """extract_features returns only the named set's columns and flags the
    same rows valid in every set."""

    @staticmethod
    def features(build, rng, feature_set):
        xyz, normals, valid, _idx, _off, radius = build(rng)
        rgb = rng.integers(0, 256, size=xyz.shape).astype(np.uint8)
        cloud = cloud_from(xyz, rgb=rgb)
        return extract_features(cloud, NormalSet(normals, valid),
                                SpatialIndex(xyz), radius, feature_set)

    @pytest.mark.parametrize("build", [scene, edge_case_scene, clustered_scene,
                                       isolated_scene, fallback_scene])
    @pytest.mark.parametrize("feature_set", ["hsv", "pfh"])
    def test_valid_and_columns_match_full(self, build, feature_set):
        full = self.features(build, np.random.default_rng(7), "full")
        part = self.features(build, np.random.default_rng(7), feature_set)
        assert np.array_equal(part.valid, full.valid)
        assert np.array_equal(part.values,
                              full.values[:, FEATURE_SLICES[feature_set]])

    def test_isolated_points_are_invalid(self, rng):
        fm = self.features(isolated_scene, rng, "hsv")
        assert fm.valid[30:].tolist() == [False, True, True, False, False,
                                          False]

    def test_fallback_counts_only_unmarked_points(self, rng, monkeypatch):
        calls = record_calls(monkeypatch, _kernels, "pfh_pair_histograms")
        fm = self.features(fallback_scene, rng, "hsv")
        assert fm.valid.all()
        assert [args[-1].tolist() for args in calls] == [[0]]

    def test_hsv_scene_never_counts_every_query(self, monkeypatch):
        calls = record_calls(monkeypatch, _kernels, "pfh_pair_histograms")
        sampled, fm = scene_features(generate_scene(SceneSpec(seed=3)),
                                     PipelineConfig(), "hsv")
        assert fm.values.shape == (len(sampled), 3)
        assert all(args[-1].size < len(sampled) for args in calls)

    @staticmethod
    def labelled(fm):
        """fm with alternating labels on its valid rows, as a training pool."""
        labels = (np.arange(len(fm)) % 2).astype(np.int8)
        return FeatureMatrix(fm.values[fm.valid], labels[fm.valid],
                             fm.valid[fm.valid])

    def test_full_model_rejects_hsv_rows(self):
        full = self.features(scene, np.random.default_rng(7), "full")
        hsv = self.features(scene, np.random.default_rng(7), "hsv")
        model = train_svm(self.labelled(full), TrainConfig(max_passes=1))
        assert len(predict_parallel(model, full)[0]) == len(full)
        with pytest.raises(ValueError, match="dimension 3, model expects 36"):
            predict_parallel(model, hsv)

    @pytest.mark.parametrize("feature_set", ["full", "hsv"])
    def test_training_pool_needs_full_rows(self, feature_set):
        hsv = self.features(scene, np.random.default_rng(7), "hsv")
        with pytest.raises(ValueError, match="got 3 columns"):
            assemble_training_matrix(self.labelled(hsv), PipelineConfig(),
                                     TrainConfig(feature_set=feature_set))

    @pytest.mark.parametrize("subset", ["full", "hsv", "pfh"])
    def test_select_features_needs_full_rows(self, subset):
        pfh = self.features(scene, np.random.default_rng(7), "pfh")
        with pytest.raises(ValueError, match="got 33 columns"):
            select_features(pfh, subset)

    def test_unknown_set_rejected(self, rng):
        with pytest.raises(ValueError, match="hsvpfh"):
            self.features(scene, rng, "hsvpfh")
