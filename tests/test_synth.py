import math
import re

import numpy as np
import pytest

from peduncleseg import (DatasetRequest, SceneSpec, SceneSpecError,
                         generate_scene, load_scene_request, scene_for_colour)


class TestSceneSpec:
    def test_defaults_valid(self):
        spec = SceneSpec()
        assert spec.body_radius == 0.04
        assert spec.points_body == 5000 and spec.points_peduncle == 1000

    @pytest.mark.parametrize("kwargs", [
        {"body_radius": 0.0},
        {"peduncle_radius": -0.001},
        {"peduncle_length": 0.0},
        {"peduncle_curvature": -1.0},
        {"body_hue": 1.5},
        {"peduncle_hue": -0.1},
        {"colour_noise_std": -1.0},
        {"position_noise_std": -0.1},
        {"points_body": 0},
        {"points_peduncle": 0},
        {"peduncle_curvature": 250.0, "peduncle_length": 0.03},  # wraps
        {"body_radius": math.nan},
        {"peduncle_length": math.inf},
        {"peduncle_curvature": math.nan},
        {"position_noise_std": math.inf},
    ])
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(SceneSpecError):
            SceneSpec(**kwargs)


class TestGenerateScene:
    def test_count_law(self):
        cloud = generate_scene(SceneSpec(points_body=5000,
                                         points_peduncle=1000, seed=1))
        assert len(cloud) == 6000
        assert int((cloud.labels == 1).sum()) == 1000
        assert int((cloud.labels == 0).sum()) == 5000

    def test_determinism_bit_identical(self):
        spec = SceneSpec(points_body=500, points_peduncle=100, seed=42)
        a = generate_scene(spec)
        b = generate_scene(spec)
        assert np.array_equal(a.xyz, b.xyz)
        assert np.array_equal(a.rgb, b.rgb)
        assert np.array_equal(a.labels, b.labels)
        c = generate_scene(SceneSpec(points_body=500, points_peduncle=100,
                                     seed=43))
        assert not np.array_equal(a.xyz, c.xyz)

    def test_zero_noise_body_on_sphere_and_red(self):
        spec = SceneSpec(points_body=800, points_peduncle=150,
                         colour_noise_std=0.0, position_noise_std=0.0, seed=7)
        cloud = generate_scene(spec)
        body = cloud.xyz[cloud.labels == 0]
        r = np.linalg.norm(body, axis=1)
        assert np.abs(r - spec.body_radius).max() <= 1e-9
        assert np.all(cloud.rgb[cloud.labels == 0] == (255, 0, 0))
        assert np.all(cloud.rgb[cloud.labels == 1] == (0, 255, 0))

    def test_zero_noise_straight_peduncle_is_cylinder(self):
        spec = SceneSpec(points_body=50, points_peduncle=400,
                         peduncle_curvature=0.0, colour_noise_std=0.0,
                         position_noise_std=0.0, seed=3)
        cloud = generate_scene(spec)
        ped = cloud.xyz[cloud.labels == 1]
        radial = np.hypot(ped[:, 0], ped[:, 1])
        assert np.abs(radial - spec.peduncle_radius).max() <= 1e-12
        assert ped[:, 2].min() >= spec.body_radius - spec.peduncle_radius - 1e-12
        assert ped[:, 2].max() <= spec.body_radius + spec.peduncle_length + 1e-12

    def test_zero_noise_curved_peduncle_on_arc_tube(self):
        spec = SceneSpec(points_body=50, points_peduncle=400,
                         peduncle_curvature=25.0, colour_noise_std=0.0,
                         position_noise_std=0.0, seed=5)
        cloud = generate_scene(spec)
        ped = cloud.xyz[cloud.labels == 1]
        # arc centre of curvature: pole + (1/kappa) * x_hat
        r_arc = 1.0 / spec.peduncle_curvature
        centre = np.array([r_arc, 0.0, spec.body_radius])
        # distance from the arc circle (in the y=const torus sense)
        in_plane = np.hypot(ped[:, 0] - centre[0], ped[:, 2] - centre[2])
        torus_dist = np.hypot(in_plane - r_arc, ped[:, 1])
        assert np.abs(torus_dist - spec.peduncle_radius).max() <= 1e-9

    def test_position_noise_perturbs(self):
        a = generate_scene(SceneSpec(points_body=200, points_peduncle=50,
                                     position_noise_std=0.0, seed=11))
        b = generate_scene(SceneSpec(points_body=200, points_peduncle=50,
                                     position_noise_std=0.002, seed=11))
        assert not np.array_equal(a.xyz, b.xyz)
        assert np.abs(a.xyz - b.xyz).max() < 0.02   # noise-scale shift

    def test_body_points_roughly_uniform(self):
        cloud = generate_scene(SceneSpec(points_body=20000,
                                         points_peduncle=1,
                                         position_noise_std=0.0, seed=2))
        body = cloud.xyz[cloud.labels == 0]
        dirs = body / np.linalg.norm(body, axis=1, keepdims=True)
        # octant counts should be near-uniform for uniform sphere sampling
        octant = (dirs[:, 0] > 0).astype(int) * 4 \
            + (dirs[:, 1] > 0).astype(int) * 2 + (dirs[:, 2] > 0).astype(int)
        counts = np.bincount(octant, minlength=8)
        assert counts.min() > 0.8 * counts.mean()
        assert counts.max() < 1.2 * counts.mean()


class TestColourTags:
    def test_red_and_green_presets(self):
        base = SceneSpec(seed=5)
        red = scene_for_colour(base, "red", 0)
        green = scene_for_colour(base, "green", 0)
        assert red.body_hue == 0.0
        assert green.body_hue == pytest.approx(1 / 3)

    def test_mixed_alternates(self):
        base = SceneSpec(seed=5)
        hues = [scene_for_colour(base, "mixed", i).body_hue for i in range(4)]
        assert hues == [0.0, pytest.approx(1 / 3), 0.0, pytest.approx(1 / 3)]

    def test_seed_offsets_by_index(self):
        base = SceneSpec(seed=5)
        assert scene_for_colour(base, "red", 3).seed == 8

    def test_unknown_tag_rejected(self):
        with pytest.raises(SceneSpecError):
            scene_for_colour(SceneSpec(), "blue", 0)


class TestSceneRequestFile:
    def test_parse_full_file(self, tmp_path):
        p = tmp_path / "spec.ini"
        p.write_text("[dataset]\n"
                     "scenes = 6\n"
                     "seed = 9\n"
                     "colour = green\n"
                     "prefix = cap\n"
                     "[scene]\n"
                     "points_body = 400\n"
                     "points_peduncle = 80\n"
                     "peduncle_curvature = 12.5\n")
        req = load_scene_request(p)
        assert req.scenes == 6
        assert req.colour == "green"
        assert req.prefix == "cap"
        assert req.base.seed == 9
        assert req.base.points_body == 400
        assert req.base.peduncle_curvature == 12.5

    def test_defaults_when_sections_sparse(self, tmp_path):
        p = tmp_path / "spec.ini"
        p.write_text("[dataset]\nscenes = 2\n")
        req = load_scene_request(p)
        assert req.scenes == 2 and req.colour == "red"
        assert req.base.points_body == 5000

    # each message is matched word for word; {path} is the file's path
    @pytest.mark.parametrize("text, message", [
        ("scenes = 2\n",                          # no section header
         "cannot parse scene spec {path}: File contains no section headers."),
        ("[dataset]\nscenes = two\n",             # bad int
         "[dataset] scenes = 'two': invalid literal for int() with base 10: "
         "'two'"),
        ("[dataset]\nscene_count = 2\n",          # unknown key
         "unknown key 'scene_count' in section [dataset]"),
        ("[weather]\nsun = 1\n",                  # unknown section
         "unknown scene spec section [weather]"),
        ("[scene]\nbody_radius = -1\n",           # invalid value
         "radii must be > 0"),
        ("[dataset]\nscenes = 0\n",               # invalid count
         "scenes must be >= 1"),
        ("[dataset]\ncolour = blue\n",            # unknown colour
         "unknown colour tag 'blue'"),
        ("[DEFAULT]\nscenes = 2\n",               # configparser's defaults
         "unknown scene spec section [DEFAULT]"),
    ])
    def test_malformed_files_rejected(self, tmp_path, text, message):
        p = tmp_path / "spec.ini"
        p.write_text(text)
        with pytest.raises(SceneSpecError,
                           match=re.escape(message.format(path=p))):
            load_scene_request(p)

    def test_request_validation(self):
        with pytest.raises(SceneSpecError):
            DatasetRequest(SceneSpec(), scenes=0, colour="red")
        with pytest.raises(SceneSpecError):
            DatasetRequest(SceneSpec(), scenes=2, colour="red",
                           prefix="a/b")
