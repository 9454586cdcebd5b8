import numpy as np
import pytest

from peduncleseg import (CloudFormatError, DatasetManifest, ManifestEntry,
                         ManifestError, PointCloud, read_cloud, read_manifest,
                         write_cloud, write_manifest)
from peduncleseg.cloud_io import _decode_packed_rgb

from clouds import random_cloud


def write_text(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestReadCloud:
    def test_plain_layout_with_labels(self, tmp_path):
        p = write_text(tmp_path / "a.cloud",
                       "FIELDS x y z r g b label\n"
                       "POINTS 2\n"
                       "0.0 0.0 0.0 255 0 0 0\n"
                       "1.5 -2.0 0.25 0 128 0 1\n")
        cloud = read_cloud(p)
        assert len(cloud) == 2
        assert cloud.xyz[1, 0] == 1.5
        assert tuple(cloud.rgb[1]) == (0, 128, 0)
        assert list(cloud.labels) == [0, 1]
        assert cloud.has_labels

    def test_plain_layout_without_labels(self, tmp_path):
        p = write_text(tmp_path / "a.cloud",
                       "FIELDS x y z r g b\nPOINTS 1\n1 2 3 4 5 6\n")
        cloud = read_cloud(p)
        assert not cloud.has_labels
        assert list(cloud.labels) == [-1]

    def test_packed_rgb_layout(self, tmp_path):
        packed = float(np.array([(200 << 16) | (100 << 8) | 50],
                                dtype=np.uint32).view(np.float32)[0])
        p = write_text(tmp_path / "a.cloud",
                       "FIELDS x y z rgb label\n"
                       "POINTS 1\n"
                       f"0 0 0 {packed!r} 1\n")
        cloud = read_cloud(p)
        assert tuple(cloud.rgb[0]) == (200, 100, 50)
        assert cloud.labels[0] == 1

    def test_packed_decodes_corner_values(self):
        vals = np.array([0x00000000, 0x00FFFFFF, 0x00010203],
                        dtype=np.uint32).view(np.float32)
        rgb = _decode_packed_rgb(vals)
        assert rgb.tolist() == [[0, 0, 0], [255, 255, 255], [1, 2, 3]]

    def test_blank_lines_tolerated(self, tmp_path):
        p = write_text(tmp_path / "a.cloud",
                       "FIELDS x y z r g b\nPOINTS 1\n\n1 2 3 4 5 6\n\n")
        assert len(read_cloud(p)) == 1

    @pytest.mark.parametrize("text,lineno", [
        ("", 1),
        ("FIELDS x y z q\nPOINTS 1\n0 0 0 0\n", 1),
        ("FIELDS x y z r g b extra\nPOINTS 1\n0 0 0 0 0 0 0\n", 1),
        ("POINTS 1\nFIELDS x y z r g b\n0 0 0 0 0 0\n", 1),
        ("FIELDS x y z r g b\nPOINTS\n", 2),
        ("FIELDS x y z r g b\nPOINTS one\n0 0 0 0 0 0\n", 2),
        ("FIELDS x y z r g b\nPOINTS 1 2\n0 0 0 0 0 0\n", 2),
        ("FIELDS x y z r g b\nPOINTS 0\n", 2),
        ("FIELDS x y z r g b\nPOINTS 2\n0 0 0 0 0 0\n", 2),
        ("FIELDS x y z r g b\nPOINTS 1\n0 0 0 0 0\n", 3),
        ("FIELDS x y z r g b\nPOINTS 1\n0 0 zero 0 0 0\n", 3),
        ("FIELDS x y z r g b\nPOINTS 1\nnan 0 0 0 0 0\n", 3),
        ("FIELDS x y z r g b\nPOINTS 1\n0 0 0 0 0.5 0\n", 3),
        ("FIELDS x y z r g b\nPOINTS 1\n0 0 0 0 300 0\n", 3),
        ("FIELDS x y z r g b label\nPOINTS 1\n0 0 0 0 0 0 2\n", 3),
        ("FIELDS x y z r g b label\nPOINTS 2\n0 0 0 0 0 0 0\n1 1 1 0 0 0 7\n", 4),
    ])
    def test_malformed_files_report_line(self, tmp_path, text, lineno):
        p = write_text(tmp_path / "bad.cloud", text)
        with pytest.raises(CloudFormatError) as err:
            read_cloud(p)
        assert err.value.line == lineno
        assert f"line {lineno}:" in str(err.value)


class TestWriteCloud:
    def test_round_trip_exact(self, rng, tmp_path):
        cloud = random_cloud(rng, n=40)
        path = tmp_path / "c.cloud"
        write_cloud(cloud, path)
        back = read_cloud(path)
        assert np.array_equal(back.xyz, cloud.xyz)
        assert np.array_equal(back.rgb, cloud.rgb)
        assert np.array_equal(back.labels, cloud.labels)

    def test_round_trip_is_idempotent_bytes(self, rng, tmp_path):
        cloud = random_cloud(rng, n=15)
        a, b = tmp_path / "a.cloud", tmp_path / "b.cloud"
        write_cloud(cloud, a)
        write_cloud(read_cloud(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_unlabelled_round_trip(self, rng, tmp_path):
        cloud = random_cloud(rng, n=5, labelled=False)
        path = tmp_path / "c.cloud"
        write_cloud(cloud, path)
        back = read_cloud(path)
        assert not back.has_labels

    def test_rejects_empty(self, tmp_path):
        empty = PointCloud(np.empty((0, 3)), np.empty((0, 3), dtype=np.uint8),
                           np.empty(0, dtype=np.int8))
        with pytest.raises(ValueError):
            write_cloud(empty, tmp_path / "e.cloud")

    def test_rejects_partial_labels(self, rng, tmp_path):
        cloud = random_cloud(rng, n=4)
        cloud.labels[2] = -1
        with pytest.raises(ValueError):
            write_cloud(cloud, tmp_path / "p.cloud")


class TestPointCloud:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((3, 2)), np.zeros((3, 3), dtype=np.uint8),
                       np.zeros(3, dtype=np.int8))
        with pytest.raises(ValueError):
            PointCloud(np.zeros((3, 3)), np.zeros((2, 3), dtype=np.uint8),
                       np.zeros(3, dtype=np.int8))
        with pytest.raises(ValueError):
            PointCloud(np.full((1, 3), np.nan), np.zeros((1, 3), dtype=np.uint8),
                       np.zeros(1, dtype=np.int8))

    def test_select_keeps_alignment(self, rng):
        cloud = random_cloud(rng, n=10)
        sub = cloud.select(np.array([7, 1, 3]))
        assert np.array_equal(sub.xyz, cloud.xyz[[7, 1, 3]])
        assert np.array_equal(sub.labels, cloud.labels[[7, 1, 3]])


class TestManifest:
    def test_round_trip(self, tmp_path):
        entries = [ManifestEntry("a.cloud", "s1", 1, "red"),
                   ManifestEntry("b.cloud", "s2", 2, "green"),
                   ManifestEntry("c.cloud", "s3", 1, "mixed")]
        path = tmp_path / "manifest.csv"
        write_manifest(DatasetManifest(entries), path)
        back = read_manifest(path)
        assert back.entries == entries
        assert back.base_dir == tmp_path

    def test_resolve_relative_and_absolute(self, tmp_path):
        m = DatasetManifest([ManifestEntry("x.cloud", "s", 1, "red"),
                             ManifestEntry("/abs/y.cloud", "t", 2, "red")],
                            base_dir=tmp_path)
        assert m.resolve(m.entries[0]) == tmp_path / "x.cloud"
        assert str(m.resolve(m.entries[1])) == "/abs/y.cloud"

    def test_comments_and_blanks_skipped(self, tmp_path):
        p = write_text(tmp_path / "m.csv",
                       "# comment\n\na.cloud,s1,1,red\n\n# more\n")
        assert len(read_manifest(p)) == 1

    @pytest.mark.parametrize("text", [
        "",
        "# only a comment\n",
        "a.cloud,s1,1\n",
        "a.cloud,s1,3,red\n",
        "a.cloud,s1,1,blue\n",
        "a.cloud,s1,1,red\na.cloud,s2,2,green\n",
    ])
    def test_bad_manifests(self, tmp_path, text):
        p = write_text(tmp_path / "m.csv", text)
        with pytest.raises(ManifestError):
            read_manifest(p)
