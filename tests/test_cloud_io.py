import ast
import os
from pathlib import Path

import numpy as np
import pytest

from peduncleseg import (CloudFormatError, DatasetManifest, ManifestEntry,
                         ManifestError, PointCloud, read_cloud, read_manifest,
                         write_cloud, write_manifest)
from peduncleseg import cloud_io
from peduncleseg.cloud_io import _decode_packed_rgb, write_scores_csv

from clouds import failing_format_rows, random_cloud


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
        # blank lines before and between rows still count as lines
        ("FIELDS x y z r g b\nPOINTS 2\n\n0 0 0 0 0 0\n\n\n1 1 1 0 0\n", 7),
        ("FIELDS x y z r g b\nPOINTS 2\n0 0 0 0 0 0\n\n1 1 x 0 0 0\n", 5),
        ("FIELDS x y z r g b\nPOINTS 2\n\n\n0 0 0 0 0 0\n1 inf 1 0 0 0\n", 6),
        ("FIELDS x y z r g b\nPOINTS 1\n\n  \n0 0 0 0 0.5 0\n", 5),
        ("FIELDS x y z r g b\nPOINTS 2\n0 0 0 0 0 0\n\n1 1 1 0 0 256\n", 5),
        ("FIELDS x y z r g b label\nPOINTS 2\n\n0 0 0 0 0 0 1\n\n1 1 1 0 0 0 2\n",
         6),
    ])
    def test_malformed_files_report_line(self, tmp_path, text, lineno):
        p = write_text(tmp_path / "bad.cloud", text)
        with pytest.raises(CloudFormatError) as err:
            read_cloud(p)
        assert err.value.line == lineno
        assert f"line {lineno}:" in str(err.value)

    # only "\n" ends a line, as in read_manifest: these characters, which
    # str.splitlines also breaks at, are whitespace inside a row
    @pytest.mark.parametrize("char", [
        "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
    ], ids=["VT", "FF", "FS", "GS", "RS", "NEL", "LS", "PS"])
    def test_only_newline_ends_a_line(self, tmp_path, char):
        p = write_text(tmp_path / "a.cloud", "FIELDS x y z r g b\nPOINTS 2\n"
                       f"0 0 0{char}1 2 3\n1 1 1 4 5 6\n")
        assert read_cloud(p).rgb.tolist() == [[1, 2, 3], [4, 5, 6]]
        p = write_text(tmp_path / "b.cloud", "FIELDS x y z r g b\nPOINTS 2\n"
                       f"0 0 0 1 2 3{char}\n\n1 x 1 4 5 6\n")
        with pytest.raises(CloudFormatError, match="line 5:"):
            read_cloud(p)


def cloud_text(cloud):
    """The oracle for write_cloud: the file's text, formatted one point at a
    time with Python's shortest round-trip float repr."""
    labelled = cloud.has_labels
    fields = "x y z r g b label" if labelled else "x y z r g b"
    lines = [f"FIELDS {fields}", f"POINTS {len(cloud)}"]
    for i in range(len(cloud)):
        x, y, z = (float(v) for v in cloud.xyz[i])
        r, g, b = (int(v) for v in cloud.rgb[i])
        row = f"{x!r} {y!r} {z!r} {r} {g} {b}"
        if labelled:
            row += f" {int(cloud.labels[i])}"
        lines.append(row)
    return "\n".join(lines) + "\n"


class TestWriteCloud:
    # 5 rows fit one chunk; one row more than a chunk takes a second one
    @pytest.mark.parametrize("n", [5, cloud_io._WRITE_ROWS + 1])
    @pytest.mark.parametrize("labelled", [True, False])
    def test_bytes_equal_the_per_point_formatter(self, rng, tmp_path, n,
                                                 labelled):
        cloud = random_cloud(rng, n=n, labelled=labelled)
        cloud.xyz[0] = [-0.0, 5e-324, 1e300]
        cloud.xyz[-1] = [0.1 + 0.2, -5e-324, -1e300]
        cloud.rgb[0] = [0, 255, 7]
        path = tmp_path / "c.cloud"
        write_cloud(cloud, path)
        assert path.read_bytes() == cloud_text(cloud).encode("utf-8")
        back = read_cloud(path)
        assert np.array_equal(back.xyz.view(np.int64), cloud.xyz.view(np.int64))

    def test_failed_write_keeps_the_old_file(self, rng, tmp_path,
                                             monkeypatch):
        path = tmp_path / "c.cloud"
        write_cloud(random_cloud(rng, n=5), path)
        before = path.read_bytes()
        seen = []
        monkeypatch.setattr(cloud_io, "format_rows", failing_format_rows(
            cloud_io.format_rows, tmp_path, seen))
        with pytest.raises(OSError, match="disk full"):
            write_cloud(random_cloud(rng, n=cloud_io._WRITE_ROWS + 1), path)
        # the first chunk went to a temporary file named for this process
        assert seen == ["c.cloud", f"c.cloud.tmp.{os.getpid()}"]
        assert [p.name for p in tmp_path.iterdir()] == ["c.cloud"]
        assert path.read_bytes() == before

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


def scores_text(scores, labels):
    """The oracle for write_scores_csv: the file's text, formatted one point
    at a time."""
    lines = ["index,score,label"]
    for i, (s, lab) in enumerate(zip(scores, labels)):
        lines.append(f"{i},{repr(float(s))},{int(lab)}")
    return "\n".join(lines) + "\n"


class TestWriteScoresCsv:
    @pytest.mark.parametrize("n", [5, cloud_io._WRITE_ROWS + 1])
    def test_bytes_equal_the_per_point_formatter(self, rng, tmp_path, n):
        scores = rng.normal(size=n)
        scores[:4] = [-0.0, 5e-324, 1e300, 0.1 + 0.2]
        scores[-1] = -1e300
        labels = np.where(scores > 0.0, 1, 0).astype(np.int8)
        path = tmp_path / "s.csv"
        write_scores_csv(scores, labels, path)
        assert path.read_bytes() == scores_text(scores, labels).encode("ascii")


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

    def test_labels_length_must_match(self):
        with pytest.raises(ValueError, match="labels length must match"):
            PointCloud(np.zeros((3, 3)), np.zeros((3, 3), dtype=np.uint8),
                       np.zeros(2, dtype=np.int8))

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

    # each message names the file line, comments and blank lines counted
    @pytest.mark.parametrize("text, message", [
        ("", "m.csv: manifest has no entries"),
        ("# only a comment\n", "m.csv: manifest has no entries"),
        ("a.cloud,s1,1\n", "m.csv:1: expected 4 comma-separated fields"),
        ("# c\n\na.cloud,s1,3,red\n", "m.csv:3: trip must be 1 or 2"),
        ("a.cloud,s1,1,blue\n", "m.csv:1: unknown colour tag 'blue'"),
        ("a.cloud,s1,1,red\r\n\r\na.cloud,s2,2,green\r\n",
         "m.csv:3: duplicate path 'a.cloud'"),
    ])
    def test_bad_manifests(self, tmp_path, text, message):
        p = tmp_path / "m.csv"
        p.write_bytes(text.encode("utf-8"))
        with pytest.raises(ManifestError, match=message):
            read_manifest(p)


# what opens, reads or writes a file: the builtin open, these methods of
# paths, file objects, numpy and io, these os functions, and these modules
_FILE_METHODS = {"open", "fdopen", "read", "readline", "readlines",
                 "read_text", "read_bytes", "write_text", "write_bytes",
                 "load", "loadtxt", "genfromtxt", "fromfile", "save", "savez",
                 "savez_compressed", "savetxt", "tofile", "memmap"}
_OS_FILE_CALLS = {"open", "fdopen", "replace", "rename", "remove", "unlink"}
_FILE_MODULES = {"configparser", "mmap", "pickle", "shelve", "shutil",
                 "tempfile"}


def file_access(source):
    """(line, name) of each place in ``source`` that opens, reads or writes
    a file itself rather than through cloud_io."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names
                      if a.name.split(".")[0] in _FILE_MODULES]
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] in _FILE_MODULES:
                found.append((node.lineno, node.module))
        elif isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name):
                hit = f.id == "open"
            elif isinstance(f, ast.Attribute):
                owner = f.value.id if isinstance(f.value, ast.Name) else None
                hit = (f.attr in _OS_FILE_CALLS if owner == "os"
                       else f.attr in _FILE_METHODS and owner != "cloud_io")
            else:
                hit = False
            if hit:
                found.append((node.lineno, ast.unparse(f)))
    return found


class TestOneFileLayer:
    """Every file the package opens, reads or writes goes through cloud_io."""

    def test_no_other_module_touches_files(self):
        package = Path(cloud_io.__file__).parent
        modules = sorted(package.glob("*.py"))
        assert len(modules) > 5
        found = {m.name: file_access(m.read_text(encoding="utf-8"))
                 for m in modules if m.name != "cloud_io.py"}
        assert {name: hits for name, hits in found.items() if hits} == {}

    @pytest.mark.parametrize("source", [
        "open(p)", "Path(p).write_text(t)", "fh = p.open('w')",
        "np.savetxt(p, a)", "np.load(p)", "json.load(fh)", "os.replace(a, b)",
        "import shutil", "from tempfile import mkstemp",
    ])
    def test_finds_file_access(self, source):
        assert file_access(source) != []

    @pytest.mark.parametrize("source", [
        "fh.write(t)", "json.dump(d, fh)", "read_text(p, E)",
        "cloud_io.read_text(p, E)", "io.StringIO(t)", "os.makedirs(d)",
        "s.replace(',', ';')", "import os",
    ])
    def test_passes_layer_calls(self, source):
        assert file_access(source) == []


def sparse_imports(source):
    """(line, name) of each place in ``source`` that imports or reaches
    ``scipy.sparse``."""
    def sparse(name):
        return name == "scipy.sparse" or name.startswith("scipy.sparse.")

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names if sparse(a.name)]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if sparse(module) or (module == "scipy" and any(
                    a.name == "sparse" for a in node.names)):
                found.append((node.lineno, module))
        elif isinstance(node, ast.Attribute) and sparse(ast.unparse(node)):
            found.append((node.lineno, ast.unparse(node)))
    return found


class TestNoSparse:
    """The radius CSR and the kernels are plain numpy: no package module
    uses scipy.sparse."""

    def test_no_module_imports_scipy_sparse(self):
        package = Path(cloud_io.__file__).parent
        found = {m.name: sparse_imports(m.read_text(encoding="utf-8"))
                 for m in sorted(package.glob("*.py"))}
        assert len(found) > 5
        assert {name: hits for name, hits in found.items() if hits} == {}

    @pytest.mark.parametrize("source", [
        "import scipy.sparse", "import scipy.sparse.linalg as la",
        "from scipy import sparse", "from scipy import spatial, sparse",
        "from scipy.sparse import csr_matrix", "scipy.sparse.csr_matrix(a)",
    ])
    def test_finds_sparse(self, source):
        assert sparse_imports(source) != []

    @pytest.mark.parametrize("source", [
        "import scipy", "from scipy.spatial import cKDTree",
        "from scipy import spatial", "import scipy.sparsetools",
        "m.sparse(a)",
    ])
    def test_passes_other_imports(self, source):
        assert sparse_imports(source) == []
