"""Labelled point cloud and dataset manifest I/O.

Cloud files are ASCII with a two-line header::

    FIELDS x y z r g b [label]
    POINTS <n>

followed by ``n`` whitespace-separated data rows.  A header may instead
declare a single ``rgb`` field holding the packed-float colour convention
(the 32-bit pattern of the float is ``0x00RRGGBB``), which is decoded to
three integer channels on read.  Manifests are one CSV-ish line per scene:
``<path>,<scene_id>,<trip:1|2>,<colour:red|green|mixed>``.

Every file the package writes or reads goes through four helpers here:
``replaced`` writes a file that replaces its target only when complete,
``format_rows`` formats table rows a chunk at a time, ``read_text`` decodes
a file under its reader's own error, and ``read_ini`` parses an INI file
against a typed schema.
"""

from __future__ import annotations

import configparser
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from itertools import chain
from pathlib import Path

import numpy as np

UNLABELLED = -1
_WRITE_ROWS = 1 << 13   # table rows formatted by one %-format call


class CloudFormatError(ValueError):
    """Malformed cloud file; message carries the offending 1-based line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ManifestError(ValueError):
    pass


@contextmanager
def replaced(path):
    """A UTF-8 text file that replaces ``path`` only when the block completes;
    if the block raises, its temporary ``<path>.tmp.<pid>`` is removed."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):   # the block failed
            os.remove(tmp)


def format_rows(row, columns):
    """``row`` %-formatted with each row of the arrays ``columns``, one
    string per ``_WRITE_ROWS`` rows; values come from ``tolist()``, so
    ``%r`` gives a float's shortest round-trip repr."""
    for lo in range(0, len(columns[0]), _WRITE_ROWS):
        chunk = [col[lo:lo + _WRITE_ROWS].tolist() for col in columns]
        yield row * len(chunk[0]) % tuple(chain.from_iterable(zip(*chunk)))


def read_text(path, error, encoding="utf-8"):
    """The text of ``path``; bytes that do not decode raise ``error``."""
    try:
        with open(path, encoding=encoding) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not {encoding} text: {exc}") from exc


def read_ini(path, schema, error, what):
    """Typed values of an INI file as ``{section: {key: value}}`` for every
    section of ``schema`` (``{section: {key: parser}}``).  A file that does
    not parse, or holds anything outside the schema or a value its parser
    rejects, raises ``error``; ``what`` names the kind of file.  No header
    can name the default section "", so ``[DEFAULT]`` is a section like any
    other, outside the schema, and its keys are not copied into others."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       default_section="")
    try:
        parser.read_string(read_text(path, error), source=str(path))
    except configparser.Error as exc:
        raise error(f"cannot parse {what} {path}: {exc}") from exc
    values = {section: {} for section in schema}
    for section in parser.sections():
        if section not in schema:
            raise error(f"unknown {what} section [{section}]")
        for key, raw in parser.items(section):
            if key not in schema[section]:
                raise error(f"unknown key {key!r} in section [{section}]")
            try:
                values[section][key] = schema[section][key](raw)
            except ValueError as exc:
                raise error(f"[{section}] {key} = {raw!r}: {exc}") from exc
    return values


@dataclass
class PointCloud:
    """Ordered, index-addressable points with colour and optional labels.

    xyz is (N, 3) float64 metres, rgb is (N, 3) uint8 channels, labels is
    (N,) int8 with values 0 (pepper body), 1 (peduncle) or -1 (unlabelled).
    """

    xyz: np.ndarray
    rgb: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.xyz = np.ascontiguousarray(self.xyz, dtype=np.float64)
        self.rgb = np.ascontiguousarray(self.rgb, dtype=np.uint8)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int8)
        if self.xyz.ndim != 2 or self.xyz.shape[1] != 3:
            raise ValueError(f"xyz must be (N, 3), got {self.xyz.shape}")
        if self.rgb.shape != self.xyz.shape:
            raise ValueError("rgb shape must match xyz")
        if self.labels.shape != (len(self.xyz),):
            raise ValueError("labels length must match point count")
        if not np.all(np.isfinite(self.xyz)):
            raise ValueError("coordinates must be finite")

    def __len__(self):
        return len(self.xyz)

    @property
    def has_labels(self):
        return bool(np.any(self.labels != UNLABELLED))

    def select(self, index):
        """Subset by boolean mask or index array, preserving order."""
        return PointCloud(self.xyz[index], self.rgb[index], self.labels[index])

    def with_labels(self, labels):
        return replace(self, labels=np.asarray(labels, dtype=np.int8))


PepperColour = ("red", "green", "mixed")


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    scene_id: str
    trip: int
    colour: str


@dataclass
class DatasetManifest:
    entries: list[ManifestEntry] = field(default_factory=list)
    base_dir: Path | None = None

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def resolve(self, entry: ManifestEntry) -> Path:
        """Absolute path of an entry; relative paths hang off base_dir."""
        p = Path(entry.path)
        if p.is_absolute() or self.base_dir is None:
            return p
        return self.base_dir / p


def _split_header(line, lineno, keyword):
    parts = line.split()
    if not parts or parts[0] != keyword:
        raise CloudFormatError(f"expected {keyword!r} header, got {line.strip()!r}",
                               lineno)
    return parts[1:]


def _decode_packed_rgb(values):
    # PCL packs colour into a float whose bit pattern is 0x00RRGGBB.
    bits = np.asarray(values, dtype=np.float32).view(np.uint32)
    r = (bits >> 16) & 0xFF
    g = (bits >> 8) & 0xFF
    b = bits & 0xFF
    return np.stack([r, g, b], axis=1).astype(np.int64)


def read_cloud(path) -> PointCloud:
    """Parse an ASCII cloud file.

    Raises CloudFormatError (with line number) on malformed headers,
    non-numeric fields, out-of-range channels, wrong row arity, bad labels
    or an empty cloud.
    """
    path = Path(path)
    try:
        text = read_text(path, CloudFormatError)
    except CloudFormatError as exc:
        bad = exc.__cause__   # the UnicodeDecodeError over the file's bytes
        raise CloudFormatError(
            str(exc), bad.object.count(b"\n", 0, bad.start) + 1) from bad
    # "\n" only, as read_manifest; a final newline ends the last line
    lines = text.removesuffix("\n").split("\n") if text else []
    if len(lines) < 2:
        raise CloudFormatError("missing FIELDS/POINTS header", 1)

    fields = _split_header(lines[0], 1, "FIELDS")
    packed = fields[:4] == ["x", "y", "z", "rgb"]
    plain = fields[:6] == ["x", "y", "z", "r", "g", "b"]
    ncols = 4 if packed else 6
    if not (packed or plain):
        raise CloudFormatError(f"unsupported field layout {fields!r}", 1)
    rest = fields[ncols:]
    if rest not in ([], ["label"]):
        raise CloudFormatError(f"unsupported field layout {fields!r}", 1)
    has_label = rest == ["label"]
    ncols += int(has_label)

    count_parts = _split_header(lines[1], 2, "POINTS")
    try:
        (count_str,) = count_parts
        npoints = int(count_str)
    except ValueError:
        raise CloudFormatError(f"POINTS header needs a single integer count, "
                               f"got {lines[1].strip()!r}", 2) from None
    if npoints <= 0:
        raise CloudFormatError("cloud must contain at least one point", 2)

    line_of_row = [no for no, l in enumerate(lines[2:], start=3) if l.strip()]
    if len(line_of_row) != npoints:
        raise CloudFormatError(
            f"POINTS declares {npoints} rows but file has {len(line_of_row)}", 2)

    rows = np.empty((npoints, ncols), dtype=np.float64)
    for i, lineno in enumerate(line_of_row):
        parts = lines[lineno - 1].split()
        if len(parts) != ncols:
            raise CloudFormatError(
                f"expected {ncols} columns, got {len(parts)}", lineno)
        try:
            rows[i] = [float(p) for p in parts]
        except ValueError:
            raise CloudFormatError(f"non-numeric field in {lines[lineno - 1].strip()!r}",
                                   lineno) from None

    xyz = rows[:, :3]
    if not np.all(np.isfinite(xyz)):
        bad = int(np.argwhere(~np.isfinite(xyz).all(axis=1))[0, 0])
        raise CloudFormatError("non-finite coordinate", line_of_row[bad])

    if packed:
        rgb = _decode_packed_rgb(rows[:, 3])
    else:
        rgb = rows[:, 3:6]
        if np.any(rgb != np.floor(rgb)):
            bad = int(np.argwhere((rgb != np.floor(rgb)).any(axis=1))[0, 0])
            raise CloudFormatError("colour channel is not an integer", line_of_row[bad])
        rgb = rgb.astype(np.int64)
    if np.any((rgb < 0) | (rgb > 255)):
        bad = int(np.argwhere(((rgb < 0) | (rgb > 255)).any(axis=1))[0, 0])
        raise CloudFormatError("colour channel out of [0, 255]", line_of_row[bad])

    if has_label:
        lab = rows[:, -1]
        ok = np.isin(lab, (0.0, 1.0))
        if not np.all(ok):
            bad = int(np.argwhere(~ok)[0, 0])
            raise CloudFormatError(f"label must be 0 or 1, got {lab[bad]!r}", line_of_row[bad])
        labels = lab.astype(np.int8)
    else:
        labels = np.full(npoints, UNLABELLED, dtype=np.int8)

    return PointCloud(xyz, rgb.astype(np.uint8), labels)


def write_cloud(cloud: PointCloud, path) -> None:
    """Write a cloud so that read_cloud reproduces it exactly.

    Coordinates are written with Python's shortest round-trip float
    representation (``%r``), so the read-back values are bit-identical.
    """
    if len(cloud) == 0:
        raise ValueError("refusing to write an empty cloud")
    labelled = cloud.has_labels
    if labelled and np.any(cloud.labels == UNLABELLED):
        raise ValueError("cloud mixes labelled and unlabelled points")
    columns = [*cloud.xyz.T, *cloud.rgb.T] + [cloud.labels] * labelled
    row = "%r %r %r" + " %d" * (len(columns) - 3) + "\n"
    with replaced(path) as fh:
        fh.write(f"FIELDS x y z r g b{' label' * labelled}\nPOINTS {len(cloud)}\n")
        fh.writelines(format_rows(row, columns))


def write_scores_csv(scores, labels, path) -> None:
    """Write per-point score and label arrays as ``index,score,label`` rows."""
    with replaced(path) as fh:
        fh.write("index,score,label\n")
        fh.writelines(format_rows("%d,%r,%d\n",
                                  [np.arange(len(scores)), scores, labels]))


def read_manifest(path) -> DatasetManifest:
    """Parse a dataset manifest; entries keep file order."""
    path = Path(path)
    entries = []
    seen = set()
    text = read_text(path, ManifestError)
    # "\n" only, as a file's line iterator: splitlines() also splits at \v,
    # \f and others, which would shift the line numbers in the messages
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 4:
            raise ManifestError(
                f"{path}:{lineno}: expected 4 comma-separated fields, got {len(parts)}")
        fpath, scene_id, trip_str, colour = parts
        if fpath in seen:
            raise ManifestError(f"{path}:{lineno}: duplicate path {fpath!r}")
        seen.add(fpath)
        if trip_str not in ("1", "2"):
            raise ManifestError(f"{path}:{lineno}: trip must be 1 or 2, got {trip_str!r}")
        if colour not in PepperColour:
            raise ManifestError(
                f"{path}:{lineno}: unknown colour tag {colour!r} (expected red/green/mixed)")
        entries.append(ManifestEntry(fpath, scene_id, int(trip_str), colour))
    if not entries:
        raise ManifestError(f"{path}: manifest has no entries")
    return DatasetManifest(entries, base_dir=path.parent)


def write_manifest(manifest: DatasetManifest, path) -> None:
    lines = [f"{e.path},{e.scene_id},{e.trip},{e.colour}" for e in manifest.entries]
    with replaced(path) as fh:
        fh.write("\n".join(lines) + "\n")
