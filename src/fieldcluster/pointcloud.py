"""Point-cloud data model and PLY file I/O with color-encoded labels.

A cloud is an ordered array of 3D points (gravity aligned, +z up) with an
optional per-point integer labeling. Point order is significant: the point
index is the deterministic tie-break key used throughout the package.

Labels are written to PLY as RGB colors through an invertible palette
(:func:`colors_for_labels` / :func:`labels_for_colors`); label 0 is reserved
for ground / unlabeled points and is the only label that maps to black.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, ParameterError, PlyError

# Odd multiplier (Knuth's 32-bit golden-ratio constant); odd => invertible
# mod 2^24, so the palette is a bijection on 24-bit label space. It maps 0,
# and only 0, to 0, which makes black the color of label 0 alone.
_PALETTE_MULTIPLIER = 2654435761
_LABEL_SPACE = 1 << 24
_PALETTE_INVERSE = pow(_PALETTE_MULTIPLIER % _LABEL_SPACE, -1, _LABEL_SPACE)


def colors_for_labels(labels: np.ndarray) -> np.ndarray:
    """Palette: (n,) labels below 2^24 -> (n, 3) uint8 colors, deterministic
    and injective; label 0 (ground/unlabeled) is the only label colored black."""
    labels = np.asarray(labels)
    bad = (labels < 0) | (labels >= _LABEL_SPACE)
    if bad.any():
        raise ParameterError(
            f"label {labels[bad.argmax()]} outside palette range [0, 2^24)")
    h = (labels.astype(np.uint64) * np.uint64(_PALETTE_MULTIPLIER)) & np.uint64(_LABEL_SPACE - 1)
    out = np.empty((labels.shape[0], 3), dtype=np.uint8)
    out[:, 0] = (h >> np.uint64(16)) & np.uint64(0xFF)
    out[:, 1] = (h >> np.uint64(8)) & np.uint64(0xFF)
    out[:, 2] = h & np.uint64(0xFF)
    return out


def _renumber_first_appearance(ids: np.ndarray) -> np.ndarray:
    """Relabel non-negative ids: 0 stays 0, and the other ids become 1..C in
    order of first appearance by point index."""
    uniq, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    order = order[uniq[order] != 0]
    new_id = np.zeros(uniq.shape[0], dtype=np.int64)
    new_id[order] = np.arange(1, order.shape[0] + 1)
    return new_id[inverse]


def labels_for_colors(rgb: np.ndarray, mode: str = "palette") -> np.ndarray:
    """Inverse palette: (n, 3) uint8 colors -> (n,) int64 labels.

    mode="palette" applies the exact palette inverse. mode="distinct" gives
    every unique RGB triple its own label, numbered from 1 in order of first
    appearance by point index, with black reserved for label 0 (for clouds
    whose ground truth uses one arbitrary color per cluster).
    """
    rgb = np.asarray(rgb, dtype=np.uint64)
    codes = (rgb[:, 0] << np.uint64(16)) | (rgb[:, 1] << np.uint64(8)) | rgb[:, 2]
    if mode == "palette":
        labels = (codes * np.uint64(_PALETTE_INVERSE)) & np.uint64(_LABEL_SPACE - 1)
        return labels.astype(np.int64)
    if mode == "distinct":
        return _renumber_first_appearance(codes)
    raise ParameterError(f"unknown color mode {mode!r} (expected 'palette' or 'distinct')")


def _checked_points(points, dims: tuple) -> np.ndarray:
    """A read-only float64 C-order copy of ``points``, of shape (n, dim) for a
    dim in ``dims`` (an empty 1D input takes the last); DataError on any
    other shape, empty or not, or a non-finite coordinate. The package's one
    check of coordinates, for a cloud and for an index."""
    pts = np.array(points, dtype=np.float64, order="C")
    if pts.shape == (0,):
        pts = pts.reshape(0, dims[-1])
    if pts.ndim != 2 or pts.shape[1] not in dims:
        shapes = " or ".join(f"(n, {dim})" for dim in dims)
        raise DataError(f"points must have shape {shapes}, got {pts.shape}")
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        raise DataError(f"non-finite coordinate at point index {int(np.flatnonzero(~finite)[0])}")
    pts.setflags(write=False)
    return pts


@dataclass(frozen=True)
class PointCloud:
    """Ordered 3D points with an optional per-point label array.

    Immutable after construction; the backing arrays are read-only private
    copies, so a cloud can be shared freely across threads and the caller's
    arrays stay writable.
    """

    points: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        pts = _checked_points(self.points, (3,))
        object.__setattr__(self, "points", pts)
        if self.labels is not None:
            lab = np.array(self.labels, dtype=np.int64, order="C")
            if lab.shape != (pts.shape[0],):
                raise DataError(
                    f"labels length {lab.shape} does not match {pts.shape[0]} points"
                )
            if lab.size and lab.min() < 0:
                raise DataError(f"negative label at point index {int(np.flatnonzero(lab < 0)[0])}")
            lab.setflags(write=False)
            object.__setattr__(self, "labels", lab)

    @property
    def n(self) -> int:
        return self.points.shape[0]


_SCALAR_TYPES = {
    "char": "i1", "int8": "i1",
    "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2",
    "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4",
    "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4",
    "double": "f8", "float64": "f8",
}


def _parse_header(raw: bytes, path: Path):
    # the header ends at the first line that is exactly end_header
    end = re.search(rb"^end_header[ \t\r]*$", raw, re.MULTILINE)
    if not raw.startswith(b"ply") or end is None:
        raise PlyError(f"{path}: not a PLY file (missing 'ply'/'end_header')")
    if end.end() == len(raw):
        raise PlyError(f"{path}: header not terminated by newline")
    header = raw[:end.start()].decode("ascii", errors="replace").splitlines()
    body = raw[end.end() + 1:]

    fmt = None
    elements: list[dict] = []
    for line in header[1:]:
        stripped = line.strip()
        if not stripped or stripped.startswith(("comment", "obj_info")):
            continue
        parts = stripped.split()
        if parts[0] == "format":
            if len(parts) != 3 or parts[1] not in ("ascii", "binary_little_endian"):
                raise PlyError(f"{path}: unsupported format line: {stripped!r}")
            fmt = parts[1]
        elif parts[0] == "element":
            if len(parts) != 3 or not parts[2].isdigit():
                raise PlyError(f"{path}: malformed element line: {stripped!r}")
            elements.append({"name": parts[1], "count": int(parts[2]), "props": []})
        elif parts[0] == "property":
            if not elements:
                raise PlyError(f"{path}: property before any element: {stripped!r}")
            if parts[1] == "list":
                elements[-1]["props"].append(("list", tuple(parts[2:])))
            elif len(parts) == 3 and parts[1] in _SCALAR_TYPES:
                elements[-1]["props"].append((parts[1], parts[2]))
            else:
                raise PlyError(f"{path}: malformed property line: {stripped!r}")
        else:
            raise PlyError(f"{path}: unrecognized header line: {stripped!r}")
    if fmt is None:
        raise PlyError(f"{path}: header has no format line")
    return fmt, elements, body


def _vertex_dtype(elem: dict, fmt: str, path: Path) -> np.dtype:
    """The vertex record of either encoding: each property in its declared
    type, except that ascii floats are read as doubles, the precision their
    text carries."""
    fields = []
    for type_name, prop_name in elem["props"]:
        if type_name == "list":
            raise PlyError(f"{path}: list property in vertex element is not supported")
        code = _SCALAR_TYPES[type_name]
        fields.append((prop_name, "<f8" if fmt == "ascii" and code[0] == "f" else "<" + code))
    names = [name for name, _ in fields]
    if len(set(names)) < len(names):
        raise PlyError(f"{path}: vertex element declares a property twice")
    for coord in ("x", "y", "z"):
        if coord not in names:
            raise PlyError(f"{path}: vertex element lacks property {coord!r}")
    return np.dtype(fields)


def load_ply(path, color_mode: str = "palette") -> PointCloud:
    """Read an ascii or binary_little_endian PLY vertex cloud.

    Both encodings yield one record per vertex, each property in its declared
    type (see ``_vertex_dtype``). Labels are populated when the vertex element
    carries an integer ``label`` property (takes precedence) or red/green/blue
    colors of an integer type, each in 0..255 (``PlyError`` otherwise, naming
    the first bad vertex); colors decode via the exact palette inverse, or
    one-label-per-unique-color when ``color_mode="distinct"``. Unknown scalar
    properties are skipped.
    """
    path = Path(path)
    raw = path.read_bytes()
    fmt, elements, body = _parse_header(raw, path)

    vertex_idx = next((i for i, e in enumerate(elements) if e["name"] == "vertex"), None)
    if vertex_idx is None:
        raise PlyError(f"{path}: no vertex element in header")
    vert = elements[vertex_idx]
    n = vert["count"]
    dtype = _vertex_dtype(vert, fmt, path)

    if fmt == "ascii":
        lines = body.decode("ascii", errors="replace").splitlines()
        skip = sum(e["count"] for e in elements[:vertex_idx])
        rows = [ln for ln in lines[skip:] if ln.strip()][:n]
        if len(rows) < n:
            raise PlyError(
                f"{path}: truncated body: header declares {n} vertices, found {len(rows)}"
            )
        rec = _parse_ascii_rows(rows, dtype, path)
    else:
        offset = 0
        for e in elements[:vertex_idx]:
            for type_name, _ in e["props"]:
                if type_name == "list":
                    raise PlyError(
                        f"{path}: cannot skip element {e['name']!r} with list property"
                    )
            offset += e["count"] * sum(np.dtype(_SCALAR_TYPES[t]).itemsize for t, _ in e["props"])
        need = offset + n * dtype.itemsize
        if len(body) < need:
            raise PlyError(
                f"{path}: truncated body: header declares {n} vertices "
                f"({need - offset} bytes), found {len(body) - offset} bytes"
            )
        rec = np.frombuffer(body, dtype=dtype, count=n, offset=offset)

    points = np.column_stack([rec[c].astype(np.float64) for c in ("x", "y", "z")])
    labels = None
    if "label" in dtype.names and dtype["label"].kind in "iu":
        labels = rec["label"]
    elif {"red", "green", "blue"} <= set(dtype.names):
        labels = labels_for_colors(_colors(rec, path), mode=color_mode)
    try:
        return PointCloud(points, labels)
    except DataError as exc:  # a non-finite coordinate or a negative label
        raise DataError(f"{path}: {exc}") from None


def _colors(rec: np.ndarray, path: Path) -> np.ndarray:
    """(n, 3) uint8 colors from the red, green and blue channels: uchar ones as
    they are, any other only if it has an integer type and values in 0..255."""
    channels = [rec[c] for c in ("red", "green", "blue")]
    bad = False
    for col in channels:
        if col.dtype != np.uint8:
            bad = bad | ~((col >= 0) & (col <= 255) & (col.dtype.kind in "iu"))
    if np.any(bad):
        i = int(bad.argmax())
        raise PlyError(f"{path}: vertex {i} has color ({', '.join(str(c[i]) for c in channels)});"
                       " colors must be integer properties in 0..255")
    return np.column_stack([col.astype(np.uint8, copy=False) for col in channels])


def _parse_ascii_rows(rows: list[str], dtype: np.dtype, path: Path) -> np.ndarray:
    """One record per row, each field parsed as its type in ``dtype``; a row
    with more or fewer fields, or a field its type cannot hold, is an error.
    A PLY body has no comments, so a '#' is read as a field like any other."""
    if not rows:  # loadtxt warns on empty input
        return np.empty(0, dtype=dtype)
    try:
        return np.loadtxt(io.StringIO("\n".join(rows)), dtype=dtype, ndmin=1, comments=None)
    except ValueError:
        pass
    ncols = len(dtype.names)
    for i, row in enumerate(rows):  # slow path only to name the bad line
        fields = row.split()
        if len(fields) < ncols:
            raise PlyError(f"{path}: vertex row {i} has {len(fields)} fields, expected {ncols}")
        try:
            np.loadtxt([" ".join(fields[:ncols])], dtype=dtype, comments=None)
        except ValueError:
            raise PlyError(f"{path}: vertex row {i} is not numeric "
                           f"in its declared types: {row!r}") from None
    raise PlyError(f"{path}: malformed ascii vertex data")


def save_ply(cloud: PointCloud, labeling: np.ndarray, path, binary: bool = False) -> None:
    """Write points plus palette colors; byte-exact for a given input and format.

    Binary mode stores coordinates as little-endian doubles, so load_ply
    round-trips them bit-exactly; ascii mode keeps 9 significant digits.
    """
    labeling = np.asarray(labeling, dtype=np.int64)
    if labeling.shape != (cloud.n,):
        raise DataError(f"labeling length {labeling.shape} does not match {cloud.n} points")
    rgb = colors_for_labels(labeling)
    fmt = "binary_little_endian" if binary else "ascii"
    header = (
        "ply\n"
        f"format {fmt} 1.0\n"
        f"element vertex {cloud.n}\n"
        "property double x\n"
        "property double y\n"
        "property double z\n"
        "property uchar red\n"
        "property uchar green\n"
        "property uchar blue\n"
        "end_header\n"
    )
    path = Path(path)
    if binary:
        rec = np.empty(cloud.n, dtype=np.dtype([
            ("x", "<f8"), ("y", "<f8"), ("z", "<f8"),
            ("red", "u1"), ("green", "u1"), ("blue", "u1"),
        ]))
        rec["x"], rec["y"], rec["z"] = cloud.points[:, 0], cloud.points[:, 1], cloud.points[:, 2]
        rec["red"], rec["green"], rec["blue"] = rgb[:, 0], rgb[:, 1], rgb[:, 2]
        with open(path, "wb") as fh:
            fh.write(header.encode("ascii"))
            fh.write(rec.tobytes())
    else:
        # one %-format per row, as np.savetxt does, without its numpy scalars
        rows = zip(*cloud.points.T.tolist(), *rgb.T.tolist())
        with open(path, "w", newline="\n") as fh:
            fh.write(header)
            fh.write("".join(map("%.9g %.9g %.9g %d %d %d\n".__mod__, rows)))
