import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fieldcluster import (
    DataError,
    ParameterError,
    PlyError,
    PointCloud,
    SpatialIndex,
    load_ply,
    save_ply,
)
from fieldcluster.pointcloud import colors_for_labels, labels_for_colors
from references import color_to_label, label_to_color


class TestPalette:
    def test_label_zero_is_black(self):
        assert label_to_color(0) == (0, 0, 0)

    def test_round_trip_first_10001_labels(self):
        for lab in range(10001):
            assert color_to_label(label_to_color(lab)) == lab

    @given(st.integers(min_value=0, max_value=2**24 - 1))
    def test_round_trip_any_label(self, lab):
        assert color_to_label(label_to_color(lab)) == lab

    def test_injective_on_sample(self, rng):
        labels = rng.integers(0, 2**24, size=200_000)
        colors = colors_for_labels(labels)
        codes = (colors[:, 0].astype(np.int64) << 16) | (colors[:, 1].astype(np.int64) << 8) \
            | colors[:, 2].astype(np.int64)
        assert np.unique(codes).size == np.unique(labels).size

    def test_only_label_zero_maps_to_black(self):
        colors = colors_for_labels(np.arange(1, 300_000))
        assert not (colors == 0).all(axis=1).any()

    def test_distinct_labels_distinct_colors(self):
        assert label_to_color(17) != label_to_color(18)

    def test_label_out_of_range(self):
        with pytest.raises(ParameterError):
            label_to_color(2**24)
        with pytest.raises(ParameterError, match="label -1 outside"):
            colors_for_labels(np.array([3, -1]))

    def test_unknown_color_mode(self):
        with pytest.raises(ParameterError, match="unknown color mode 'hsv'"):
            labels_for_colors(np.zeros((2, 3), dtype=np.uint8), mode="hsv")

    def test_vectorized_matches_scalar(self, rng):
        labels = rng.integers(0, 2**24, size=500)
        colors = colors_for_labels(labels)
        for lab, rgb in zip(labels.tolist(), colors.tolist()):
            assert tuple(rgb) == label_to_color(lab)
        assert np.array_equal(labels_for_colors(colors), labels)


class TestPointCloud:
    def test_labels_length_mismatch(self):
        with pytest.raises(DataError):
            PointCloud(np.zeros((3, 3)), labels=[1, 2])

    def test_non_finite_coordinate_reports_index(self):
        pts = np.zeros((4, 3))
        pts[2, 1] = np.nan
        with pytest.raises(DataError, match="index 2"):
            PointCloud(pts)

    def test_negative_label_rejected(self):
        with pytest.raises(DataError):
            PointCloud(np.zeros((2, 3)), labels=[1, -1])

    def test_points_must_be_n_by_3(self):
        with pytest.raises(DataError, match=r"shape \(n, 3\), got \(4, 2\)"):
            PointCloud(np.zeros((4, 2)))

    def test_empty_points_keep_their_width(self):
        # an empty array of another width raises as a non-empty one does
        for shape in ((0, 2), (0, 4), (3, 0)):
            with pytest.raises(DataError, match=rf"shape \(n, 3\), got \({shape[0]}, {shape[1]}\)"):
                PointCloud(np.zeros(shape))
        with pytest.raises(DataError, match=r"shape \(n, 2\) or \(n, 3\), got \(0, 4\)"):
            SpatialIndex(np.zeros((0, 4)))
        assert SpatialIndex(np.zeros((0, 2))).points.shape == (0, 2)
        assert PointCloud(np.empty((0, 3))).points.shape == (0, 3)
        # an empty 1D input takes the last allowed width
        assert PointCloud(np.empty(0)).points.shape == (0, 3)
        assert PointCloud([]).points.shape == (0, 3)
        assert SpatialIndex(np.empty(0)).points.shape == (0, 3)

    def test_arrays_read_only(self):
        cloud = PointCloud(np.zeros((2, 3)), labels=[1, 2])
        with pytest.raises(ValueError):
            cloud.points[0, 0] = 1.0
        with pytest.raises(ValueError):
            cloud.labels[0] = 5

    def test_caller_arrays_stay_writable(self):
        pts, labels = np.zeros((2, 3)), np.array([1, 2])
        cloud = PointCloud(pts, labels)
        pts[0, 0] = 7.0
        labels[0] = 9
        assert cloud.points[0, 0] == 0.0
        assert cloud.labels[0] == 1


class TestPlyRoundTrip:
    @pytest.mark.parametrize("binary", [False, True])
    def test_round_trip_labels(self, tmp_path, rng, binary):
        pts = rng.normal(0, 2, size=(257, 3))
        labels = rng.integers(0, 50, size=257)
        cloud = PointCloud(pts)
        path = tmp_path / "c.ply"
        save_ply(cloud, labels, path, binary=binary)
        back = load_ply(path)
        assert np.array_equal(back.labels, labels)
        if binary:
            assert np.array_equal(back.points, cloud.points)
        else:
            assert np.allclose(back.points, cloud.points, atol=1e-6, rtol=0)

    def test_binary_round_trip_bit_exact(self, tmp_path, rng):
        pts = rng.normal(0, 1e3, size=(64, 3))
        cloud = PointCloud(pts)
        path = tmp_path / "c.ply"
        save_ply(cloud, np.zeros(64, dtype=int), path, binary=True)
        assert load_ply(path).points.tobytes() == cloud.points.tobytes()

    @pytest.mark.parametrize("binary", [False, True])
    def test_save_deterministic_bytes(self, tmp_path, rng, binary):
        pts = rng.normal(0, 2, size=(101, 3))
        labels = rng.integers(0, 9, size=101)
        cloud = PointCloud(pts)
        p1, p2 = tmp_path / "a.ply", tmp_path / "b.ply"
        save_ply(cloud, labels, p1, binary=binary)
        save_ply(cloud, labels, p2, binary=binary)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ascii_body_equals_savetxt(self, tmp_path, seed):
        # extreme exponents, signed zeros, and every byte 0-255 in each
        # color channel, against the numpy writer the ascii body replaced
        rng = np.random.default_rng(seed)
        n = 512
        pts = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-310, 306, size=(n, 3))
        pts[rng.random((n, 3)) < 0.05] = -0.0
        pts[rng.random((n, 3)) < 0.05] = 0.0
        rgb = np.stack([rng.permutation(256), rng.permutation(256), np.arange(256)], axis=1)
        labels = labels_for_colors(np.concatenate([rgb, rgb[::-1]]).astype(np.uint8))
        path = tmp_path / "c.ply"
        save_ply(PointCloud(pts), labels, path)
        want = io.StringIO()
        np.savetxt(want, np.column_stack([pts, colors_for_labels(labels).astype(np.float64)]),
                   fmt="%.9g %.9g %.9g %d %d %d")
        assert np.array_equal(colors_for_labels(labels)[:256], rgb)
        body = path.read_bytes().split(b"end_header\n", 1)[1]
        assert body == want.getvalue().encode("ascii")
        assert b"-0 " in body

    def test_labeling_length_mismatch(self, tmp_path):
        with pytest.raises(DataError, match="labeling length"):
            save_ply(PointCloud(np.zeros((3, 3))), np.array([1, 2]), tmp_path / "x.ply")

    def test_empty_cloud(self, tmp_path):
        path = tmp_path / "empty.ply"
        save_ply(PointCloud(np.empty((0, 3))), np.empty(0, dtype=int), path)
        back = load_ply(path)
        assert back.n == 0
        assert back.labels is not None and back.labels.size == 0

    def test_single_point_color_is_palette(self, tmp_path):
        path = tmp_path / "one.ply"
        save_ply(PointCloud(np.zeros((1, 3))), np.asarray([7]), path)
        body = path.read_text().splitlines()[-1].split()
        assert tuple(int(v) for v in body[3:6]) == label_to_color(7)


XYZ = "property float x\nproperty float y\nproperty float z\n"
# further vertex properties, ending the header
INT_LABEL = "property int label\nend_header\n"
UCHAR_RGB = "property uchar red\nproperty uchar green\nproperty uchar blue\nend_header\n"


class TestPlyLoader:
    @pytest.mark.parametrize("header, message", [
        ("ply\nformat ascii 1.0\nelement vertex 0\n" + XYZ + "end_header",
         "not terminated by newline"),
        ("ply\nformat binary_big_endian 1.0\nelement vertex 0\n" + XYZ + "end_header\n",
         "unsupported format line"),
        ("ply\nformat ascii 1.0\n" + XYZ + "element vertex 0\nend_header\n",
         "property before any element"),
        ("ply\nformat ascii 1.0\nelement vertex 0\n" + XYZ + "property quad w\nend_header\n",
         "malformed property line"),
        ("ply\nformat ascii 1.0\nelement vertex 0\n" + XYZ + "units metres\nend_header\n",
         "unrecognized header line"),
        ("ply\nelement vertex 0\n" + XYZ + "end_header\n",
         "no format line"),
        ("ply\nformat ascii 1.0\nelement vertex 0\n"
         "property float x\nproperty float y\nend_header\n",
         "lacks property 'z'"),
        ("ply\nformat ascii 1.0\nelement face 0\n"
         "property list uchar int vertex_indices\nend_header\n",
         "no vertex element"),
        ("ply\nformat ascii 1.0\nelement vertex 0\n" + XYZ + "property int x\nend_header\n",
         "declares a property twice"),
        ("ply\nformat binary_little_endian 1.0\nelement vertex 0\n" + XYZ
         + "property int x\nend_header\n", "declares a property twice"),
    ])
    def test_header_errors(self, tmp_path, header, message):
        path = tmp_path / "bad.ply"
        path.write_bytes(header.encode())
        with pytest.raises(PlyError, match=message):
            load_ply(path)

    @pytest.mark.parametrize("body, message", [
        ("0 0 0\n0 0\n", "vertex row 1 has 2 fields, expected 3"),
        ("0 0 0\n0 x 0\n", "vertex row 1 is not numeric"),
        ("0 0 0\n0 0 0 5\n", "malformed ascii vertex data"),
        ("0 0 0 5\n0 0 0 5\n", "malformed ascii vertex data"),
        ("0 0 0\n# 0 0\n", "vertex row 1 is not numeric"),
        (INT_LABEL + "0 0 0 1\n0 0 0 12.7\n", "vertex row 1 is not numeric"),
        (UCHAR_RGB + "0 0 0 1 2 3\n0 0 0 300 0 0\n", "vertex row 1 is not numeric"),
        (UCHAR_RGB + "0 0 0 1 2 3\n0 0 0 -1 0 0\n", "vertex row 1 is not numeric"),
    ])
    def test_bad_ascii_rows(self, tmp_path, body, message):
        path = tmp_path / "rows.ply"
        # a body that declares further properties ends the header itself
        end = "" if "end_header\n" in body else "end_header\n"
        path.write_text("ply\nformat ascii 1.0\nelement vertex 2\n" + XYZ + end + body)
        with pytest.raises(PlyError, match=message):
            load_ply(path)

    @pytest.mark.parametrize("label", [("int", "<i4"), ("uint", "<u4"), None])
    def test_ascii_and_binary_load_alike(self, tmp_path, rng, label):
        props = [("double", "x", "<f8"), ("double", "y", "<f8"), ("double", "z", "<f8")]
        props += [(label[0], "label", label[1])] if label else []
        props += [("uchar", c, "u1") for c in ("red", "green", "blue")]
        rec = np.zeros(50, dtype=[(name, code) for _, name, code in props])
        for _, name, code in props:
            rec[name] = rng.normal(0, 1e3, 50) if code == "<f8" else \
                rng.integers(0, 2**31 if name == "label" else 256, 50)
        header = "ply\nformat {} 1.0\nelement vertex 50\n" + "".join(
            f"property {ply_type} {name}\n" for ply_type, name, _ in props) + "end_header\n"
        text, binary = tmp_path / "a.ply", tmp_path / "b.ply"
        text.write_text(header.format("ascii") + "".join(
            " ".join(repr(v) for v in row) + "\n" for row in rec.tolist()))
        binary.write_bytes(header.format("binary_little_endian").encode() + rec.tobytes())
        a, b = load_ply(text), load_ply(binary)
        assert a.points.tobytes() == b.points.tobytes()
        assert np.array_equal(a.labels, b.labels)
        if label:
            assert np.array_equal(a.labels, rec["label"])

    def test_negative_label_names_first_bad_point(self, tmp_path):
        path = tmp_path / "neg.ply"
        path.write_text("ply\nformat ascii 1.0\nelement vertex 3\n" + XYZ
                        + "property int label\nend_header\n"
                        "0 0 0 3\n1 0 0 -1\n2 0 0 -5\n")
        with pytest.raises(DataError, match=r"negative label at point index 1$"):
            load_ply(path)

    def test_minimal_ascii(self, tmp_path):
        path = tmp_path / "min.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\nend_header\n"
            "0 0 0\n")
        cloud = load_ply(path)
        assert cloud.n == 1 and cloud.labels is None

    def test_truncated_body(self, tmp_path):
        path = tmp_path / "trunc.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 10\n"
            "property float x\nproperty float y\nproperty float z\nend_header\n"
            + "0 0 0\n" * 9)
        with pytest.raises(PlyError, match="truncated"):
            load_ply(path)

    def test_truncated_binary(self, tmp_path):
        path = tmp_path / "trunc.ply"
        header = ("ply\nformat binary_little_endian 1.0\nelement vertex 2\n"
                  "property double x\nproperty double y\nproperty double z\nend_header\n")
        path.write_bytes(header.encode() + b"\x00" * 24)
        with pytest.raises(PlyError, match="truncated"):
            load_ply(path)

    def test_end_header_in_comment(self, tmp_path):
        # only a line that is exactly end_header (trailing blanks or \r allowed) ends the header
        pts = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        for fmt, body in (("ascii", b"1 2 3\n4 5 6\n"),
                          ("binary_little_endian", pts.astype("<f8").tobytes())):
            path = tmp_path / f"{fmt}.ply"
            header = (f"ply\r\nformat {fmt} 1.0\r\ncomment see end_header below\r\n"
                      "element vertex 2\r\nproperty double x\r\nproperty double y\r\n"
                      "property double z\r\nend_header \r\n")
            path.write_bytes(header.encode() + body)
            assert np.array_equal(load_ply(path).points, pts)

    def test_malformed_header_names_line(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex x9\n"
            "property float x\nend_header\n")
        with pytest.raises(PlyError, match="element vertex x9"):
            load_ply(path)

    def test_not_a_ply(self, tmp_path):
        path = tmp_path / "nope.ply"
        path.write_text("hello\n")
        with pytest.raises(PlyError):
            load_ply(path)

    def test_unknown_scalar_property_skipped(self, tmp_path):
        path = tmp_path / "extra.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 2\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property float confidence\nend_header\n"
            "0 0 1 0.5\n1 0 2 0.7\n")
        cloud = load_ply(path)
        assert cloud.n == 2
        assert np.array_equal(cloud.points[:, 2], [1.0, 2.0])

    def test_non_finite_coordinate(self, tmp_path):
        path = tmp_path / "naninf.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 2\n"
            "property float x\nproperty float y\nproperty float z\nend_header\n"
            "0 0 0\nnan 0 0\n")
        with pytest.raises(DataError, match="index 1"):
            load_ply(path)

    def test_label_property_takes_precedence(self, tmp_path):
        path = tmp_path / "lab.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property uchar red\nproperty uchar green\nproperty uchar blue\n"
            "property uint label\nend_header\n"
            "0 0 0 255 255 255 42\n")
        assert load_ply(path).labels.tolist() == [42]

    def test_float_label_property_ignored(self, tmp_path):
        path = tmp_path / "flab.ply"
        r, g, b = label_to_color(7)
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 2\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property uchar red\nproperty uchar green\nproperty uchar blue\n"
            "property float label\nend_header\n"
            f"0 0 0 {r} {g} {b} 42.5\n"
            "1 0 0 0 0 0 3\n")
        assert load_ply(path).labels.tolist() == [7, 0]

    def test_distinct_color_mode(self, tmp_path):
        path = tmp_path / "distinct.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 5\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property uchar red\nproperty uchar green\nproperty uchar blue\nend_header\n"
            "0 0 0 10 20 30\n"
            "1 0 0 0 0 0\n"
            "2 0 0 99 98 97\n"
            "3 0 0 10 20 30\n"
            "4 0 0 0 0 0\n")
        assert load_ply(path, color_mode="distinct").labels.tolist() == [1, 0, 2, 1, 0]

    @staticmethod
    def write_colored(path, ply_type, colors, binary):
        """A PLY file with one vertex per color, at x = 0, 1, ..., whose red,
        green and blue properties have the type ply_type."""
        rgb = ("red", "green", "blue")
        code = {"uchar": "u1", "ushort": "<u2", "short": "<i2", "float": "<f4"}[ply_type]
        rec = np.zeros(len(colors), dtype=[(c, "<f8") for c in "xyz"] + [(c, code) for c in rgb])
        rec["x"] = np.arange(len(colors))
        for c, column in zip(rgb, np.array(colors).T):
            rec[c] = column
        header = (f"ply\nformat {'binary_little_endian' if binary else 'ascii'} 1.0\n"
                  f"element vertex {len(colors)}\n" + XYZ.replace("float", "double")
                  + "".join(f"property {ply_type} {c}\n" for c in rgb) + "end_header\n")
        if binary:
            path.write_bytes(header.encode() + rec.tobytes())
        else:
            path.write_text(header + "".join(" ".join(map(repr, row)) + "\n"
                                             for row in rec.tolist()))
        return path

    @pytest.mark.parametrize("binary", [False, True], ids=["ascii", "binary"])
    @pytest.mark.parametrize("ply_type, bad, shown", [("ushort", 300, "300"),
                                                      ("short", -1, "-1")])
    def test_colors_outside_uchar_range_rejected(self, tmp_path, binary, ply_type, bad, shown):
        colors = [(1, 2, 3), (9, 9, bad), (bad, 0, 0)]
        path = self.write_colored(tmp_path / "wide.ply", ply_type, colors, binary)
        with pytest.raises(PlyError) as exc:
            load_ply(path)
        assert str(exc.value) == (f"{path}: vertex 1 has color (9, 9, {shown}); "
                                  "colors must be integer properties in 0..255")

    @pytest.mark.parametrize("binary", [False, True], ids=["ascii", "binary"])
    def test_float_colors_rejected(self, tmp_path, binary):
        path = self.write_colored(tmp_path / "float.ply", "float", [(0.5, 0.25, 1.0)], binary)
        with pytest.raises(PlyError, match=r"vertex 0 has color \(0\.5, 0\.25, 1\.0\); colors must"
                                           r" be integer properties in 0\.\.255"):
            load_ply(path)

    @pytest.mark.parametrize("binary", [False, True], ids=["ascii", "binary"])
    def test_ushort_colors_in_range_decode_like_uchar(self, tmp_path, rng, binary):
        colors = rng.integers(0, 256, size=(40, 3))
        colors[:2] = [(0, 0, 0), (255, 255, 255)]
        wide = load_ply(self.write_colored(tmp_path / "u2.ply", "ushort", colors, binary))
        narrow = load_ply(self.write_colored(tmp_path / "u1.ply", "uchar", colors, binary))
        assert np.array_equal(wide.labels, narrow.labels)
        assert np.array_equal(wide.labels, [color_to_label(c) for c in colors.tolist()])

    def test_binary_float32_coordinates(self, tmp_path):
        rec = np.zeros(3, dtype=np.dtype([("x", "<f4"), ("y", "<f4"), ("z", "<f4")]))
        rec["x"] = [0.5, 1.5, 2.5]
        path = tmp_path / "f32.ply"
        header = ("ply\nformat binary_little_endian 1.0\nelement vertex 3\n"
                  "property float x\nproperty float y\nproperty float z\nend_header\n")
        path.write_bytes(header.encode() + rec.tobytes())
        cloud = load_ply(path)
        assert np.array_equal(cloud.points[:, 0], [0.5, 1.5, 2.5])

    def test_leading_element_skipped_binary(self, tmp_path):
        camera = np.zeros(2, dtype=np.dtype([("fx", "<f4"), ("id", "u1")]))
        camera["fx"] = [7.5, 8.5]
        pts = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        path = tmp_path / "lead.ply"
        header = ("ply\nformat binary_little_endian 1.0\n"
                  "element camera 2\nproperty float fx\nproperty uchar id\n"
                  "element vertex 2\nproperty double x\nproperty double y\n"
                  "property double z\nend_header\n")
        path.write_bytes(header.encode() + camera.tobytes() + pts.astype("<f8").tobytes())
        assert np.array_equal(load_ply(path).points, pts)

    def test_leading_list_element_rejected_binary(self, tmp_path):
        path = tmp_path / "lead.ply"
        header = ("ply\nformat binary_little_endian 1.0\n"
                  "element face 1\nproperty list uchar int vertex_indices\n"
                  "element vertex 1\nproperty double x\nproperty double y\n"
                  "property double z\nend_header\n")
        path.write_bytes(header.encode() + b"\x00" * 40)
        with pytest.raises(PlyError, match="cannot skip element 'face' with list property"):
            load_ply(path)

    def test_leading_element_skipped_ascii(self, tmp_path):
        path = tmp_path / "lead.ply"
        path.write_text(
            "ply\nformat ascii 1.0\n"
            "comment test cloud\n"
            "element camera 1\nproperty float fx\n"
            "element vertex 1\n"
            "property float x\nproperty float y\nproperty float z\nend_header\n"
            "3.14\n"
            "1 2 3\n")
        cloud = load_ply(path)
        assert cloud.points.tolist() == [[1.0, 2.0, 3.0]]

    def test_trailing_element_ignored(self, tmp_path):
        path = tmp_path / "trail.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\n"
            "element face 1\nproperty list uchar int vertex_indices\nend_header\n"
            "1 2 3\n"
            "3 0 0 0\n")
        assert load_ply(path).n == 1

    def test_list_property_in_vertex_rejected(self, tmp_path):
        path = tmp_path / "lst.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property list uchar float samples\nend_header\n"
            "0 0 0 0\n")
        with pytest.raises(PlyError, match="list property"):
            load_ply(path)
