import numpy as np
import pytest
from hypothesis import given, strategies as st

from fieldcluster import (
    DataError,
    ParameterError,
    PlyError,
    PointCloud,
    color_to_label,
    label_to_color,
    load_ply,
    save_ply,
)
from fieldcluster.pointcloud import colors_for_labels, labels_for_colors


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


class TestPlyLoader:
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

    def test_binary_float32_coordinates(self, tmp_path):
        rec = np.zeros(3, dtype=np.dtype([("x", "<f4"), ("y", "<f4"), ("z", "<f4")]))
        rec["x"] = [0.5, 1.5, 2.5]
        path = tmp_path / "f32.ply"
        header = ("ply\nformat binary_little_endian 1.0\nelement vertex 3\n"
                  "property float x\nproperty float y\nproperty float z\nend_header\n")
        path.write_bytes(header.encode() + rec.tobytes())
        cloud = load_ply(path)
        assert np.array_equal(cloud.points[:, 0], [0.5, 1.5, 2.5])

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
