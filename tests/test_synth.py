from dataclasses import fields

import numpy as np
import pytest

from fieldcluster import (
    FieldSpec,
    ParameterError,
    Params,
    cluster,
    generate_field,
    match_clusters,
    parse_field_spec,
)
from fieldcluster.synth import _generate_plant as generate_plant, _rng


SMALL = FieldSpec(rows=2, cols=3, points_per_plant=80, double_plant_prob=0.0, seed=5)


class TestGeneratePlant:
    def test_exact_point_count(self):
        for ppp in (1, 7, 80, 333):
            spec = FieldSpec(points_per_plant=ppp)
            pts = generate_plant(spec, _rng(0, 1), (0.0, 0.0))
            assert pts.shape == (ppp, 3)

    def test_stem_only_projects_to_base(self):
        spec = FieldSpec(points_per_plant=50, leaf_count=0, noise_sigma=0.0)
        pts = generate_plant(spec, _rng(0, 1), (2.5, -1.0))
        assert np.array_equal(pts[:, 0], np.full(50, 2.5))
        assert np.array_equal(pts[:, 1], np.full(50, -1.0))

    def test_same_stream_bit_identical(self):
        spec = FieldSpec(points_per_plant=64)
        a = generate_plant(spec, _rng(9, 3), (0.0, 0.0))
        b = generate_plant(spec, _rng(9, 3), (0.0, 0.0))
        assert a.tobytes() == b.tobytes()

    def test_one_leaf_attaches_at_sixty_percent_of_the_stem(self):
        spec = FieldSpec(rows=1, cols=1, leaf_count=1, noise_sigma=0.0, position_jitter=0.0)
        field = generate_field(spec)
        assert field.n == spec.points_per_plant
        # the stem's 40% of the points come first; the leaf's first point
        # lies where it attaches, within 3% of the stem's height around 60%
        n_stem = round(spec.points_per_plant * 0.4)
        assert 0.57 <= field.points[n_stem, 2] / spec.stem_height <= 0.63


class TestGenerateField:
    def test_label_set_without_ground(self):
        field = generate_field(SMALL)
        assert np.array_equal(np.unique(field.labels), np.arange(1, 7))
        assert field.n == 6 * 80

    def test_label_set_with_ground(self):
        spec = FieldSpec(rows=2, cols=2, points_per_plant=40, double_plant_prob=0.0,
                         ground_point_density=50.0, seed=2)
        field = generate_field(spec)
        assert np.array_equal(np.unique(field.labels), np.arange(0, 5))
        assert (field.labels == 0).sum() > 0
        assert field.n == 4 * 40 + (field.labels == 0).sum()

    def test_every_plant_owns_exactly_ppp_points(self):
        field = generate_field(SMALL)
        counts = np.bincount(field.labels)[1:]
        assert (counts == 80).all()

    def test_deterministic_bit_identical(self):
        a = generate_field(SMALL)
        b = generate_field(SMALL)
        assert a.points.tobytes() == b.points.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_seed_changes_output(self):
        a = generate_field(SMALL)
        b = generate_field(FieldSpec(**{**SMALL.__dict__, "seed": 6}))
        assert a.points.tobytes() != b.points.tobytes()

    def test_double_plant_prob_one_doubles_labels(self):
        spec = FieldSpec(rows=2, cols=2, points_per_plant=10, double_plant_prob=1.0, seed=1)
        field = generate_field(spec)
        assert field.labels.max() == 8

    def test_double_plants_overlap_within_quarter_spacing(self):
        spec = FieldSpec(rows=3, cols=3, points_per_plant=5, double_plant_prob=1.0,
                         position_jitter=0.0, noise_sigma=0.0, leaf_count=0, seed=3)
        field = generate_field(spec)
        # consecutive labels at one position: compare stem bases (z == 0 points)
        for pos in range(9):
            a = field.points[field.labels == 2 * pos + 1][0, :2]
            b = field.points[field.labels == 2 * pos + 2][0, :2]
            assert np.hypot(*(a - b)) < spec.plant_spacing / 4

    def test_stem_recovery_exact(self):
        spec = FieldSpec(rows=2, cols=2, points_per_plant=50, leaf_count=0,
                         noise_sigma=0.0, double_plant_prob=0.0, seed=4)
        field = generate_field(spec)
        labels = cluster(field, Params("gdqspp", k=20, beta=0.3))
        report = match_clusters(labels, field.labels)
        assert report.mean_iou == 1.0
        assert labels.max() == 4

    @pytest.mark.parametrize("bad, message", [
        ({"plant_spacing": 0.0}, "row_spacing and plant_spacing must be positive"),
        ({"noise_sigma": -0.1}, "position_jitter and noise_sigma must be non-negative"),
        ({"stem_height": 0.0}, "stem_height must be positive"),
        ({"leaf_count": -1}, "leaf_count must be non-negative"),
        ({"leaf_length": 0.0}, "leaf_length must be positive"),
        ({"ground_point_density": -1.0}, "ground_point_density must be non-negative"),
    ])
    def test_validate_names_the_bad_field(self, bad, message):
        with pytest.raises(ParameterError, match=message):
            FieldSpec(**bad).validate()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", [f.name for f in fields(FieldSpec)
                                      if isinstance(f.default, float)])
    def test_non_finite_float_names_its_field(self, name, value):
        with pytest.raises(ParameterError, match=f"{name} must be finite"):
            FieldSpec(**{name: value})

    def test_spec_raises_when_built(self):
        with pytest.raises(ParameterError, match="grid must be at least 1x1, got 0x10"):
            FieldSpec(rows=0)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ParameterError):
            generate_field(FieldSpec(rows=0))
        with pytest.raises(ParameterError):
            generate_field(FieldSpec(double_plant_prob=1.5))
        with pytest.raises(ParameterError):
            generate_field(FieldSpec(points_per_plant=0))


class TestParseFieldSpec:
    def test_defaults_are_typed_like_their_fields(self):
        # parse_field_spec and the synth flags cast each value like its default
        assert {f.name: type(f.default).__name__ for f in fields(FieldSpec)} == \
            {f.name: f.type for f in fields(FieldSpec)}

    def test_round_trip_keys(self):
        text = """
        # a config
        rows = 3
        cols: 4
        plant_spacing = 0.3
        seed = 99
        """
        spec = parse_field_spec(text)
        assert (spec.rows, spec.cols, spec.plant_spacing, spec.seed) == (3, 4, 0.3, 99)
        assert spec.points_per_plant == FieldSpec().points_per_plant

    def test_unknown_key(self):
        with pytest.raises(ParameterError, match="unknown config key"):
            parse_field_spec("wibble = 3")

    def test_bad_value(self):
        with pytest.raises(ParameterError, match="cannot parse"):
            parse_field_spec("rows = many")

    def test_bad_line(self):
        with pytest.raises(ParameterError, match="line 1"):
            parse_field_spec("just some words")
