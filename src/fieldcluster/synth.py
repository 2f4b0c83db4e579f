"""Deterministic generator of labeled, corn-like synthetic field point clouds.

Plants sit on a rows x cols grid with per-position jitter; each plant is a
vertical stem (coincident in the ground-plane projection up to the noise
level) plus arc-shaped leaves. A position holds two overlapping plants with
probability ``double_plant_prob`` (the hardest separation case). Optional
ground points carry label 0; plants are labeled 1..N in grid order.

All randomness flows through counter-based Philox streams keyed by
(seed, stream id), so every plant is generated independently of generation
order and the output is bit-identical for equal specs at any thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ParameterError
from .pointcloud import PointCloud

__all__ = ["FieldSpec", "generate_field", "parse_field_spec"]

# stream-id bases for the (seed, stream) Philox keys
_POSITION_STREAM = 1 << 32
_GROUND_STREAM = 1 << 33


@dataclass(frozen=True)
class FieldSpec:
    """Parameters of a synthetic field, checked when built; see generate_field."""

    rows: int = 10
    cols: int = 10
    row_spacing: float = 0.76
    plant_spacing: float = 0.25
    position_jitter: float = 0.03
    points_per_plant: int = 1000
    stem_height: float = 1.2
    leaf_count: int = 6
    leaf_length: float = 0.25
    double_plant_prob: float = 0.05
    ground_point_density: float = 0.0
    noise_sigma: float = 0.005
    seed: int = 0

    def __post_init__(self) -> None:
        # NaN passes most range checks below, and inf fails only in generate_field
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, float) and not math.isfinite(value):
                raise ParameterError(f"{f.name} must be finite, got {value}")
        if self.rows < 1 or self.cols < 1:
            raise ParameterError(f"grid must be at least 1x1, got {self.rows}x{self.cols}")
        if self.row_spacing <= 0 or self.plant_spacing <= 0:
            raise ParameterError("row_spacing and plant_spacing must be positive")
        if self.position_jitter < 0 or self.noise_sigma < 0:
            raise ParameterError("position_jitter and noise_sigma must be non-negative")
        if self.points_per_plant < 1:
            raise ParameterError(f"points_per_plant must be positive, got {self.points_per_plant}")
        if self.stem_height <= 0:
            raise ParameterError(f"stem_height must be positive, got {self.stem_height}")
        if self.leaf_count < 0:
            raise ParameterError(f"leaf_count must be non-negative, got {self.leaf_count}")
        if self.leaf_count > 0 and self.leaf_length <= 0:
            raise ParameterError(f"leaf_length must be positive, got {self.leaf_length}")
        if not 0.0 <= self.double_plant_prob <= 1.0:
            raise ParameterError(f"double_plant_prob must lie in [0, 1], got {self.double_plant_prob}")
        if self.ground_point_density < 0:
            raise ParameterError(f"ground_point_density must be non-negative, got {self.ground_point_density}")


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed % (1 << 64), stream]))


def _generate_plant(spec: FieldSpec, rng: np.random.Generator,
                   base: tuple[float, float]) -> np.ndarray:
    """One plant at the given ground position: exactly points_per_plant points.

    Stem points lie on a noisy vertical segment; each leaf is a circular arc
    in a random vertical plane through the stem, attached at its own height.
    """
    ppp = spec.points_per_plant
    bx, by = base
    if spec.leaf_count == 0:
        n_stem = ppp
        leaf_sizes: list[int] = []
    else:
        n_stem = max(1, round(ppp * 0.4))
        per, rem = divmod(ppp - n_stem, spec.leaf_count)
        leaf_sizes = [per + (1 if j < rem else 0) for j in range(spec.leaf_count)]

    parts = []
    z = np.linspace(0.0, spec.stem_height, n_stem)
    stem = np.column_stack([np.full(n_stem, bx), np.full(n_stem, by), z])
    parts.append(stem + rng.normal(0.0, spec.noise_sigma, (n_stem, 3)))

    for j, nj in enumerate(leaf_sizes):
        if nj == 0:
            continue
        if spec.leaf_count > 1:
            frac = 0.3 + 0.6 * j / (spec.leaf_count - 1)
        else:
            frac = 0.6
        attach_z = spec.stem_height * (frac + rng.uniform(-0.03, 0.03))
        azimuth = rng.uniform(0.0, 2.0 * math.pi)
        elev = rng.uniform(0.6, 1.0)           # launch angle above horizontal
        arc = rng.uniform(1.2, 1.8)            # total turn of the arc (rad)
        radius = spec.leaf_length / arc
        s = np.linspace(0.0, arc, nj)
        radial = radius * (np.sin(s) * math.cos(elev) + (1.0 - np.cos(s)) * math.sin(elev))
        vert = attach_z + radius * (np.sin(s) * math.sin(elev) - (1.0 - np.cos(s)) * math.cos(elev))
        leaf = np.column_stack([bx + radial * math.cos(azimuth),
                                by + radial * math.sin(azimuth),
                                vert])
        parts.append(leaf + rng.normal(0.0, spec.noise_sigma, (nj, 3)))

    return np.concatenate(parts, axis=0)


def generate_field(spec: FieldSpec) -> PointCloud:
    """Labeled synthetic field; deterministic in spec.seed."""
    plants: list[tuple[int, float, float]] = []  # (label, base x, base y)
    next_label = 1
    for r in range(spec.rows):
        for c in range(spec.cols):
            pos = r * spec.cols + c
            prng = _rng(spec.seed, _POSITION_STREAM + pos)
            jx, jy = prng.uniform(-spec.position_jitter, spec.position_jitter, 2)
            bx = r * spec.row_spacing + jx
            by = c * spec.plant_spacing + jy
            plants.append((next_label, bx, by))
            next_label += 1
            if prng.random() < spec.double_plant_prob:
                angle = prng.uniform(0.0, 2.0 * math.pi)
                dist = prng.uniform(0.0, spec.plant_spacing / 4.0)
                plants.append((next_label, bx + dist * math.cos(angle),
                               by + dist * math.sin(angle)))
                next_label += 1

    # per-plant streams keyed by label: order independent, parallelizable
    chunks = [_generate_plant(spec, _rng(spec.seed, label), (bx, by))
              for label, bx, by in plants]
    labels = [np.full(spec.points_per_plant, label, dtype=np.int64)
              for label, _, _ in plants]

    x_lo, x_hi = -spec.row_spacing / 2.0, (spec.rows - 0.5) * spec.row_spacing
    y_lo, y_hi = -spec.plant_spacing / 2.0, (spec.cols - 0.5) * spec.plant_spacing
    area = (x_hi - x_lo) * (y_hi - y_lo)
    n_ground = round(spec.ground_point_density * area)
    if n_ground > 0:
        grng = _rng(spec.seed, _GROUND_STREAM)
        ground = np.column_stack([
            grng.uniform(x_lo, x_hi, n_ground),
            grng.uniform(y_lo, y_hi, n_ground),
            grng.normal(0.0, spec.noise_sigma, n_ground),
        ])
        chunks.append(ground)
        labels.append(np.zeros(n_ground, dtype=np.int64))

    return PointCloud(np.concatenate(chunks, axis=0), np.concatenate(labels))


# every field is typed like its default; the synth flags share this table
_FIELD_TYPES = {f.name: type(f.default) for f in fields(FieldSpec)}


def parse_field_spec(text: str) -> FieldSpec:
    """FieldSpec from a flat key-value config ('key = value' or 'key: value',
    '#' comments)."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        for sep in ("=", ":"):
            if sep in line:
                key, _, val = line.partition(sep)
                break
        else:
            raise ParameterError(f"config line {lineno} is not 'key = value': {raw!r}")
        key = key.strip()
        val = val.strip()
        if key not in _FIELD_TYPES:
            raise ParameterError(f"unknown config key {key!r} on line {lineno}")
        caster = _FIELD_TYPES[key]
        try:
            values[key] = caster(val)
        except ValueError:
            raise ParameterError(
                f"config line {lineno}: cannot parse {val!r} as {caster.__name__}") from None
    return FieldSpec(**values)
