"""Scalar reference implementations that the tests compare the package's
vectorized code against; the package itself calls none of them."""

from fieldcluster import ParameterError
from fieldcluster.pointcloud import _LABEL_SPACE, _PALETTE_INVERSE, _PALETTE_MULTIPLIER


def iou(a, b) -> float:
    """Intersection over union of two index sets; 0.0 when both are empty."""
    sa, sb = set(a), set(b)
    union = len(sa | sb)
    if union == 0:
        return 0.0
    return len(sa & sb) / union


def total_iou(report) -> float:
    """Summed IoU over the matched pairs of a ``MatchReport``."""
    return float(sum(p[2] for p in report.pairs))


def label_to_color(label: int) -> tuple[int, int, int]:
    """Map a non-negative label to a deterministic, injective RGB triple.

    Label 0 (ground/unlabeled) is the only label colored black. Labels must
    be below 2^24.
    """
    if label < 0 or label >= _LABEL_SPACE:
        raise ParameterError(f"label {label} outside palette range [0, 2^24)")
    h = (label * _PALETTE_MULTIPLIER) % _LABEL_SPACE
    return ((h >> 16) & 0xFF, (h >> 8) & 0xFF, h & 0xFF)


def color_to_label(rgb: tuple[int, int, int]) -> int:
    """Exact inverse of :func:`label_to_color` (total on 24-bit color space)."""
    r, g, b = rgb
    v = ((int(r) & 0xFF) << 16) | ((int(g) & 0xFF) << 8) | (int(b) & 0xFF)
    return (v * _PALETTE_INVERSE) % _LABEL_SPACE
