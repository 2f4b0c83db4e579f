"""Scalable density-based pre-clustering of crop-field point clouds.

Partitions a gravity-aligned field cloud into clusters that roughly
correspond to individual plants, using four mode-seeking algorithms over a
shared kD-tree index, plus synthetic ground-truth generation and IoU-matching
evaluation.
"""

from .cluster import (
    CoreSet,
    DensityField,
    Params,
    ParentForest,
    cluster,
    extract_cores,
    forest_to_labels,
    gdqs_parents,
    gdqspp_assign,
    knn_density_2d,
    rain_parents,
    zqs_parents,
)
from .errors import (
    ContractError,
    DataError,
    FieldClusterError,
    ParameterError,
    PlyError,
)
from .evaluation import CountReport, MatchReport, count_report, iou, match_clusters
from .pointcloud import (
    PointCloud,
    color_to_label,
    label_to_color,
    load_ply,
    save_ply,
)
from .spatial import SpatialIndex
from .synth import FieldSpec, generate_field, generate_plant, parse_field_spec

__version__ = "0.1.0"

__all__ = [
    "CoreSet", "DensityField", "Params", "ParentForest", "cluster",
    "extract_cores", "forest_to_labels", "gdqs_parents", "gdqspp_assign",
    "knn_density_2d", "rain_parents", "zqs_parents",
    "ContractError", "DataError", "FieldClusterError", "ParameterError", "PlyError",
    "CountReport", "MatchReport", "count_report", "iou", "match_clusters",
    "PointCloud", "color_to_label", "label_to_color", "load_ply", "save_ply",
    "SpatialIndex",
    "FieldSpec", "generate_field", "generate_plant", "parse_field_spec",
    "__version__",
]
