"""Streaming top-k spatial-temporal image search.

A sliding-window inverted quadtree (segments + per-node inverted files)
with best-first top-k search, two baseline indexes (inverted file append
and a 3D R-tree), a brute-force oracle, synthetic workload generation
and a benchmark harness.
"""

from .baselines import IfaIndex, StviiIndex
from .engine import ResultEntry, SearchStats, brute_force_oracle, top_k_search
from .hiq import HiqConfig, HiqIndex
from .model import (
    CorpusStats,
    GeoTemporalImage,
    Query,
    ScoreBreakdown,
    ScoreParams,
    SpatialDomain,
    combined_score,
    spatial_proximity,
    temporal_recency,
    visual_relevance,
    visual_weight,
)

__version__ = "0.1.0"

# the scoring kernels are plain Python; kept as a stamp for benchmark reports
KERNEL_BACKEND = "python"

__all__ = [
    "CorpusStats",
    "GeoTemporalImage",
    "HiqConfig",
    "HiqIndex",
    "IfaIndex",
    "KERNEL_BACKEND",
    "Query",
    "ResultEntry",
    "ScoreBreakdown",
    "ScoreParams",
    "SearchStats",
    "SpatialDomain",
    "StviiIndex",
    "brute_force_oracle",
    "combined_score",
    "spatial_proximity",
    "temporal_recency",
    "top_k_search",
    "visual_relevance",
    "visual_weight",
]
