"""repro — reproduction of Oh & Hua, SIGMOD 2000.

*Efficient and Cost-effective Techniques for Browsing and Indexing
Large Video Databases*: camera-tracking shot boundary detection, scene
trees for non-linear browsing, and a variance-based video similarity
index, integrated behind :class:`~repro.vdbms.VideoDatabase`.

Quickstart::

    from repro import VideoDatabase
    from repro.workloads import make_figure5_clip

    clip, truth = make_figure5_clip()
    db = VideoDatabase()
    report = db.ingest(clip)
    answer = db.query_by_shot(clip.name, shot_number=1, limit=3)
    for suggestion in answer.suggestions:
        print(suggestion)   # e.g. "#3@figure5 -> SN_1^1"

See DESIGN.md for the paper-to-module map and EXPERIMENTS.md for the
reproduced tables and figures.
"""

from .config import (
    ExtractionConfig,
    PipelineConfig,
    QueryConfig,
    RegionConfig,
    SBDConfig,
    SceneTreeConfig,
)
from .errors import ReproError
from .features.vector import FeatureVector, extract_shot_features
from .index.columnar import ColumnarVarianceIndex
from .index.query import VarianceQuery
from .index.table import IndexEntry, IndexTable
from .sbd.detector import CameraTrackingDetector, DetectionResult
from .sbd.shots import Shot
from .scenetree.browse import BrowsingSession
from .scenetree.builder import SceneTreeBuilder, build_scene_tree
from .scenetree.nodes import SceneNode, SceneTree
from .signature.extract import SignatureExtractor
from .vdbms.database import VideoDatabase
from .video.clip import VideoClip

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    "ExtractionConfig",
    "PipelineConfig",
    "RegionConfig",
    "SBDConfig",
    "SceneTreeConfig",
    "QueryConfig",
    "VideoClip",
    "SignatureExtractor",
    "CameraTrackingDetector",
    "DetectionResult",
    "Shot",
    "SceneTreeBuilder",
    "build_scene_tree",
    "SceneNode",
    "SceneTree",
    "BrowsingSession",
    "FeatureVector",
    "extract_shot_features",
    "IndexTable",
    "IndexEntry",
    "VarianceQuery",
    "ColumnarVarianceIndex",
    "VideoDatabase",
]
