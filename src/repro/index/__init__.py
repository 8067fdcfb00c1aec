"""Cost-effective variance-based indexing (Sec. 4).

* :mod:`repro.index.table` — the index table of Table 4: one entry per
  shot with ``(Var^BA, Var^OA, sqrt(Var^BA), D^v)``;
* :mod:`repro.index.query` — the similarity model of Eqs. 7-8 with
  tolerances alpha = beta = 1.0, and the table scan that is the ground
  truth of every query;
* :mod:`repro.index.columnar` — the query engine: an index sorted by
  ``D^v`` answering range queries in O(log n + k) instead of a table
  scan, packed into parallel numpy columns with vectorized single +
  batched search and a checksummed binary serialization,
  decision-identical to the scan;
* :mod:`repro.index.routing` — mapping matching shots to the largest
  scene-tree nodes sharing their representative frame, the browsing
  hand-off of Sec. 4.2.
"""

from .table import IndexEntry, IndexTable
from .query import VarianceQuery, entry_matches, search
from .columnar import ColumnarVarianceIndex
from .routing import route_to_scene_nodes
from .extended import ExtendedEntry, ExtendedVarianceIndex
from .grid import QuantizedGridIndex
from .stats import IndexStatistics, compute_index_statistics

__all__ = [
    "IndexEntry",
    "IndexTable",
    "VarianceQuery",
    "entry_matches",
    "search",
    "ColumnarVarianceIndex",
    "route_to_scene_nodes",
    "ExtendedEntry",
    "ExtendedVarianceIndex",
    "QuantizedGridIndex",
    "IndexStatistics",
    "compute_index_statistics",
]
