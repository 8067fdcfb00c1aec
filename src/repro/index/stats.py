"""Index introspection: distribution statistics for operators.

A database administrator tuning the query tolerances (or diagnosing
why a query returns nothing) needs to see how the indexed shots are
distributed over the ``(D^v, sqrt(Var^BA))`` plane.  This module
computes the summary a DBA would ask for: per-video entry counts,
percentiles of both query coordinates, the expected number of matches
an average query box contains, and a coarse occupancy histogram.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..config import QueryConfig
from ..errors import IndexError_
from .table import IndexEntry

__all__ = ["IndexStatistics", "compute_index_statistics"]

_PERCENTILES = (0, 25, 50, 75, 100)


@dataclass(frozen=True, slots=True)
class IndexStatistics:
    """Distribution summary of one index's entries.

    Attributes:
        n_entries: total indexed shots.
        n_videos: distinct videos.
        entries_per_video: video id → shot count.
        d_v_percentiles: (0, 25, 50, 75, 100)th percentiles of ``D^v``.
        sqrt_var_ba_percentiles: same for ``sqrt(Var^BA)``.
        mean_box_occupancy: expected number of entries inside an
            alpha/beta query box centered on a uniformly-chosen entry —
            the "how selective is a typical query" number.
        histogram: coarse 2-D occupancy counts over (D^v, sqrt(Var^BA))
            cells of size (alpha, beta).
    """

    n_entries: int
    n_videos: int
    entries_per_video: dict[str, int]
    d_v_percentiles: tuple[float, ...]
    sqrt_var_ba_percentiles: tuple[float, ...]
    mean_box_occupancy: float
    histogram: dict[tuple[int, int], int]

    def to_rows(self) -> list[dict[str, object]]:
        """Percentile table for the report formatter."""
        return [
            {
                "percentile": p,
                "d_v": round(d, 2),
                "sqrt_var_ba": round(s, 2),
            }
            for p, d, s in zip(
                _PERCENTILES, self.d_v_percentiles, self.sqrt_var_ba_percentiles
            )
        ]


def compute_index_statistics(
    entries: Iterable[IndexEntry] | Sequence[IndexEntry],
    config: QueryConfig | None = None,
) -> IndexStatistics:
    """Summarize an index's feature distribution.

    Accepts any iterable of entries (an :class:`IndexTable`, a
    :class:`~repro.index.columnar.ColumnarVarianceIndex`'s
    ``entries``, ...).
    """
    config = config or QueryConfig()
    entry_list = list(entries)
    if not entry_list:
        raise IndexError_("cannot summarize an empty index")
    d_v = np.array([entry.d_v for entry in entry_list])
    sqrt_ba = np.array([entry.sqrt_var_ba for entry in entry_list])
    per_video: dict[str, int] = {}
    for entry in entry_list:
        per_video[entry.video_id] = per_video.get(entry.video_id, 0) + 1
    # Mean query-box occupancy: for each entry, how many entries fall
    # inside its alpha/beta box (the entry itself included).
    inside = (
        (np.abs(d_v[:, None] - d_v[None, :]) <= config.alpha)
        & (np.abs(sqrt_ba[:, None] - sqrt_ba[None, :]) <= config.beta)
    )
    occupancy = float(inside.sum(axis=1).mean())
    histogram: dict[tuple[int, int], int] = {}
    for d, s in zip(d_v, sqrt_ba):
        cell = (int(np.floor(d / config.alpha)), int(np.floor(s / config.beta)))
        histogram[cell] = histogram.get(cell, 0) + 1
    return IndexStatistics(
        n_entries=len(entry_list),
        n_videos=len(per_video),
        entries_per_video=per_video,
        d_v_percentiles=tuple(float(np.percentile(d_v, p)) for p in _PERCENTILES),
        sqrt_var_ba_percentiles=tuple(
            float(np.percentile(sqrt_ba, p)) for p in _PERCENTILES
        ),
        mean_box_occupancy=occupancy,
        histogram=histogram,
    )
