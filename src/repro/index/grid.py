"""Quantized-grid index — the paper's alternative inexact-match scheme.

Sec. 4.2: "We note that another common way to handle inexact queries
is to do matching on quantized data."  This module implements that
alternative so the two can be compared: the ``(D^v, sqrt(Var^BA))``
plane is cut into cells of size ``(alpha, beta)``; each entry lives in
one cell, and a query inspects its own cell plus the 8 neighbors —
every exact Eq. 7-8 match is guaranteed to be inside that 3x3
neighborhood (a box of half-width alpha/beta can only straddle
adjacent cells), after which the exact predicate filters the
candidates.

Compared with the sorted index (:mod:`repro.index.columnar`):
lookups are O(candidates) with a hash per cell instead of two binary
searches, inserts are O(1), but the cell size is baked in at build
time — querying with a different alpha/beta than the grid was built
for falls back to widening the neighborhood accordingly.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

from ..config import QueryConfig
from ..errors import IndexError_
from .query import VarianceQuery, entry_matches
from .table import IndexEntry

__all__ = ["QuantizedGridIndex"]


class QuantizedGridIndex:
    """Hash-grid index over the ``(D^v, sqrt(Var^BA))`` plane.

    Args:
        alpha: cell width along ``D^v`` (defaults to the paper's 1.0).
        beta: cell height along ``sqrt(Var^BA)``.
    """

    def __init__(
        self,
        entries: Iterable[IndexEntry] = (),
        alpha: float = 1.0,
        beta: float = 1.0,
    ) -> None:
        if alpha <= 0 or beta <= 0:
            raise IndexError_(
                f"cell dimensions must be positive, got alpha={alpha} beta={beta}"
            )
        self.alpha = alpha
        self.beta = beta
        self._cells: dict[tuple[int, int], list[IndexEntry]] = {}
        self._count = 0
        for entry in entries:
            self.insert(entry)

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------

    def _cell_of(self, d_v: float, sqrt_var_ba: float) -> tuple[int, int]:
        return (
            math.floor(d_v / self.alpha),
            math.floor(sqrt_var_ba / self.beta),
        )

    def insert(self, entry: IndexEntry) -> None:
        """Hash the entry into its cell; O(1)."""
        cell = self._cell_of(entry.d_v, entry.sqrt_var_ba)
        self._cells.setdefault(cell, []).append(entry)
        self._count += 1

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[IndexEntry]:
        for bucket in self._cells.values():
            yield from bucket

    @property
    def n_cells(self) -> int:
        """Occupied cells (diagnostics for the bench)."""
        return len(self._cells)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def candidates(
        self, query: VarianceQuery, config: QueryConfig | None = None
    ) -> list[IndexEntry]:
        """Entries in the cells the query box can reach (superset of
        the exact answer)."""
        config = config or QueryConfig()
        # Neighborhood radius in cells: 1 when the query tolerance
        # equals the cell size, more if the caller asks for a wider box
        # than the grid was built for.
        radius_d = max(1, math.ceil(config.alpha / self.alpha))
        radius_b = max(1, math.ceil(config.beta / self.beta))
        center = self._cell_of(query.d_v, query.sqrt_var_ba)
        found: list[IndexEntry] = []
        for dd in range(-radius_d, radius_d + 1):
            for db in range(-radius_b, radius_b + 1):
                found.extend(
                    self._cells.get((center[0] + dd, center[1] + db), ())
                )
        return found

    def search(
        self,
        query: VarianceQuery,
        config: QueryConfig | None = None,
        limit: int | None = None,
        exclude_shot: tuple[str, int] | None = None,
    ) -> list[IndexEntry]:
        """Exact Eq. 7-8 answer via the grid (same contract as the
        columnar index and the table scan)."""
        config = config or QueryConfig()
        matches = [
            entry
            for entry in self.candidates(query, config)
            if entry_matches(entry, query, config)
            and (entry.video_id, entry.shot_number) != exclude_shot
        ]
        matches.sort(key=query.rank_distance)
        return matches if limit is None else matches[:limit]
