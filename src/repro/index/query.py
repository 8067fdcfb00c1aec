"""The variance-based similarity model (Sec. 4.2, Eqs. 7-8).

A user "expresses the impression of how much things are changing in
the background and object areas" as a pair ``(Var_q^BA, Var_q^OA)``.
The system computes ``D_q^v = sqrt(Var_q^BA) - sqrt(Var_q^OA)`` and
returns every shot ``i`` with

    D_q^v - alpha <= D_i^v <= D_q^v + alpha                    (Eq. 7)
    sqrt(Var_q^BA) - beta <= sqrt(Var_i^BA) <= sqrt(...) + beta (Eq. 8)

with alpha = beta = 1.0 by default.  Matches are *ranked* (for
presentation only) by distance in the ``(D^v, sqrt(Var^BA))`` plane,
reproducing the "three most similar shots" of Figs. 8-10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from ..config import QueryConfig
from ..errors import QueryError
from ..features.vector import FeatureVector
from .table import IndexEntry, IndexTable

__all__ = ["VarianceQuery", "entry_matches", "query_points", "search"]


@dataclass(frozen=True, slots=True)
class VarianceQuery:
    """A similarity query over the variance index.

    Attributes:
        var_ba: queried background variance ``Var_q^BA``.
        var_oa: queried object-area variance ``Var_q^OA``.
        sqrt_var_ba: ``sqrt(Var_q^BA)``, cached at construction (a
            query is compared against every entry in the Eq. 7 band,
            so recomputing the square roots per comparison is pure
            waste).
        d_v: ``D_q^v = sqrt(Var_q^BA) - sqrt(Var_q^OA)``, cached
            likewise.
    """

    var_ba: float
    var_oa: float
    sqrt_var_ba: float = field(init=False, repr=False, compare=False)
    d_v: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Written so NaN fails too: it compares False with everything.
        if not (0 <= self.var_ba < math.inf and 0 <= self.var_oa < math.inf):
            raise QueryError(
                f"query variances must be finite and non-negative, got "
                f"({self.var_ba}, {self.var_oa})"
            )
        object.__setattr__(self, "sqrt_var_ba", math.sqrt(self.var_ba))
        object.__setattr__(
            self, "d_v", self.sqrt_var_ba - math.sqrt(self.var_oa)
        )

    @classmethod
    def from_features(cls, features: FeatureVector) -> "VarianceQuery":
        """Query-by-example: use an indexed shot's vector as the query."""
        return cls(var_ba=features.var_ba, var_oa=features.var_oa)

    def rank_distance(self, entry: IndexEntry) -> float:
        """Presentation ranking distance to an entry (not a match test).

        Computed as ``sqrt(dx*dx + dy*dy)`` rather than ``math.hypot``:
        multiply, add, and sqrt are correctly rounded under IEEE 754,
        so the vectorized columnar engine (numpy, same three
        operations) produces bit-identical distances — ``hypot``
        implementations are only accurate to ~1 ulp and may disagree
        between the scalar and vector paths, which would break the
        cross-searcher decision-identity contract.  Overflow is not a
        concern at realistic variance magnitudes (pixel variances are
        bounded by 255^2).
        """
        dx = self.d_v - entry.d_v
        dy = self.sqrt_var_ba - entry.sqrt_var_ba
        return math.sqrt(dx * dx + dy * dy)

    def rank_key(self, entry: IndexEntry) -> tuple[float, float, float, str, int]:
        """A *total* presentation order over entries.

        :meth:`rank_distance` alone leaves ties (two shots equidistant
        in the ``(D^v, sqrt(Var^BA))`` plane) ordered by whatever the
        caller scanned first, which differs between a single index and
        a sharded one.  Breaking ties by the entry's own coordinates
        and identity makes every searcher — the scan, the sorted index,
        and a scatter-gather merge across shards — produce the exact
        same ranking, which the cluster layer relies on for
        decision-identical answers.
        """
        return (
            self.rank_distance(entry),
            entry.d_v,
            entry.sqrt_var_ba,
            entry.video_id,
            entry.shot_number,
        )


def query_points(queries: Any) -> list[tuple[float, float]]:
    """The ``(Var^BA, Var^OA)`` points of a batch request: ``queries``
    must be a non-empty list of ``{"var_ba": .., "var_oa": ..}``
    objects (``POST /query/batch`` and ``repro query --batch-file``).
    Raises :class:`QueryError` naming the first bad item."""
    if not isinstance(queries, list) or not queries:
        raise QueryError("'queries' must be a non-empty list of query objects")
    points: list[tuple[float, float]] = []
    for k, item in enumerate(queries):
        if not isinstance(item, dict):
            raise QueryError(f"query {k} is not an object")
        try:
            points.append((float(item["var_ba"]), float(item["var_oa"])))
        except KeyError as exc:
            raise QueryError(f"query {k} is missing {exc.args[0]!r}") from exc
        except (TypeError, ValueError) as exc:
            raise QueryError(f"query {k} has non-numeric variances") from exc
    return points


def entry_matches(
    entry: IndexEntry, query: VarianceQuery, config: QueryConfig | None = None
) -> bool:
    """Eqs. 7-8: does ``entry`` fall inside the query's tolerance box?"""
    config = config or QueryConfig()
    if not (query.d_v - config.alpha <= entry.d_v <= query.d_v + config.alpha):
        return False
    return (
        query.sqrt_var_ba - config.beta
        <= entry.sqrt_var_ba
        <= query.sqrt_var_ba + config.beta
    )


def search(
    table: IndexTable,
    query: VarianceQuery,
    config: QueryConfig | None = None,
    limit: int | None = None,
    exclude_shot: tuple[str, int] | None = None,
) -> list[IndexEntry]:
    """Scan the index table and return matching shots, most similar first.

    Args:
        table: the index to search.
        query: the impression query.
        config: alpha/beta tolerances (paper defaults).
        limit: return at most this many matches (None = all).
        exclude_shot: optional ``(video_id, shot_number)`` removed from
            the results — used in query-by-example so the probe shot
            does not match itself.

    Returns matches ordered by :meth:`VarianceQuery.rank_distance`.
    """
    config = config or QueryConfig()
    matches = [
        entry
        for entry in table
        if entry_matches(entry, query, config)
        and (entry.video_id, entry.shot_number) != exclude_shot
    ]
    matches.sort(key=query.rank_key)
    return matches if limit is None else matches[:limit]
