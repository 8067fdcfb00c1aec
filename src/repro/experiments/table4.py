"""Table 4 — index tables for the two-movie corpus.

Ingests the 'Simon Birch' / 'Wag the Dog' stand-ins into a
:class:`~repro.vdbms.VideoDatabase` and emits each movie's index rows
(``Var^BA``, ``Var^OA``, ``sqrt(Var^BA)``, ``D^v``) in the paper's
Table 4 layout.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..vdbms.database import VideoDatabase
from ..workloads.movies import make_movie_corpus

__all__ = ["Table4Result", "run", "main"]


@dataclass(frozen=True, slots=True)
class Table4Result:
    """Index rows per movie, plus the database used to build them."""

    rows_by_movie: dict[str, list[dict[str, object]]]
    database: VideoDatabase


def run(scale: float = 1.0, seed: int = 2000) -> Table4Result:
    """Build the corpus, ingest both movies, and dump their index rows."""
    database = VideoDatabase()
    for clip, truth in make_movie_corpus(scale=scale, seed=seed):
        database.ingest(clip, archetypes=truth.archetypes_for_ranges)
    rows_by_movie: dict[str, list[dict[str, object]]] = {}
    for video_id in database.catalog.ids():
        rows = []
        for entry in sorted(
            database.index.entries_for(video_id),
            key=lambda e: e.shot_number,
        ):
            row = entry.to_row()
            row["archetype"] = entry.archetype
            rows.append(row)
        rows_by_movie[video_id] = rows
    return Table4Result(rows_by_movie=rows_by_movie, database=database)


def main() -> None:  # pragma: no cover - CLI entry
    """Print the paper-vs-measured comparison for this experiment."""
    from .report import format_table

    result = run()
    for movie, rows in result.rows_by_movie.items():
        print(format_table(rows[:15], title=f"Table 4 — index for {movie!r} (first 15 rows)"))
        print(f"({len(rows)} shots indexed)\n")


if __name__ == "__main__":  # pragma: no cover
    main()
