"""The video catalog: one metadata record per ingested clip."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from ..errors import CatalogError
from ..workloads.taxonomy import VideoCategory

__all__ = ["CatalogEntry", "Catalog"]


@dataclass(frozen=True, slots=True)
class CatalogEntry:
    """Metadata for one video in the database.

    Attributes:
        video_id: unique identifier (the clip name by default).
        n_frames, rows, cols: clip geometry.
        fps: frame rate the clip was analyzed at.
        n_shots: shots found at ingest.
        category: optional genre/form classification (Sec. 4.1); when
            set, queries scoped to a category consider this video only
            if the categories overlap.
    """

    video_id: str
    n_frames: int
    rows: int
    cols: int
    fps: float
    n_shots: int
    category: VideoCategory | None = None

    def to_dict(self) -> dict[str, Any]:
        """Serialize to a JSON-compatible dict."""
        return {
            "video_id": self.video_id,
            "n_frames": self.n_frames,
            "rows": self.rows,
            "cols": self.cols,
            "fps": self.fps,
            "n_shots": self.n_shots,
            "category": None
            if self.category is None
            else {
                "genres": list(self.category.genres),
                "forms": list(self.category.forms),
            },
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "CatalogEntry":
        raw_category = payload.get("category")
        category = (
            None
            if raw_category is None
            else VideoCategory(
                genres=tuple(raw_category["genres"]),
                forms=tuple(raw_category["forms"]),
            )
        )
        return cls(
            video_id=payload["video_id"],
            n_frames=payload["n_frames"],
            rows=payload["rows"],
            cols=payload["cols"],
            fps=payload["fps"],
            n_shots=payload["n_shots"],
            category=category,
        )


class Catalog:
    """In-memory catalog with unique video ids."""

    def __init__(self) -> None:
        self._entries: dict[str, CatalogEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, video_id: str) -> bool:
        return video_id in self._entries

    def __iter__(self) -> Iterator[CatalogEntry]:
        return iter(self._entries.values())

    def add(self, entry: CatalogEntry) -> None:
        """Register a video; duplicate ids are an error."""
        if entry.video_id in self._entries:
            raise CatalogError(f"video {entry.video_id!r} already cataloged")
        self._entries[entry.video_id] = entry

    def get(self, video_id: str) -> CatalogEntry:
        """Fetch a video's record."""
        try:
            return self._entries[video_id]
        except KeyError:
            raise CatalogError(f"unknown video {video_id!r}") from None

    def remove(self, video_id: str) -> CatalogEntry:
        """Drop a video's record, returning it."""
        if video_id not in self._entries:
            raise CatalogError(f"unknown video {video_id!r}")
        return self._entries.pop(video_id)

    def ids(self) -> list[str]:
        """All video ids, in insertion order."""
        return list(self._entries)

    def in_category(self, category: VideoCategory) -> list[CatalogEntry]:
        """Videos whose classification overlaps ``category``.

        Uncategorized videos are excluded from scoped queries.
        """
        return [
            entry
            for entry in self._entries.values()
            if entry.category is not None and entry.category.overlaps(category)
        ]
