"""The index table of Table 4.

One :class:`IndexEntry` per shot records the clip it came from, its
frame range, and the variance feature vector.  :class:`IndexTable` is
the in-memory collection with convenience constructors from detection
results; the scan-based query path lives in :mod:`repro.index.query`
and the sub-linear one in :mod:`repro.index.columnar`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from ..errors import IndexError_
from ..features.vector import FeatureVector, extract_shot_features
from ..sbd.detector import DetectionResult

__all__ = ["IndexEntry", "IndexTable"]


@dataclass(frozen=True, slots=True)
class IndexEntry:
    """One row of the index table (Table 4).

    Attributes:
        video_id: identifier of the clip the shot belongs to.
        shot_number: 1-based shot number within the clip (paper style).
        start_frame, end_frame: 1-based inclusive frame range.
        features: the shot's ``(Var^BA, Var^OA)`` vector.
        archetype: optional content label carried from synthetic ground
            truth (used by the retrieval evaluation, not by queries).
    """

    video_id: str
    shot_number: int
    start_frame: int
    end_frame: int
    features: FeatureVector
    archetype: str | None = None

    @property
    def shot_id(self) -> str:
        """Paper-style shot id, e.g. ``"#12W"`` → here ``"#12@Wag the Dog"``."""
        return f"#{self.shot_number}@{self.video_id}"

    @property
    def d_v(self) -> float:
        return self.features.d_v

    @property
    def sqrt_var_ba(self) -> float:
        return self.features.sqrt_var_ba

    def to_row(self) -> dict[str, Any]:
        """Render the entry like a Table 4 row."""
        return {
            "shot": self.shot_id,
            "start_frame": self.start_frame,
            "end_frame": self.end_frame,
            "var_ba": round(self.features.var_ba, 2),
            "var_oa": round(self.features.var_oa, 2),
            "sqrt_var_ba": round(self.features.sqrt_var_ba, 2),
            "d_v": round(self.features.d_v, 2),
        }


class IndexTable:
    """An append-only collection of index entries across clips."""

    def __init__(self, entries: Iterable[IndexEntry] = ()) -> None:
        self._entries: list[IndexEntry] = list(entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[IndexEntry]:
        return iter(self._entries)

    def __getitem__(self, position: int) -> IndexEntry:
        return self._entries[position]

    @property
    def entries(self) -> list[IndexEntry]:
        """The entries, in insertion order (copy-safe view)."""
        return list(self._entries)

    def add(self, entry: IndexEntry) -> None:
        """Append one entry."""
        self._entries.append(entry)

    def add_detection_result(
        self,
        result: DetectionResult,
        video_id: str | None = None,
        archetypes: dict[int, str] | None = None,
    ) -> list[IndexEntry]:
        """Index every shot of a detection result.

        Args:
            result: the segmented clip with its features.
            video_id: identifier to store (defaults to the clip name).
            archetypes: optional map of 0-based shot index → content
                label (ground truth from the synthetic workloads).

        Returns the entries added, in shot order.
        """
        video_id = video_id or result.clip_name
        vectors = extract_shot_features(result)
        added: list[IndexEntry] = []
        for shot, vector in zip(result.shots, vectors):
            entry = IndexEntry(
                video_id=video_id,
                shot_number=shot.number,
                start_frame=shot.start_frame_number,
                end_frame=shot.end_frame_number,
                features=vector,
                archetype=(archetypes or {}).get(shot.index),
            )
            self._entries.append(entry)
            added.append(entry)
        return added

    def for_video(self, video_id: str) -> list[IndexEntry]:
        """Entries of one clip, in shot order."""
        rows = [e for e in self._entries if e.video_id == video_id]
        if not rows:
            raise IndexError_(f"no index entries for video {video_id!r}")
        return sorted(rows, key=lambda e: e.shot_number)

    def lookup(self, video_id: str, shot_number: int) -> IndexEntry:
        """Fetch one entry by clip and 1-based shot number."""
        for entry in self._entries:
            if entry.video_id == video_id and entry.shot_number == shot_number:
                return entry
        raise IndexError_(f"no entry for shot #{shot_number} of {video_id!r}")

    def to_rows(self, video_id: str | None = None) -> list[dict[str, Any]]:
        """Render (a subset of) the table as Table 4-style rows."""
        entries = self.for_video(video_id) if video_id else self._entries
        return [entry.to_row() for entry in entries]
