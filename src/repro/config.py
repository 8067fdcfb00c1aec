"""Parameter dataclasses with the paper's default values.

The paper (Oh & Hua, SIGMOD 2000) is explicit about a handful of
constants — the 10 % frame-width rule for the background strip
(Sec. 2.2), the 10 % sign tolerance of algorithm *RELATIONSHIP*
(Eq. 2), and the query tolerances alpha = beta = 1.0 (Sec. 4.2).  The
remaining thresholds of the three-stage detector (Fig. 4) are only
described qualitatively; our concrete defaults are recorded here and
justified in DESIGN.md so that every experiment is reproducible from
configuration alone.

All config objects are frozen dataclasses: they can be shared freely
between threads and used as dict keys, and an experiment's parameters
cannot drift mid-run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from .errors import DimensionError, QueryError

__all__ = [
    "RegionConfig",
    "ExtractionConfig",
    "SBDConfig",
    "SceneTreeConfig",
    "QueryConfig",
    "PipelineConfig",
]


@dataclass(frozen=True, slots=True)
class RegionConfig:
    """Geometry of the fixed background/object areas (Sec. 2.2).

    Attributes:
        width_fraction: the estimated strip width ``w'`` as a fraction of
            the frame width ``c``; the paper uses ``w' = floor(c / 10)``,
            i.e. ``0.1``.
        snap_to_size_set: when True (paper behaviour), the estimated
            dimensions ``w', h', b', L'`` are snapped to the Gaussian
            Pyramid size set ``{1, 5, 13, 29, 61, 125, ...}`` using the
            nearest-value rule of Table 1.
    """

    width_fraction: float = 0.1
    snap_to_size_set: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.width_fraction < 0.5:
            raise DimensionError(
                f"width_fraction must be in (0, 0.5), got {self.width_fraction}"
            )

    def estimated_strip_width(self, frame_width: int) -> int:
        """Return ``w' = floor(c * width_fraction)`` (at least 1)."""
        return max(1, int(frame_width * self.width_fraction))


@dataclass(frozen=True, slots=True)
class ExtractionConfig:
    """Execution knobs of the signature-extraction fast path.

    Neither changes the extracted features — chunking and parallelism
    only reorder the same computations.  See docs/PERFORMANCE.md for
    how to choose values.

    Attributes:
        chunk_frames: process clips in blocks of at most this many
            frames, bounding peak intermediate memory on long clips.
            None extracts the whole clip in one block.
        workers: number of threads extracting chunks concurrently
            (>= 2 enables a thread pool; numpy releases the GIL in the
            underlying GEMMs).  Only effective when chunking splits the
            clip into multiple blocks.
    """

    chunk_frames: int | None = 256
    workers: int = 1

    def __post_init__(self) -> None:
        if self.chunk_frames is not None and self.chunk_frames < 1:
            raise QueryError(
                f"chunk_frames must be >= 1 or None, got {self.chunk_frames}"
            )
        if self.workers < 1:
            raise QueryError(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True, slots=True)
class SBDConfig:
    """Three-stage camera-tracking detector parameters (Fig. 4).

    Attributes:
        sign_tolerance: stage 1 — two frames are declared *same shot*
            when every RGB channel of their background signs differs by
            less than ``sign_tolerance`` (fraction of the 256-value
            channel range).  Mirrors the 10 % rule of Eq. 2.
        signature_tolerance: stage 2 — accepted when the mean positional
            per-channel difference between the two background signatures
            is below this fraction of 256.
        pixel_match_tolerance: stage 3 — two signature pixels *match*
            when every channel differs by less than this fraction of 256.
        min_match_run_fraction: stage 3 — the frames are in the same
            shot when the longest run of matching pixels over all shifts
            is at least this fraction of the signature length.
        min_shot_frames: shots shorter than this many frames are merged
            into their predecessor (post-filter; see DESIGN.md item 6).
    """

    sign_tolerance: float = 0.10
    signature_tolerance: float = 0.10
    pixel_match_tolerance: float = 0.10
    min_match_run_fraction: float = 0.30
    min_shot_frames: int = 3

    def __post_init__(self) -> None:
        for name in (
            "sign_tolerance",
            "signature_tolerance",
            "pixel_match_tolerance",
            "min_match_run_fraction",
        ):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise QueryError(f"{name} must be in (0, 1], got {value}")
        if self.min_shot_frames < 1:
            raise QueryError(
                f"min_shot_frames must be >= 1, got {self.min_shot_frames}"
            )

    @property
    def sign_threshold_255(self) -> float:
        """Stage-1 tolerance expressed in absolute channel units."""
        return self.sign_tolerance * 256.0

    @property
    def pixel_match_threshold_255(self) -> float:
        """Stage-3 per-pixel tolerance in absolute channel units."""
        return self.pixel_match_tolerance * 256.0


@dataclass(frozen=True, slots=True)
class SceneTreeConfig:
    """Scene-tree construction parameters (Sec. 3.1).

    Attributes:
        relationship_tolerance: algorithm *RELATIONSHIP* declares two
            shots related when the maximum per-channel sign difference is
            below this fraction of 256 (the paper's 10 %).
        compare_with_previous_fallback: when True, a shot that matched no
            shot among ``i-2 .. 1`` is additionally compared with shot
            ``i-1`` before being declared unrelated.  Required to
            reproduce Figure 6(g); see DESIGN.md interpretation 3.
        max_frames_compared: optional cap on the number of frame pairs
            *RELATIONSHIP* examines per shot pair (None = the paper's
            full O(|A| x |B|) sweep).  Used by the ablation benches.
    """

    relationship_tolerance: float = 0.10
    compare_with_previous_fallback: bool = True
    max_frames_compared: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.relationship_tolerance <= 1.0:
            raise QueryError(
                "relationship_tolerance must be in (0, 1], got "
                f"{self.relationship_tolerance}"
            )
        if self.max_frames_compared is not None and self.max_frames_compared < 1:
            raise QueryError(
                "max_frames_compared must be >= 1 or None, got "
                f"{self.max_frames_compared}"
            )


@dataclass(frozen=True, slots=True)
class QueryConfig:
    """Similarity-query tolerances (Eqs. 7-8).

    The paper sets ``alpha = beta = 1.0``.
    """

    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self) -> None:
        # Written so NaN fails too: it compares False with everything.
        if not (self.alpha >= 0 and self.beta >= 0):
            raise QueryError(
                f"alpha/beta must be non-negative numbers, got {self.alpha}/{self.beta}"
            )


@dataclass(frozen=True, slots=True)
class PipelineConfig:
    """Bundle of all stage configurations for the full pipeline.

    ``VideoDatabase`` and the experiment drivers take a single
    ``PipelineConfig`` so that a complete run is described by one value.
    """

    region: RegionConfig = field(default_factory=RegionConfig)
    extraction: ExtractionConfig = field(default_factory=ExtractionConfig)
    sbd: SBDConfig = field(default_factory=SBDConfig)
    scene_tree: SceneTreeConfig = field(default_factory=SceneTreeConfig)
    query: QueryConfig = field(default_factory=QueryConfig)

    def with_overrides(self, **kwargs: Any) -> "PipelineConfig":
        """Return a copy with the named sections replaced.

        Example:
            >>> cfg = PipelineConfig().with_overrides(query=QueryConfig(alpha=2.0))
            >>> cfg.query.alpha
            2.0
        """
        return replace(self, **kwargs)
