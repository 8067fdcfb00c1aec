"""Frame-rate resampling, and the one reader of clip files.

Sec. 5.1: "To reduce computation time, we made our test video clips by
extracting frames from these originals at the rate of 3 frames/second"
(from 30 fps sources).  :func:`resample_fps` reproduces that
decimation for any source/target rate pair with uniform index
selection; :func:`read_clip` reads a ``.avi`` or ``.rvid`` file and
decimates it to :data:`ANALYSIS_FPS`, for the CLI and the service
alike.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..errors import FrameError, VideoFormatError
from .avi import read_avi
from .clip import VideoClip
from .io import read_rvid

__all__ = ["ANALYSIS_FPS", "read_clip", "subsample_indices", "resample_fps"]

#: The rate every clip is analysed at (Sec. 5.1: 3 frames/second).
ANALYSIS_FPS = 3.0


def subsample_indices(n_frames: int, source_fps: float, target_fps: float) -> np.ndarray:
    """Return the source-frame indices kept when decimating to ``target_fps``.

    The k-th output frame is the source frame nearest to time
    ``k / target_fps``.  ``target_fps`` must not exceed ``source_fps``
    (this is a decimator, not an interpolator).
    """
    if source_fps <= 0 or target_fps <= 0:
        raise FrameError(
            f"frame rates must be positive, got {source_fps} -> {target_fps}"
        )
    if target_fps > source_fps:
        raise FrameError(
            f"cannot upsample {source_fps} fps to {target_fps} fps by decimation"
        )
    n_out = max(1, int(round(n_frames * target_fps / source_fps)))
    idx = np.round(np.arange(n_out) * source_fps / target_fps).astype(np.int64)
    return np.minimum(idx, n_frames - 1)


def resample_fps(clip: VideoClip, target_fps: float) -> VideoClip:
    """Return a copy of ``clip`` decimated to ``target_fps``.

    When the target rate equals the clip's rate the clip is returned
    unchanged.  Metadata carries over, with the original rate recorded
    under ``"source_fps"``.
    """
    if target_fps == clip.fps:
        return clip
    idx = subsample_indices(len(clip), clip.fps, target_fps)
    metadata = dict(clip.metadata)
    metadata.setdefault("source_fps", clip.fps)
    return VideoClip(
        name=clip.name,
        frames=clip.frames[idx],
        fps=target_fps,
        metadata=metadata,
    )


def read_clip(path: str | Path) -> VideoClip:
    """Read a ``.avi`` or ``.rvid`` clip file, decimated to
    :data:`ANALYSIS_FPS` when it is faster.  Any other suffix raises
    :class:`~repro.errors.VideoFormatError`."""
    suffix = Path(path).suffix.lower()
    if suffix == ".avi":
        clip = read_avi(path)
    elif suffix == ".rvid":
        clip = read_rvid(path)
    else:
        raise VideoFormatError(
            f"unsupported video format {suffix!r} (use .avi or .rvid)"
        )
    return resample_fps(clip, ANALYSIS_FPS) if clip.fps > ANALYSIS_FPS else clip
