"""Video substrate: frame containers, a raw container format, resampling.

The paper's videos were AVI files digitized at 160x120 / 30 fps and
subsampled to 3 fps for processing (Sec. 5.1).  This package provides
the equivalent plumbing for the reproduction:

* :mod:`repro.video.frame` — validation helpers for RGB frames;
* :mod:`repro.video.clip` — :class:`VideoClip`, the in-memory unit of
  data entry (the paper's "video clips are convenient units for data
  entry");
* :mod:`repro.video.io` — the uncompressed ``.rvid`` container with
  streaming reads;
* :mod:`repro.video.sampling` — frame-rate resampling (30 → 3 fps)
  and :func:`read_clip`, the one reader of clip files.
"""

from .frame import frame_shape, validate_frame, validate_frames
from .clip import VideoClip
from .io import RVID_MAGIC, read_rvid, stream_rvid, write_rvid
from .sampling import ANALYSIS_FPS, read_clip, resample_fps, subsample_indices
from .avi import read_avi, write_avi
from .ppm import read_ppm, write_ppm, write_storyboard

__all__ = [
    "frame_shape",
    "validate_frame",
    "validate_frames",
    "VideoClip",
    "RVID_MAGIC",
    "read_rvid",
    "stream_rvid",
    "write_rvid",
    "ANALYSIS_FPS",
    "read_clip",
    "resample_fps",
    "subsample_indices",
    "read_avi",
    "write_avi",
    "read_ppm",
    "write_ppm",
    "write_storyboard",
]
