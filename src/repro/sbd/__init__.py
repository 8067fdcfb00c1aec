"""Camera-tracking shot boundary detection (Sec. 2, Fig. 4).

The detector classifies every consecutive frame pair through three
stages:

1. **Sign test** — if the background signs of the two frames are within
   tolerance, they trivially share background: same shot.
2. **Signature test** — if the background signatures agree positionally
   on average, the camera has barely moved: same shot.
3. **Shift matching** — the signatures are slid past each other one
   pixel at a time; the longest run of matching pixels over all shifts
   measures how much background the frames share.  Below threshold, a
   shot boundary is declared.

Stages 1-2 are the paper's "quick-and-dirty tests used to quickly
eliminate the easy cases"; stage 3 performs the actual camera
tracking.
"""

from .shots import Shot, shots_from_boundaries
from .stages import (
    classify_pair,
    longest_match_run,
    stage1_sign_test,
    stage2_signature_test,
    stage3_shift_match,
)
from .detector import (
    CameraTrackingDetector,
    DetectionResult,
    StageCounts,
    validate_shots_cover,
)
from .streaming import StreamedShot, StreamingCameraTrackingDetector
from .fast import FastDetectionResult, SkippingCameraTrackingDetector
from .motion import CameraMotion, MotionEstimate, classify_shot_motion

__all__ = [
    "validate_shots_cover",
    "StreamedShot",
    "StreamingCameraTrackingDetector",
    "FastDetectionResult",
    "SkippingCameraTrackingDetector",
    "classify_pair",
    "CameraMotion",
    "MotionEstimate",
    "classify_shot_motion",
    "Shot",
    "shots_from_boundaries",
    "longest_match_run",
    "stage1_sign_test",
    "stage2_signature_test",
    "stage3_shift_match",
    "CameraTrackingDetector",
    "DetectionResult",
    "StageCounts",
]
