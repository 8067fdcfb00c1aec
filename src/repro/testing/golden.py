"""The golden corpus: seeded clips with frozen expected outputs.

Three synthetic clips — each fully determined by a
:class:`GoldenSpec` — are run through the extraction + detection
pipeline and their observable outputs (``Sign^BA``/``Sign^OA``
streams, shot boundaries, per-shot ``(Var^BA, Var^OA, D^v)``) are
frozen as JSON fixtures under ``tests/golden/``.  The test suite
re-runs the pipeline on both the fused extraction and the multi-pass
reference (:func:`repro.testing.reference.reference_extract`) and
requires byte-exact agreement with the fixtures, so any numerical
drift in either is caught immediately.

Regenerate the fixtures (after an *intentional* output change) with::

    PYTHONPATH=src python -m repro.testing.golden tests/golden
"""

from __future__ import annotations

import argparse
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

import numpy as np

from ..features.vector import extract_shot_features
from ..sbd.detector import CameraTrackingDetector, DetectionResult
from ..video.clip import VideoClip
from ..video.sampling import ANALYSIS_FPS

__all__ = [
    "GOLDEN_SPECS",
    "GoldenSpec",
    "build_clip",
    "canonical_json",
    "detection_payload",
    "expected_payload",
    "fixture_name",
    "write_fixtures",
]

#: Well-separated shot colors (same idea as the service's synthetic
#: ingest palette): adjacent shots differ by far more than the
#: detector's sign tolerance even under the noise below.
_COLORS: tuple[tuple[int, int, int], ...] = (
    (225, 55, 45), (45, 205, 65), (55, 85, 215), (235, 215, 45),
    (205, 45, 205), (45, 215, 215), (240, 240, 240), (20, 20, 20),
)


@dataclass(frozen=True, slots=True)
class GoldenSpec:
    """Everything needed to rebuild one corpus clip bit-for-bit."""

    name: str
    seed: int
    n_shots: int
    frames_per_shot: int
    rows: int
    cols: int
    noise: int  # +/- uniform per-pixel amplitude added to the base color


GOLDEN_SPECS: tuple[GoldenSpec, ...] = (
    GoldenSpec("golden-steady", seed=7, n_shots=3, frames_per_shot=6,
               rows=24, cols=32, noise=6),
    GoldenSpec("golden-jittery", seed=19, n_shots=5, frames_per_shot=5,
               rows=20, cols=28, noise=14),
    GoldenSpec("golden-long", seed=42, n_shots=4, frames_per_shot=9,
               rows=28, cols=36, noise=10),
)


def build_clip(spec: GoldenSpec) -> VideoClip:
    """Materialize one corpus clip (deterministic per spec)."""
    rng = np.random.default_rng(spec.seed)
    n_frames = spec.n_shots * spec.frames_per_shot
    frames = np.empty((n_frames, spec.rows, spec.cols, 3), dtype=np.int16)
    for shot in range(spec.n_shots):
        color = np.array(_COLORS[(spec.seed + shot) % len(_COLORS)], dtype=np.int16)
        lo = shot * spec.frames_per_shot
        block = frames[lo : lo + spec.frames_per_shot]
        block[:] = color
        block += rng.integers(
            -spec.noise, spec.noise + 1, size=block.shape, dtype=np.int16
        )
    return VideoClip(
        spec.name, np.clip(frames, 0, 255).astype(np.uint8), fps=ANALYSIS_FPS
    )


def expected_payload(spec: GoldenSpec) -> dict[str, Any]:
    """Run the pipeline on one corpus clip; the fixture document."""
    return detection_payload(spec, CameraTrackingDetector().detect(build_clip(spec)))


def detection_payload(spec: GoldenSpec, result: DetectionResult) -> dict[str, Any]:
    """The fixture document of one detection of a corpus clip."""
    features = extract_shot_features(result)
    return {
        "spec": asdict(spec),
        "n_frames": len(result.features),
        "boundaries": [int(b) for b in result.boundaries],
        "shots": [
            {"index": s.index, "start": s.start, "stop": s.stop}
            for s in result.shots
        ],
        "signs_ba": result.features.signs_ba.tolist(),
        "signs_oa": result.features.signs_oa.tolist(),
        "features": [
            {"var_ba": f.var_ba, "var_oa": f.var_oa, "d_v": f.d_v}
            for f in features
        ],
    }


def canonical_json(payload: dict[str, Any]) -> str:
    """The byte-exact fixture rendering of a payload."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def fixture_name(spec: GoldenSpec) -> str:
    """Filename of the fixture for ``spec`` under ``tests/golden/``."""
    return f"{spec.name}.json"


def write_fixtures(outdir: str | Path) -> list[Path]:
    """(Re)generate every fixture; returns the written paths."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for spec in GOLDEN_SPECS:
        path = outdir / fixture_name(spec)
        path.write_text(canonical_json(expected_payload(spec)), encoding="utf-8")
        written.append(path)
    return written


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="regenerate the golden-corpus fixtures"
    )
    parser.add_argument(
        "outdir", nargs="?", default="tests/golden", help="fixture directory"
    )
    args = parser.parse_args(argv)
    for path in write_fixtures(args.outdir):
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
