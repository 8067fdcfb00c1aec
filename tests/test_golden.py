"""Golden-corpus regression: the pipeline's outputs are frozen.

Three seeded synthetic clips (see :mod:`repro.testing.golden`) have
their ``Sign^BA``/``Sign^OA`` streams, shot boundaries, and per-shot
``(Var^BA, Var^OA, D^v)`` stored as JSON fixtures under
``tests/golden/``.  The pipeline must reproduce the fixtures
byte-exactly from both extractions — the fused linear operators and
the legacy multi-pass reference
(:func:`repro.testing.reference.reference_extract`); any numerical
drift in either fails here first.
"""

from pathlib import Path

import pytest

from repro.sbd.detector import CameraTrackingDetector
from repro.signature.extract import SignatureExtractor
from repro.testing.golden import (
    GOLDEN_SPECS,
    build_clip,
    canonical_json,
    detection_payload,
    expected_payload,
    fixture_name,
)
from repro.testing.reference import reference_extract

GOLDEN_DIR = Path(__file__).parent / "golden"


def _reference_payload(spec):
    """The fixture document with features from the multi-pass reference."""
    clip = build_clip(spec)
    features = reference_extract(SignatureExtractor.for_clip(clip), clip.frames)
    result = CameraTrackingDetector().detect_from_features(features, clip.name)
    return detection_payload(spec, result)


_EXTRACTION = {"fused": expected_payload, "legacy": _reference_payload}


def test_corpus_has_three_clips_with_fixtures():
    assert len(GOLDEN_SPECS) == 3
    for spec in GOLDEN_SPECS:
        assert (GOLDEN_DIR / fixture_name(spec)).is_file(), (
            f"missing fixture for {spec.name!r}; regenerate with "
            "'python tests/golden/make_golden.py'"
        )


@pytest.mark.parametrize("mode", sorted(_EXTRACTION))
@pytest.mark.parametrize("spec", GOLDEN_SPECS, ids=lambda s: s.name)
def test_pipeline_matches_fixture_byte_exactly(spec, mode):
    live = canonical_json(_EXTRACTION[mode](spec))
    fixture = (GOLDEN_DIR / fixture_name(spec)).read_text(encoding="utf-8")
    assert live == fixture, (
        f"{spec.name} ({mode} extraction) diverged from its fixture; if "
        "the change is intentional, regenerate with "
        "'python tests/golden/make_golden.py'"
    )


@pytest.mark.parametrize("spec", GOLDEN_SPECS, ids=lambda s: s.name)
def test_fixture_is_internally_consistent(spec):
    import json

    payload = json.loads((GOLDEN_DIR / fixture_name(spec)).read_text())
    assert payload["spec"]["n_shots"] == len(payload["shots"])
    assert len(payload["boundaries"]) == len(payload["shots"]) - 1
    assert len(payload["signs_ba"]) == payload["n_frames"]
    assert len(payload["signs_oa"]) == payload["n_frames"]
    for shot, boundary in zip(payload["shots"][1:], payload["boundaries"]):
        assert shot["start"] == boundary
