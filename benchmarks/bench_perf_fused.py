"""Perf benches for the fused extraction fast path and diagonal matcher.

Measures frames/sec through signature extraction (fused vs. the
multi-pass reference in :mod:`repro.testing.reference`, reported under
the ``legacy_*`` keys), end-to-end shot boundary detection, and the
stage-3 matcher (banded diagonal vs. reference DP), asserting the two
extractions stay byte-identical while they are timed.

Run as benches:

    PYTHONPATH=src pytest benchmarks/bench_perf_fused.py --benchmark-only

or standalone, writing ``BENCH_perf.json``:

    PYTHONPATH=src python benchmarks/bench_perf_fused.py

``--smoke`` runs one fast iteration and checks correctness only (no
timing assertions, no JSON written) — the CI perf-smoke step.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np
import pytest

from repro.config import ExtractionConfig, SBDConfig
from repro.sbd.detector import CameraTrackingDetector
from repro.sbd.stages import longest_match_run
from repro.signature.extract import SignatureExtractor
from repro.synth.genres import GENRE_MODELS, generate_genre_clip
from repro.testing.reference import longest_match_run_dp, reference_extract

FUSED = ExtractionConfig(chunk_frames=None)


def _bench_clip(n_shots: int = 25, seed: int = 17):
    clip, _ = generate_genre_clip(
        GENRE_MODELS["drama"], "perf-drama", n_shots=n_shots, seed=seed
    )
    return clip


def _best_time(fn: Callable[[], Any], repeats: int) -> float:
    """Best-of-``repeats`` wall time of ``fn`` in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _features_identical(a, b) -> bool:
    return (
        np.array_equal(a.signatures_ba, b.signatures_ba)
        and np.array_equal(a.signs_ba, b.signs_ba)
        and np.array_equal(a.signs_oa, b.signs_oa)
    )


def run_perf_suite(
    n_shots: int = 25, seed: int = 17, repeats: int = 3, smoke: bool = False
) -> dict[str, Any]:
    """Time the fast paths against their references on one synthetic clip."""
    if smoke:
        n_shots, repeats = 4, 1
    clip = _bench_clip(n_shots=n_shots, seed=seed)
    n_frames = len(clip)
    extractor = SignatureExtractor.for_clip(clip)

    fused_features = extractor.extract_clip(clip, extraction=FUSED)
    legacy_features = reference_extract(extractor, clip.frames)
    byte_identical = _features_identical(fused_features, legacy_features)
    chunked = extractor.extract_clip(
        clip, extraction=ExtractionConfig(chunk_frames=64, workers=2)
    )
    chunked_identical = _features_identical(chunked, fused_features)

    t_fused = _best_time(lambda: extractor.extract_clip(clip, extraction=FUSED), repeats)
    t_legacy = _best_time(lambda: reference_extract(extractor, clip.frames), repeats)

    detector = CameraTrackingDetector(config=SBDConfig(), extraction=FUSED)
    t_detect = _best_time(lambda: detector.detect(clip), repeats)

    # Stage 3 on realistic inputs: uint8 signatures of adjacent frames
    # that failed stages 1-2 would reach the matcher; time the full
    # unbounded search plus the detector's pruned configuration.
    rng = np.random.default_rng(seed)
    length = fused_features.geometry.l
    sig_a = rng.integers(0, 256, size=(length, 3)).astype(np.uint8)
    sig_b = np.clip(
        sig_a.astype(np.int16) + rng.integers(-30, 31, size=(length, 3)), 0, 255
    ).astype(np.uint8)
    tol = 0.1
    min_run = 0.3 * length
    assert longest_match_run(sig_a, sig_b, tol) == longest_match_run_dp(
        sig_a, sig_b, tol
    ), "diagonal matcher diverged from the DP"
    matcher_repeats = max(repeats * 10, 1)
    t_diag = _best_time(lambda: longest_match_run(sig_a, sig_b, tol), matcher_repeats)
    t_diag_pruned = _best_time(
        lambda: longest_match_run(sig_a, sig_b, tol, max_shift=32, min_run=min_run),
        matcher_repeats,
    )
    t_dp = _best_time(lambda: longest_match_run_dp(sig_a, sig_b, tol), matcher_repeats)

    return {
        "clip": {"frames": n_frames, "rows": clip.rows, "cols": clip.cols,
                 "signature_length": length, "n_shots": n_shots, "seed": seed},
        "smoke": smoke,
        "repeats": repeats,
        "extraction": {
            "fused_s": round(t_fused, 6),
            "legacy_s": round(t_legacy, 6),
            "fused_fps": round(n_frames / t_fused, 1),
            "legacy_fps": round(n_frames / t_legacy, 1),
            "speedup": round(t_legacy / t_fused, 2),
            "byte_identical": byte_identical,
            "chunked_identical": chunked_identical,
        },
        "detection": {
            "detect_s": round(t_detect, 6),
            "detect_fps": round(n_frames / t_detect, 1),
        },
        "stage3": {
            "diagonal_ms": round(t_diag * 1e3, 4),
            "diagonal_pruned_ms": round(t_diag_pruned * 1e3, 4),
            "dp_ms": round(t_dp * 1e3, 4),
            "speedup_full": round(t_dp / t_diag, 2),
            "speedup_pruned": round(t_dp / t_diag_pruned, 2),
        },
    }


def _check(report: dict[str, Any]) -> None:
    extraction = report["extraction"]
    assert extraction["byte_identical"], "fused and legacy features differ"
    assert extraction["chunked_identical"], "chunked extraction differs"
    if not report["smoke"]:
        assert extraction["speedup"] >= 3.0, (
            f"fused speedup {extraction['speedup']}x below the 3x acceptance bar"
        )


def bench_extraction_fused(benchmark):
    """Fused single-GEMM feature extraction over the bench clip."""
    clip = _bench_clip()
    extractor = SignatureExtractor.for_clip(clip)
    features = benchmark(extractor.extract_clip, clip, extraction=FUSED)
    assert len(features) == len(clip)
    benchmark.extra_info["frames"] = len(clip)


def bench_extraction_legacy(benchmark):
    """Multi-pass reference extraction over the same clip (baseline)."""
    clip = _bench_clip()
    extractor = SignatureExtractor.for_clip(clip)
    features = benchmark(reference_extract, extractor, clip.frames)
    assert len(features) == len(clip)
    benchmark.extra_info["frames"] = len(clip)


def bench_stage3_diagonal_matcher(benchmark):
    """Banded diagonal matcher, full unbounded search, uint8 inputs."""
    rng = np.random.default_rng(17)
    a = rng.integers(0, 256, size=(253, 3)).astype(np.uint8)
    b = np.clip(a.astype(np.int16) + rng.integers(-30, 31, a.shape), 0, 255).astype(
        np.uint8
    )
    run = benchmark(longest_match_run, a, b, 0.1)
    assert run == longest_match_run_dp(a, b, 0.1)


@pytest.mark.parametrize("smoke", [True])
def bench_perf_suite_smoke(benchmark, smoke):
    """One fast end-to-end pass of the whole suite (correctness gates)."""
    report = benchmark.pedantic(run_perf_suite, kwargs={"smoke": smoke}, rounds=1)
    _check(report)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="single fast iteration, correctness checks only, no JSON output",
    )
    args = parser.parse_args()
    report = run_perf_suite(smoke=args.smoke)
    _check(report)
    extraction = report["extraction"]
    if args.smoke:
        print(
            f"smoke ok: byte_identical={extraction['byte_identical']} "
            f"chunked_identical={extraction['chunked_identical']} "
            f"({report['clip']['frames']} frames)"
        )
        return
    out = Path(__file__).resolve().parent.parent / "BENCH_perf.json"
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(
        f"extraction {extraction['fused_fps']} fps fused vs "
        f"{extraction['legacy_fps']} fps legacy ({extraction['speedup']}x), "
        f"detection {report['detection']['detect_fps']} fps, "
        f"stage3 {report['stage3']['speedup_pruned']}x pruned -> {out}"
    )


if __name__ == "__main__":
    main()
