"""Benches for the Sec. 6 extensions.

* **Extended similarity model** — per-channel variances (6 floats)
  vs. the base model (2 floats): match-set size and retrieval
  precision on the movie corpus.  The extension should match fewer
  shots without losing precision (that is what "more discriminating"
  buys).
* **Frame-skipping segmentation** — detection quality and extraction
  savings vs. the exact detector on identical clips.
"""

import pytest

from repro.eval.retrieval_metrics import precision_at_k
from repro.eval.sbd_metrics import score_boundaries
from repro.index.columnar import ColumnarVarianceIndex
from repro.index.extended import ExtendedVarianceIndex
from repro.index.table import IndexTable
from repro.index.query import VarianceQuery
from repro.sbd.detector import CameraTrackingDetector
from repro.sbd.fast import SkippingCameraTrackingDetector


@pytest.fixture(scope="module")
def corpus_detections(movie_corpus, detector):
    out = []
    for clip, truth in movie_corpus:
        detection = detector.detect(clip)
        labels = truth.archetypes_for_ranges(
            [(s.start, s.stop) for s in detection.shots]
        )
        out.append((clip, truth, detection, labels))
    return out


def bench_extended_vs_base_retrieval(benchmark, corpus_detections):
    def build_and_query():
        base = IndexTable()
        extended = ExtendedVarianceIndex()
        for clip, _, detection, labels in corpus_detections:
            base.add_detection_result(detection, archetypes=labels)
            extended.add_detection_result(detection, archetypes=labels)
        sorted_base = ColumnarVarianceIndex(base)
        base_stats = []
        ext_stats = []
        probes = [e for e in extended.entries if e.archetype][:20]
        for probe in probes:
            base_probe = base.lookup(probe.video_id, probe.shot_number)
            query = VarianceQuery.from_features(base_probe.features)
            base_matches = sorted_base.search(
                query, exclude_shot=(probe.video_id, probe.shot_number)
            )
            ext_matches = extended.search(
                probe.features,
                exclude_shot=(probe.video_id, probe.shot_number),
            )
            base_stats.append(
                (
                    len(base_matches),
                    precision_at_k(
                        probe.archetype, [m.archetype for m in base_matches], 3
                    ),
                )
            )
            ext_stats.append(
                (
                    len(ext_matches),
                    precision_at_k(
                        probe.archetype, [m.archetype for m in ext_matches], 3
                    ),
                )
            )
        return base_stats, ext_stats

    base_stats, ext_stats = benchmark.pedantic(
        build_and_query, rounds=1, iterations=1
    )
    base_matches = sum(n for n, _ in base_stats) / len(base_stats)
    ext_matches = sum(n for n, _ in ext_stats) / len(ext_stats)
    base_p3 = sum(p for _, p in base_stats) / len(base_stats)
    ext_p3 = sum(p for _, p in ext_stats) / len(ext_stats)
    # Discrimination: the extension never matches more, on average
    # fewer; precision does not degrade.
    assert ext_matches <= base_matches + 1e-9
    assert ext_p3 >= base_p3 - 0.1
    benchmark.extra_info["mean_matches"] = {
        "base": round(base_matches, 2),
        "extended": round(ext_matches, 2),
    }
    benchmark.extra_info["precision_at_3"] = {
        "base": round(base_p3, 3),
        "extended": round(ext_p3, 3),
    }


def bench_skipping_detector_tradeoff(benchmark, movie_corpus):
    clip, truth = movie_corpus[0]

    def sweep():
        exact = CameraTrackingDetector().detect(clip)
        exact_score = score_boundaries(truth.boundaries, exact.boundaries, 1)
        rows = {}
        for step in (2, 4, 8):
            fast = SkippingCameraTrackingDetector(step=step).detect(clip)
            score = score_boundaries(truth.boundaries, fast.boundaries, 1)
            rows[step] = {
                "recall": score.recall,
                "precision": score.precision,
                "extraction_fraction": fast.extraction_fraction,
            }
        return exact_score, rows

    exact_score, rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    for step, row in rows.items():
        assert row["recall"] >= exact_score.recall - 0.2, step
        assert row["extraction_fraction"] <= 1.0
    # Larger steps never extract more frames on this material.
    fractions = [rows[s]["extraction_fraction"] for s in (2, 4, 8)]
    assert fractions[0] <= 1.0
    benchmark.extra_info["exact"] = {
        "recall": round(exact_score.recall, 3),
        "precision": round(exact_score.precision, 3),
    }
    benchmark.extra_info["by_step"] = {
        str(step): {k: round(v, 3) for k, v in row.items()}
        for step, row in rows.items()
    }
