"""Tests for the fused extraction fast path (repro.pyramid.fused).

The contract under test is *exact* equivalence: the fused single-GEMM
path and the multi-pass reference pipeline
(:func:`repro.testing.reference.reference_extract`) must produce
byte-identical ``ClipFeatures`` after uint8 quantization, on every
geometry, and chunking/worker configurations must not change them.
"""

import numpy as np
import pytest

from repro.caching import KeyedLRU
from repro.config import ExtractionConfig, PipelineConfig, RegionConfig
from repro.errors import DimensionError, QueryError
from repro.pyramid.fused import (
    collapse_vector,
    fold_resample,
    operator_cache_stats,
    reduction_matrix,
)
from repro.pyramid.reduce import reduce_line, reduction_schedule
from repro.sbd.detector import CameraTrackingDetector
from repro.signature.extract import SignatureExtractor
from repro.synth.genres import GENRE_MODELS, generate_genre_clip
from repro.testing.reference import (
    reduce_to_one,
    reference_extract,
    resampled_foa,
    resampled_tba,
)

GEOMETRIES = [(60, 80), (48, 64), (72, 96), (120, 160), (50, 50)]

FUSED = ExtractionConfig(chunk_frames=None)


def random_frames(rows, cols, n=6, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(n, rows, cols, 3), dtype=np.uint8)


def assert_features_identical(got, expected):
    np.testing.assert_array_equal(got.signatures_ba, expected.signatures_ba)
    np.testing.assert_array_equal(got.signs_ba, expected.signs_ba)
    np.testing.assert_array_equal(got.signs_oa, expected.signs_oa)
    assert got.geometry == expected.geometry


class TestOperatorBuildingBlocks:
    def test_reduction_matrix_matches_reduce_line(self):
        rng = np.random.default_rng(1)
        for n in (5, 13, 29, 61, 125):
            line = rng.uniform(0, 255, size=n)
            np.testing.assert_allclose(
                reduction_matrix(n) @ line, reduce_line(line), atol=1e-9
            )

    def test_reduction_matrix_rejects_bad_lengths(self):
        for n in (1, 4, 12):
            with pytest.raises(DimensionError):
                reduction_matrix(n)

    def test_collapse_vector_matches_full_chain(self):
        rng = np.random.default_rng(2)
        for n in (5, 13, 29, 61, 125, 253):
            line = rng.uniform(0, 255, size=n)
            reduced = line
            while reduced.shape[0] > 1:
                reduced = reduce_line(reduced)
            np.testing.assert_allclose(
                collapse_vector(n) @ line, reduced[0], rtol=1e-12
            )

    def test_collapse_vector_weights_sum_to_one(self):
        # Each REDUCE pass preserves total mass (taps sum to 1), so the
        # composed collapse is a weighted average.
        for n in (5, 13, 61):
            assert collapse_vector(n).sum() == pytest.approx(1.0)

    def test_fold_resample_equals_gather_then_collapse(self):
        rng = np.random.default_rng(3)
        raw = rng.uniform(0, 255, size=17)
        idx = np.minimum(np.arange(13) * 17 // 13, 16)
        weights = collapse_vector(13)
        folded = fold_resample(weights, idx, 17)
        np.testing.assert_allclose(folded @ raw, weights @ raw[idx], rtol=1e-12)

    def test_respects_reduction_schedule(self):
        # Sanity: the collapse composes exactly len(schedule) - 1 passes.
        assert reduction_schedule(29) == [29, 13, 5, 1]
        assert collapse_vector(29).shape == (29,)


class TestDenseOperators:
    @pytest.mark.parametrize("rows,cols", [(60, 80), (120, 160)])
    def test_dense_operators_reproduce_reference_floats(self, rows, cols):
        """The materialized matrices map raw region pixels to features."""
        extractor = SignatureExtractor(rows, cols)
        ops = extractor._operators()
        g = extractor.geometry
        frames = random_frames(rows, cols, n=3, seed=7)

        raw_tba = np.concatenate(
            extractor._batch_fba_strips(frames), axis=2
        ).astype(np.float64)
        flat_tba = raw_tba.reshape(len(frames), g.w_est * g.l_est, 3)
        sig_dense = np.einsum("op,npc->noc", ops.signature_operator(), flat_tba)
        sign_ba_dense = np.einsum("p,npc->nc", ops.sign_ba_operator(), flat_tba)

        resampled = resampled_tba(extractor, frames)
        sig_ref = reduce_to_one(extractor, resampled)
        sign_ba_ref = reduce_to_one(extractor, sig_ref)
        np.testing.assert_allclose(sig_dense, sig_ref, atol=1e-9)
        np.testing.assert_allclose(sign_ba_dense, sign_ba_ref, atol=1e-9)

        raw_foa = extractor._batch_foa_raw(frames).astype(np.float64)
        flat_foa = raw_foa.reshape(len(frames), g.h_est * g.b_est, 3)
        sign_oa_dense = np.einsum("p,npc->nc", ops.sign_oa_operator(), flat_foa)
        foa_ref = reduce_to_one(extractor, resampled_foa(extractor, frames))
        sign_oa_ref = reduce_to_one(extractor, foa_ref)
        np.testing.assert_allclose(sign_oa_dense, sign_oa_ref, atol=1e-9)


class TestFusedEquivalence:
    @pytest.mark.parametrize("rows,cols", GEOMETRIES)
    def test_byte_identical_on_random_frames(self, rows, cols):
        extractor = SignatureExtractor(rows, cols)
        frames = random_frames(rows, cols, n=8, seed=rows * 1000 + cols)
        fused = extractor.extract_frames(frames, extraction=FUSED)
        reference = reference_extract(extractor, frames)
        assert_features_identical(fused, reference)

    def test_byte_identical_on_synthetic_clip(self):
        clip, _ = generate_genre_clip(
            GENRE_MODELS["drama"], "fused-eq", n_shots=4, seed=5
        )
        extractor = SignatureExtractor.for_clip(clip)
        fused = extractor.extract_clip(clip, extraction=FUSED)
        reference = reference_extract(extractor, clip.frames)
        assert_features_identical(fused, reference)

    def test_extract_frame_matches_batch_row(self):
        frames = random_frames(60, 80, n=4, seed=11)
        extractor = SignatureExtractor(60, 80)
        batch = extractor.extract_frames(frames)
        for k in range(len(frames)):
            single = extractor.extract_frame(frames[k])
            np.testing.assert_array_equal(single.signature_ba, batch.signatures_ba[k])
            np.testing.assert_array_equal(single.sign_ba, batch.signs_ba[k])
            np.testing.assert_array_equal(single.sign_oa, batch.signs_oa[k])

    def test_unsnapped_geometry_raises_at_extraction(self):
        # snap_to_size_set=False geometries have no REDUCE chain; the
        # fused path must fail the same way the reference path does.
        config = RegionConfig(snap_to_size_set=False)
        extractor = SignatureExtractor(60, 80, config=config)
        frames = random_frames(60, 80, n=2)
        with pytest.raises(DimensionError):
            extractor.extract_frames(frames, extraction=FUSED)
        with pytest.raises(DimensionError):
            reference_extract(extractor, frames)


class TestChunkedExtraction:
    @pytest.mark.parametrize("chunk", [1, 7, 16, 50, 200])
    def test_chunked_equals_unchunked(self, chunk):
        frames = random_frames(60, 80, n=50, seed=23)
        extractor = SignatureExtractor(60, 80)
        whole = extractor.extract_frames(frames, extraction=FUSED)
        chunked = extractor.extract_frames(
            frames, extraction=ExtractionConfig(chunk_frames=chunk)
        )
        assert_features_identical(chunked, whole)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_chunks_equal_serial(self, workers):
        frames = random_frames(60, 80, n=64, seed=29)
        extractor = SignatureExtractor(60, 80)
        serial = extractor.extract_frames(
            frames, extraction=ExtractionConfig(chunk_frames=9, workers=1)
        )
        parallel = extractor.extract_frames(
            frames, extraction=ExtractionConfig(chunk_frames=9, workers=workers)
        )
        assert_features_identical(parallel, serial)


class TestDetectorEquivalence:
    def test_same_boundaries_fused_and_legacy(self):
        """Detection on the multi-pass reference's features (the legacy
        extraction) cuts the clip exactly where the fused path does."""
        clip, _ = generate_genre_clip(
            GENRE_MODELS["sports"], "fused-detect", n_shots=6, seed=13
        )
        detector = CameraTrackingDetector(extraction=FUSED)
        fused = detector.detect(clip)
        reference = reference_extract(SignatureExtractor.for_clip(clip), clip.frames)
        assert_features_identical(fused.features, reference)
        legacy = detector.detect_from_features(reference, clip_name=clip.name)
        assert fused.boundaries == legacy.boundaries
        assert [(s.start, s.stop) for s in fused.shots] == [
            (s.start, s.stop) for s in legacy.shots
        ]


class TestMemoization:
    def test_cached_returns_same_instance(self):
        first = SignatureExtractor.cached(60, 80)
        second = SignatureExtractor.cached(60, 80)
        assert first is second

    def test_cached_distinguishes_configs(self):
        default = SignatureExtractor.cached(60, 80)
        narrow = SignatureExtractor.cached(
            60, 80, config=RegionConfig(width_fraction=0.2)
        )
        assert default is not narrow
        assert default.geometry != narrow.geometry

    def test_cache_stats_counters_move(self):
        before = SignatureExtractor.cache_stats()
        SignatureExtractor.cached(72, 96)
        SignatureExtractor.cached(72, 96)
        after = SignatureExtractor.cache_stats()
        assert after["hits"] + after["misses"] > before["hits"] + before["misses"]
        assert after["name"] == "signature_extractors"

    def test_operator_cache_shared_across_extractors(self):
        a = SignatureExtractor(120, 160)
        b = SignatureExtractor(120, 160)
        assert a is not b  # direct construction is not memoized
        assert a._operators() is b._operators()
        stats = operator_cache_stats()
        assert stats["name"] == "fused_operators"
        assert stats["size"] >= 1


class TestKeyedLRU:
    def test_eviction_order(self):
        cache = KeyedLRU(capacity=2)
        cache.get_or_create("a", lambda: 1)
        cache.get_or_create("b", lambda: 2)
        cache.get_or_create("a", lambda: -1)  # refresh a
        cache.get_or_create("c", lambda: 3)  # evicts b (a was refreshed)
        assert cache.get_or_create("b", lambda: 99) == 99  # rebuilt, evicts a
        assert cache.get_or_create("c", lambda: -1) == 3  # c survived throughout

    def test_stats(self):
        cache = KeyedLRU(capacity=4, name="probe")
        cache.get_or_create("x", lambda: 0)
        cache.get_or_create("x", lambda: 0)
        stats = cache.stats()
        assert stats == {
            "name": "probe",
            "capacity": 4,
            "size": 1,
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "hit_rate": 0.5,
        }

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            KeyedLRU(capacity=0)


class TestExtractionConfig:
    def test_defaults(self):
        cfg = ExtractionConfig()
        assert cfg.chunk_frames == 256 and cfg.workers == 1

    def test_part_of_pipeline_config(self):
        pipeline = PipelineConfig()
        assert pipeline.extraction == ExtractionConfig()
        tuned = pipeline.with_overrides(extraction=ExtractionConfig(workers=4))
        assert tuned.extraction.workers == 4

    def test_validation(self):
        with pytest.raises(QueryError):
            ExtractionConfig(chunk_frames=0)
        with pytest.raises(QueryError):
            ExtractionConfig(workers=0)
        ExtractionConfig(chunk_frames=None)  # explicit "no chunking" is fine
