"""End-to-end integration tests across module boundaries."""

import numpy as np
import pytest

from repro.eval.sbd_metrics import score_boundaries
from repro.eval.tree_metrics import tree_quality
from repro.features.vector import extract_shot_features
from repro.index.columnar import ColumnarVarianceIndex
from repro.index.query import VarianceQuery, search
from repro.index.table import IndexTable
from repro.sbd.detector import CameraTrackingDetector, validate_shots_cover
from repro.scenetree.builder import SceneTreeBuilder
from repro.synth.genres import GENRE_MODELS, generate_genre_clip
from repro.vdbms.database import VideoDatabase
from repro.video.io import read_rvid, write_rvid
from repro.video.sampling import resample_fps


class TestFullPipelineOnGenreClip:
    """Generate → detect → tree → features → index → query, one flow."""

    @pytest.fixture(scope="class")
    def pipeline(self):
        clip, truth = generate_genre_clip(
            GENRE_MODELS["news"], "integration-news", n_shots=15, seed=99
        )
        detection = CameraTrackingDetector().detect(clip)
        tree = SceneTreeBuilder().build_from_detection(detection)
        table = IndexTable()
        table.add_detection_result(detection)
        return clip, truth, detection, tree, table

    def test_detection_quality(self, pipeline):
        _, truth, detection, _, _ = pipeline
        score = score_boundaries(truth.boundaries, detection.boundaries, tolerance=1)
        assert score.recall >= 0.7
        assert score.precision >= 0.7

    def test_shots_tile_clip(self, pipeline):
        clip, _, detection, _, _ = pipeline
        validate_shots_cover(detection.shots, len(clip))

    def test_tree_covers_every_shot(self, pipeline):
        _, _, detection, tree, _ = pipeline
        tree.validate()
        assert tree.n_shots == detection.n_shots

    def test_tree_quality_against_ground_truth(self, pipeline):
        _, truth, detection, tree, _ = pipeline
        if detection.n_shots == truth.n_shots:
            quality = tree_quality(tree, list(truth.groups))
            assert quality.pair_agreement > 0.4

    def test_index_has_every_shot(self, pipeline):
        _, _, detection, _, table = pipeline
        assert len(table) == detection.n_shots

    def test_query_round_trips_through_sorted_index(self, pipeline):
        _, _, detection, _, table = pipeline
        index = ColumnarVarianceIndex(table)
        vectors = extract_shot_features(detection)
        for vector in vectors[:5]:
            query = VarianceQuery.from_features(vector)
            scan = [(e.video_id, e.shot_number) for e in search(table, query)]
            fast = [(e.video_id, e.shot_number) for e in index.search(query)]
            assert scan == fast
            assert len(scan) >= 1  # the probe itself always matches


class TestFpsDecimationPipeline:
    def test_30fps_source_detected_after_decimation(self):
        """The paper's workflow: digitize at 30 fps, analyze at 3 fps."""
        clip30, truth = generate_genre_clip(
            GENRE_MODELS["drama"], "hi-rate", n_shots=6, seed=5, fps=3.0
        )
        # Simulate a 30 fps source by repeating frames 10x, then decimate.
        frames30 = np.repeat(clip30.frames, 10, axis=0)
        from repro.video.clip import VideoClip

        source = VideoClip("hi-rate-30", frames30, fps=30.0)
        decimated = resample_fps(source, 3.0)
        assert len(decimated) == len(clip30)
        detection = CameraTrackingDetector().detect(decimated)
        score = score_boundaries(truth.boundaries, detection.boundaries, tolerance=1)
        assert score.recall >= 0.6


class TestPersistenceLoop:
    def test_disk_round_trip_preserves_query_semantics(self, tmp_path, figure5):
        clip, truth = figure5
        db = VideoDatabase()
        db.ingest(clip, archetypes=truth.archetypes_for_ranges)
        # Persist the raw clip too, reload it, and compare re-ingest.
        path = write_rvid(clip, tmp_path / "fig5.rvid")
        reloaded_clip = read_rvid(path)
        db2 = VideoDatabase()
        db2.ingest(reloaded_clip)
        assert [e.to_row() for e in db.index.entries] == [
            e.to_row() for e in db2.index.entries
        ]

    def test_database_directory_round_trip(self, tmp_path, figure5):
        clip, _ = figure5
        db = VideoDatabase()
        db.ingest(clip)
        root = db.save(tmp_path / "store")
        loaded = VideoDatabase.load(root)
        probe = loaded.shot_entry("figure5", 9)
        answer = loaded.query(
            probe.features.var_ba, probe.features.var_oa, limit=3
        )
        assert len(answer.matches) >= 1
