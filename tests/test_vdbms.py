"""Tests for repro.vdbms (catalog, storage, VideoDatabase)."""

import numpy as np
import pytest

from repro.config import PipelineConfig, QueryConfig
from repro.errors import CatalogError, StorageError
from repro.testing import inject_bit_rot
from repro.testing.synth import synth_record
from repro.vdbms.catalog import Catalog, CatalogEntry
from repro.vdbms.database import VideoDatabase
from repro.vdbms.manifest import RECORD_PREFIX
from repro.vdbms.storage import DatabaseStorage
from repro.video.clip import VideoClip
from repro.workloads.taxonomy import VideoCategory


def _entry(video_id="v1", category=None):
    return CatalogEntry(
        video_id=video_id,
        n_frames=100,
        rows=120,
        cols=160,
        fps=3.0,
        n_shots=10,
        category=category,
    )


class TestCatalog:
    def test_add_get(self):
        catalog = Catalog()
        catalog.add(_entry())
        assert catalog.get("v1").n_shots == 10
        assert "v1" in catalog
        assert len(catalog) == 1

    def test_duplicate_rejected(self):
        catalog = Catalog()
        catalog.add(_entry())
        with pytest.raises(CatalogError):
            catalog.add(_entry())

    def test_get_missing(self):
        with pytest.raises(CatalogError):
            Catalog().get("nope")

    def test_remove(self):
        catalog = Catalog()
        catalog.add(_entry())
        removed = catalog.remove("v1")
        assert removed.video_id == "v1"
        assert "v1" not in catalog

    def test_category_scoping(self):
        comedy = VideoCategory(genres=("comedy",), forms=("feature",))
        western = VideoCategory(genres=("western",), forms=("feature",))
        catalog = Catalog()
        catalog.add(_entry("funny", comedy))
        catalog.add(_entry("dusty", western))
        catalog.add(_entry("unlabeled"))
        hits = catalog.in_category(comedy)
        assert [e.video_id for e in hits] == ["funny"]


class TestStorage:
    def test_initialize_layout(self, tmp_path):
        storage = DatabaseStorage(tmp_path / "db")
        storage.initialize()
        assert not (tmp_path / "db" / "videos").exists()  # no clips are kept
        assert (tmp_path / "db" / "records").is_dir()
        assert (tmp_path / "db" / "deltas").is_dir()
        assert not storage.exists()  # nothing saved yet

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(StorageError):
            VideoDatabase.load(tmp_path)

    def test_corrupt_json_raises(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{not json")
        with pytest.raises(StorageError):
            VideoDatabase.load(tmp_path)


class TestVideoDatabase:
    @pytest.fixture(scope="class")
    def db(self, figure5, friends):
        database = VideoDatabase()
        clip5, truth5 = figure5
        clipf, truthf = friends
        database.ingest(clip5, archetypes=truth5.archetypes_for_ranges)
        database.ingest(
            clipf,
            category=VideoCategory(genres=("comedy",), forms=("television series",)),
        )
        return database

    def test_ingest_report(self, figure5):
        clip, _ = figure5
        database = VideoDatabase()
        report = database.ingest(clip)
        assert report.video_id == "figure5"
        assert report.n_shots == 10
        assert report.n_frames == 625
        assert report.tree_height == 3
        assert report.indexed_entries == 10

    def test_duplicate_ingest_rejected(self, db, figure5):
        clip, _ = figure5
        with pytest.raises(CatalogError):
            db.ingest(clip)

    def test_query_by_shot_excludes_probe(self, db):
        answer = db.query_by_shot("figure5", 8, limit=5)
        assert all(
            not (m.video_id == "figure5" and m.shot_number == 8)
            for m in answer.matches
        )

    def test_d_takes_match_each_other(self, db):
        """The D takes share lighting dynamics: mutual matches."""
        answer = db.query_by_shot("figure5", 9, limit=3)
        ids = {(m.video_id, m.shot_number) for m in answer.matches}
        assert ("figure5", 8) in ids or ("figure5", 10) in ids

    def test_query_routes_to_scene_nodes(self, db):
        answer = db.query_by_shot("figure5", 2, limit=3)
        assert len(answer.routes) == len(answer.matches)
        for route in answer.routes:
            if route.entry.video_id == "figure5":
                assert route.node is not None

    def test_category_scoped_query(self, db):
        sitcoms = VideoCategory(genres=("comedy",), forms=("television series",))
        probe = db.shot_entry("friends-restaurant", 1)
        answer = db.query(
            probe.features.var_ba, probe.features.var_oa, category=sitcoms
        )
        assert all(m.video_id == "friends-restaurant" for m in answer.matches)

    def test_browse_session(self, db):
        session = db.browse("figure5")
        assert session.current is db.scene_tree("figure5").root

    def test_shots_accessor(self, db):
        shots = db.shots("figure5")
        assert len(shots) == 10

    def test_unknown_video_accessors(self, db):
        with pytest.raises(CatalogError):
            db.scene_tree("nope")
        with pytest.raises(CatalogError):
            db.shots("nope")
        with pytest.raises(CatalogError):
            db.shot_entry("nope", 1)

    def test_save_load_round_trip(self, db, tmp_path):
        root = db.save(tmp_path / "vdb")
        loaded = VideoDatabase.load(root)
        assert set(loaded.catalog.ids()) == {"figure5", "friends-restaurant"}
        assert len(loaded.index) == len(db.index)
        tree = loaded.scene_tree("figure5")
        tree.validate()
        # Queries work identically after reload.
        before = db.query_by_shot("figure5", 1, limit=3)
        after = loaded.query_by_shot("figure5", 1, limit=3)
        assert [m.shot_id for m in before.matches] == [
            m.shot_id for m in after.matches
        ]

    def test_custom_config_propagates(self, figure5):
        clip, _ = figure5
        config = PipelineConfig().with_overrides(query=QueryConfig(alpha=0.01, beta=0.01))
        database = VideoDatabase(config=config)
        database.ingest(clip)
        # A tiny tolerance box returns far fewer matches than the default.
        tight = database.query_by_shot("figure5", 1)
        assert len(tight.matches) <= 4


class TestRemove:
    def _db(self, figure5, friends):
        db = VideoDatabase()
        db.ingest(figure5[0])
        db.ingest(friends[0])
        return db

    def test_remove_drops_everything(self, figure5, friends):
        db = self._db(figure5, friends)
        removed = db.remove("figure5")
        assert removed == 10
        assert "figure5" not in db.catalog
        with pytest.raises(CatalogError):
            db.scene_tree("figure5")
        assert all(e.video_id != "figure5" for e in db.index.entries)
        # The other video is untouched and queryable.
        assert db.scene_tree("friends-restaurant").n_shots == 12

    def test_remove_unknown_rejected(self, figure5, friends):
        db = self._db(figure5, friends)
        with pytest.raises(CatalogError):
            db.remove("nope")

    def test_index_stays_sorted_after_remove(self, figure5, friends):
        db = self._db(figure5, friends)
        db.remove("friends-restaurant")
        d_vs = [e.d_v for e in db.index.entries]
        assert d_vs == sorted(d_vs)

    def test_save_prunes_stale_tree_files(self, figure5, friends, tmp_path):
        db = self._db(figure5, friends)
        root = db.save(tmp_path / "db")
        storage = DatabaseStorage(root)
        record_file = storage.record_path("figure5")
        assert record_file is not None and record_file.exists()
        db.remove("figure5")
        db.save(root)
        # The manifest no longer tracks the video's record (which holds
        # its tree) and the file is garbage-collected after the commit.
        assert storage.record_path("figure5") is None
        assert not record_file.exists()
        loaded = VideoDatabase.load(root)
        assert loaded.catalog.ids() == ["friends-restaurant"]

    def test_reingest_after_remove(self, figure5, friends):
        db = self._db(figure5, friends)
        db.remove("figure5")
        report = db.ingest(figure5[0])
        assert report.n_shots == 10


class TestRecordBackedState:
    """What a bound database serves comes from its committed records,
    so it survives a reopen and is the same on every replica."""

    def test_shots_survive_a_reopen_and_match_a_replica(
        self, figure5, figure5_detection, tmp_path
    ):
        clip, _ = figure5
        db = VideoDatabase.open(tmp_path / "db")
        db.ingest(clip)
        shots = db.shots(clip.name)
        assert shots == figure5_detection.shots
        assert VideoDatabase.open(tmp_path / "db").shots(clip.name) == shots
        replica = VideoDatabase()
        replica.adopt(db.export_video(clip.name))
        assert replica.shots(clip.name) == shots

    def test_replace_rewrites_a_rotted_record(self, tmp_path):
        """Replacing a video with its own export serializes to the bytes
        the manifest records, yet the rotted file must be rewritten."""
        db = VideoDatabase.open(tmp_path / "db")
        db.adopt(synth_record("v", np.random.default_rng(0)))
        inject_bit_rot(tmp_path / "db", logical=f"{RECORD_PREFIX}v")
        assert not DatabaseStorage(tmp_path / "db").fsck().clean
        db.replace(db.export_video("v"))
        assert DatabaseStorage(tmp_path / "db").fsck().clean


def _tree_relpath(storage, video_id, generation=1):
    """Where a publish writes the video's record (which holds its tree)."""
    return storage._target_relpath(RECORD_PREFIX + video_id, generation)


class TestSafeIdInjective:
    """Regression: ids like ``a/b`` and ``a_b`` used to sanitize to the
    same filename and silently overwrite each other's files."""

    def test_colliding_ids_get_distinct_paths(self, tmp_path):
        storage = DatabaseStorage(tmp_path)
        for left, right in [("a/b", "a_b"), ("a b", "a_b"), ("x:y", "x_y")]:
            assert _tree_relpath(storage, left) != _tree_relpath(storage, right)

    def test_same_id_is_stable(self, tmp_path):
        storage = DatabaseStorage(tmp_path)
        assert _tree_relpath(storage, "a/b") == _tree_relpath(storage, "a/b")

    def test_database_save_load_with_slashy_ids(self, tmp_path):
        db = VideoDatabase()
        for name, level in [("team/clip", 40), ("team_clip", 220)]:
            frames = np.zeros((12, 60, 80, 3), dtype=np.uint8)
            frames[:6] = level
            frames[6:] = 255 - level
            db.ingest(VideoClip(name, frames, fps=3.0))
        db.save(tmp_path / "db")
        loaded = VideoDatabase.load(tmp_path / "db")
        assert set(loaded.catalog.ids()) == {"team/clip", "team_clip"}
        # Each id keeps its own scene tree (previously one overwrote the
        # other on disk).
        assert loaded.scene_tree("team/clip").clip_name == "team/clip"
        assert loaded.scene_tree("team_clip").clip_name == "team_clip"
