"""Checksummed-manifest persistence: commit protocol, verification,
recovery, refusal of the pre-manifest layout, and the ``repro fsck``
CLI."""

import json

import pytest

from repro.cli import main as cli_main
from repro.errors import StorageError, StorageIntegrityError
from repro.testing import FaultyFS, synth_database
from repro.vdbms.database import VideoDatabase
from repro.vdbms.manifest import MANIFEST_VERSION, TREE_PREFIX, digest_bytes
from repro.vdbms.storage import DatabaseStorage, _safe_id


def _saved_db(tmp_path, seed=3, n_videos=2):
    db = synth_database(seed, n_videos=n_videos)
    root = tmp_path / "db"
    db.save(root)
    return db, root, DatabaseStorage(root)


def _tracked_path(storage, logical):
    manifest = storage.read_manifest()
    return storage.root / manifest.files[logical].path


class TestManifestCommit:
    def test_save_writes_versioned_manifest(self, tmp_path):
        db, root, storage = _saved_db(tmp_path)
        manifest = storage.read_manifest()
        assert manifest is not None
        assert manifest.generation == 1
        payload = json.loads(storage.manifest_path.read_text())
        assert payload["version"] == MANIFEST_VERSION
        expected = {"catalog", "index"} | {
            TREE_PREFIX + vid for vid in db.catalog.ids()
        }
        assert set(manifest.files) == expected
        for record in manifest.files.values():
            data = (root / record.path).read_bytes()
            assert len(data) == record.n_bytes
            assert digest_bytes(data) == record.blake2s

    def test_noop_save_keeps_generation(self, tmp_path):
        db, root, storage = _saved_db(tmp_path)
        before = storage.read_manifest()
        db.save(root)
        after = storage.read_manifest()
        assert after.generation == before.generation
        assert after.files == before.files

    def test_changed_save_bumps_generation_and_collects_garbage(self, tmp_path):
        db, root, storage = _saved_db(tmp_path)
        old_catalog = _tracked_path(storage, "catalog")
        victim = db.catalog.ids()[0]
        db.remove(victim)
        db.save(root)
        manifest = storage.read_manifest()
        assert manifest.generation == 2
        assert TREE_PREFIX + victim not in manifest.files
        # The superseded generation's files are gone after the commit.
        assert not old_catalog.exists()
        assert _tracked_path(storage, "catalog").exists()

    def test_failed_publish_leaves_old_state_and_no_staging_litter(self, tmp_path):
        db, root, storage = _saved_db(tmp_path)
        before = storage.read_manifest()
        victim = db.catalog.ids()[0]
        db.remove(victim)
        broken = DatabaseStorage(
            root, fs=FaultyFS(mode="error", ops=("write",), fail_times=10)
        )
        with pytest.raises(StorageError):
            db.save(root, fs=broken.fs)
        # Old manifest still in force; the failed save cleaned up after
        # itself (regression: unique staging names + unlink-on-failure).
        assert storage.read_manifest().files == before.files
        assert list(storage.staging_dir.iterdir()) == []
        loaded = VideoDatabase.load(root)
        assert victim in loaded.catalog

    def test_staging_names_are_unique(self, tmp_path):
        storage = DatabaseStorage(tmp_path)
        names = {storage._staging_path("x.json").name for _ in range(64)}
        assert len(names) == 64
        import os

        assert all(name.startswith(f"{os.getpid()}-") for name in names)


class TestVerifiedLoads:
    def test_bitflip_in_tree_detected(self, tmp_path):
        db, root, storage = _saved_db(tmp_path)
        vid = db.catalog.ids()[0]
        path = _tracked_path(storage, TREE_PREFIX + vid)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(StorageIntegrityError):
            VideoDatabase.load(root)

    def test_truncated_index_detected(self, tmp_path):
        db, root, storage = _saved_db(tmp_path)
        path = _tracked_path(storage, "index")
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(StorageIntegrityError):
            VideoDatabase.load(root)

    def test_missing_tracked_file_raises_storage_error(self, tmp_path):
        db, root, storage = _saved_db(tmp_path)
        _tracked_path(storage, "catalog").unlink()
        with pytest.raises(StorageError):
            VideoDatabase.load(root)

    def test_integrity_error_is_a_storage_error(self):
        assert issubclass(StorageIntegrityError, StorageError)

    def test_recover_quarantines_bad_video_keeps_rest(self, tmp_path):
        db, root, storage = _saved_db(tmp_path, n_videos=3)
        victim = db.catalog.ids()[1]
        path = _tracked_path(storage, TREE_PREFIX + victim)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(StorageIntegrityError):
            VideoDatabase.load(root)
        loaded = VideoDatabase.load(root, recover=True)
        assert loaded.quarantined == [victim]
        assert victim not in loaded.catalog
        assert all(e.video_id != victim for e in loaded.index.entries)
        survivors = [v for v in db.catalog.ids() if v != victim]
        assert loaded.catalog.ids() == survivors
        for vid in survivors:
            loaded.scene_tree(vid).validate()

    def test_corrupt_catalog_raises_even_with_recover(self, tmp_path):
        db, root, storage = _saved_db(tmp_path)
        path = _tracked_path(storage, "catalog")
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(StorageIntegrityError):
            VideoDatabase.load(root, recover=True)

    def test_corrupt_manifest_raises(self, tmp_path):
        db, root, storage = _saved_db(tmp_path)
        storage.manifest_path.write_text("{torn", encoding="utf-8")
        with pytest.raises(StorageError):
            VideoDatabase.load(root)


def _snapshot(root):
    """Every file and directory under ``root`` -> its bytes (None for
    directories)."""
    return {
        path.relative_to(root).as_posix(): None if path.is_dir() else path.read_bytes()
        for path in sorted(root.rglob("*"))
    }


class TestPreManifestLayout:
    """The layout older builds wrote before the manifest (bare
    ``catalog.json`` + ``index.json`` + ``trees/<id>.json``) is refused,
    never read, repaired or swept."""

    def _write_pre_manifest(self, tmp_path, seed=5):
        """Materialize the pre-manifest layout by hand."""
        db = synth_database(seed, n_videos=2)
        root = tmp_path / "pre-manifest"
        (root / "trees").mkdir(parents=True)
        (root / "videos").mkdir()
        from repro.scenetree.serialize import scene_tree_to_dict

        (root / "catalog.json").write_text(json.dumps(db.catalog.to_dict()))
        rows = [
            {
                "video_id": e.video_id,
                "shot_number": e.shot_number,
                "start_frame": e.start_frame,
                "end_frame": e.end_frame,
                "var_ba": e.features.var_ba,
                "var_oa": e.features.var_oa,
                "archetype": e.archetype,
            }
            for e in db.index.entries
        ]
        (root / "index.json").write_text(json.dumps({"version": 1, "entries": rows}))
        # One id shaped like a generation suffix: its old tree file must
        # not look like a file this build writes.
        trees = dict(db.trees)
        trees["clip-g00000001"] = next(iter(db.trees.values()))
        for vid, tree in trees.items():
            (root / "trees" / f"{_safe_id(vid)}.json").write_text(
                json.dumps(scene_tree_to_dict(tree))
            )
        return root

    def test_load_open_and_save_refuse_and_touch_nothing(self, tmp_path):
        root = self._write_pre_manifest(tmp_path)
        before = _snapshot(root)
        with pytest.raises(StorageError, match="pre-manifest layout"):
            VideoDatabase.load(root)
        with pytest.raises(StorageError, match="pre-manifest layout"):
            VideoDatabase.open(root)
        with pytest.raises(StorageError, match="pre-manifest layout"):
            VideoDatabase().save(root)
        assert DatabaseStorage(root)._managed_files() == []
        assert _snapshot(root) == before

    def test_fsck_reports_it_and_repair_refuses(self, tmp_path, capsys):
        root = self._write_pre_manifest(tmp_path)
        before = _snapshot(root)
        report = DatabaseStorage(root).fsck()
        assert report.mode == "pre-manifest"
        assert not report.clean
        assert cli_main(["fsck", str(root), "--repair"]) != 0
        assert "pre-manifest layout" in capsys.readouterr().out
        assert _snapshot(root) == before


class TestFsck:
    def test_clean_database(self, tmp_path):
        db, root, storage = _saved_db(tmp_path)
        report = storage.fsck()
        assert report.mode == "manifest"
        assert report.clean
        assert report.problems() == []
        assert report.untracked == []

    def test_classifications(self, tmp_path):
        db, root, storage = _saved_db(tmp_path, n_videos=3)
        ids = db.catalog.ids()
        manifest = storage.read_manifest()
        # One of each corruption flavor.
        flip = root / manifest.files[TREE_PREFIX + ids[0]].path
        data = bytearray(flip.read_bytes())
        data[len(data) // 2] ^= 0xFF
        flip.write_bytes(bytes(data))
        trunc = root / manifest.files[TREE_PREFIX + ids[1]].path
        trunc.write_bytes(trunc.read_bytes()[:-5])
        gone = root / manifest.files[TREE_PREFIX + ids[2]].path
        gone.unlink()
        (root / "trees" / "stray-g00000009.json").write_text("{}")
        by_logical = {c.logical: c for c in storage.fsck().checks}
        assert by_logical[TREE_PREFIX + ids[0]].status == "checksum-mismatch"
        assert by_logical[TREE_PREFIX + ids[1]].status == "size-mismatch"
        assert by_logical[TREE_PREFIX + ids[2]].status == "missing"
        assert by_logical["catalog"].status == "ok"
        assert storage.fsck().untracked == ["trees/stray-g00000009.json"]

    def test_untracked_litter_is_not_a_problem(self, tmp_path):
        db, root, storage = _saved_db(tmp_path)
        (storage.staging_dir / "999-000001-catalog.json").write_text("{}")
        report = storage.fsck()
        assert report.clean
        assert report.untracked == ["staging/999-000001-catalog.json"]

    def test_empty_directory(self, tmp_path):
        report = DatabaseStorage(tmp_path / "nothing").fsck()
        assert report.mode == "empty"
        assert not report.clean


class TestFsckCli:
    def test_clean_exit_zero(self, tmp_path, capsys):
        db, root, storage = _saved_db(tmp_path)
        assert cli_main(["fsck", str(root)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_corruption_exit_one(self, tmp_path, capsys):
        db, root, storage = _saved_db(tmp_path)
        vid = db.catalog.ids()[0]
        path = _tracked_path(storage, TREE_PREFIX + vid)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        assert cli_main(["fsck", str(root)]) == 1
        out = capsys.readouterr().out
        assert "checksum-mismatch" in out

    def test_json_report(self, tmp_path, capsys):
        db, root, storage = _saved_db(tmp_path)
        assert cli_main(["fsck", str(root), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True
        assert payload["mode"] == "manifest"

    def test_repair_quarantines_and_ends_clean(self, tmp_path, capsys):
        db, root, storage = _saved_db(tmp_path, n_videos=3)
        victim = db.catalog.ids()[0]
        path = _tracked_path(storage, TREE_PREFIX + victim)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        assert cli_main(["fsck", str(root), "--repair"]) == 0
        out = capsys.readouterr().out
        assert "clean" in out
        # The bad bytes were preserved for forensics, not deleted.
        assert any(storage.quarantine_dir.iterdir())
        loaded = VideoDatabase.load(root)
        assert victim not in loaded.catalog
        assert len(loaded.catalog.ids()) == 2
        assert cli_main(["fsck", str(root)]) == 0

    def test_empty_directory_exit_one(self, tmp_path, capsys):
        assert cli_main(["fsck", str(tmp_path / "nope")]) == 1
