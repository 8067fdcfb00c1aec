"""Checksummed-manifest persistence: commit protocol (record files,
checkpoint and deltas), verification, recovery, refusal of the
version-2 and pre-manifest layouts, and the ``repro fsck`` CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.cluster import ClusterCoordinator
from repro.errors import StorageError, StorageIntegrityError
from repro.index import ColumnarVarianceIndex
from repro.scenetree.serialize import scene_tree_to_dict
from repro.testing import FaultyFS, synth_database
from repro.testing.synth import synth_record
from repro.vdbms.database import VideoDatabase
from repro.vdbms.manifest import MANIFEST_VERSION, RECORD_PREFIX, digest_bytes
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
        expected = {RECORD_PREFIX + vid for vid in db.catalog.ids()}
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
        victim, survivor = db.catalog.ids()
        old_record = _tracked_path(storage, RECORD_PREFIX + victim)
        db.remove(victim)
        db.save(root)
        manifest = storage.read_manifest()
        assert manifest.generation == 2
        assert RECORD_PREFIX + victim not in manifest.files
        # The dropped video's file is gone after the commit; the other
        # record was carried over, not rewritten.
        assert not old_record.exists()
        assert _tracked_path(storage, RECORD_PREFIX + survivor).exists()

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
        path = _tracked_path(storage, RECORD_PREFIX + vid)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(StorageIntegrityError):
            VideoDatabase.load(root)

    def test_truncated_index_detected(self, tmp_path):
        # A record file ends with the video's index rows.
        db, root, storage = _saved_db(tmp_path)
        path = _tracked_path(storage, RECORD_PREFIX + db.catalog.ids()[0])
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(StorageIntegrityError):
            VideoDatabase.load(root)

    def test_missing_tracked_file_raises_storage_error(self, tmp_path):
        db, root, storage = _saved_db(tmp_path)
        _tracked_path(storage, RECORD_PREFIX + db.catalog.ids()[0]).unlink()
        with pytest.raises(StorageError):
            VideoDatabase.load(root)

    def test_integrity_error_is_a_storage_error(self):
        assert issubclass(StorageIntegrityError, StorageError)

    def test_recover_quarantines_bad_video_keeps_rest(self, tmp_path):
        db, root, storage = _saved_db(tmp_path, n_videos=3)
        victim = db.catalog.ids()[1]
        path = _tracked_path(storage, RECORD_PREFIX + victim)
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

    def test_corrupt_delta_raises_even_with_recover(self, tmp_path):
        db, root, storage = _saved_db(tmp_path)
        VideoDatabase.open(root).remove(db.catalog.ids()[0])
        [delta] = storage.deltas_dir.iterdir()
        data = bytearray(delta.read_bytes())
        data[len(data) // 2] ^= 0xFF
        delta.write_bytes(bytes(data))
        with pytest.raises(StorageError, match="corrupt manifest delta"):
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
        (root / "catalog.json").write_text(
            json.dumps({"videos": [entry.to_dict() for entry in db.catalog]})
        )
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
        db, root, storage = _saved_db(tmp_path, n_videos=4)
        ids = db.catalog.ids()
        manifest = storage.read_manifest()
        # One of each corruption flavor.
        flip = root / manifest.files[RECORD_PREFIX + ids[0]].path
        data = bytearray(flip.read_bytes())
        data[len(data) // 2] ^= 0xFF
        flip.write_bytes(bytes(data))
        trunc = root / manifest.files[RECORD_PREFIX + ids[1]].path
        trunc.write_bytes(trunc.read_bytes()[:-5])
        gone = root / manifest.files[RECORD_PREFIX + ids[2]].path
        gone.unlink()
        (root / "records" / "stray-g00000009.rvr").write_text("{}")
        by_logical = {c.logical: c for c in storage.fsck().checks}
        assert by_logical[RECORD_PREFIX + ids[0]].status == "checksum-mismatch"
        assert by_logical[RECORD_PREFIX + ids[1]].status == "size-mismatch"
        assert by_logical[RECORD_PREFIX + ids[2]].status == "missing"
        assert by_logical[RECORD_PREFIX + ids[3]].status == "ok"
        assert storage.fsck().untracked == ["records/stray-g00000009.rvr"]

    def test_record_of_another_video_is_corrupt(self, tmp_path):
        """Two intact records tracked under each other's names: sizes
        and digests match, but neither holds the video its logical name
        says — load refuses them, and so does fsck."""
        db, root, storage = _saved_db(tmp_path)
        a, b = (RECORD_PREFIX + vid for vid in db.catalog.ids())
        payload = json.loads(storage.manifest_path.read_text())
        files = payload["files"]
        files[a], files[b] = files[b], files[a]
        storage.manifest_path.write_text(json.dumps(payload))
        with pytest.raises(StorageError, match="holds"):
            VideoDatabase.load(root)
        report = storage.fsck()
        assert not report.clean
        assert {c.logical: c.status for c in report.checks} == {
            a: "corrupt-binary",
            b: "corrupt-binary",
        }

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
        path = _tracked_path(storage, RECORD_PREFIX + vid)
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
        path = _tracked_path(storage, RECORD_PREFIX + victim)
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


def _write_version_2(root):
    """Materialize a one-video version-2 directory by hand: one catalog,
    one index and one tree file behind a version-2 manifest (what
    builds before record files wrote).  Nothing past the manifest is
    read, so one video is enough."""
    db = synth_database(8, n_videos=1)
    [video_id] = db.catalog.ids()
    (root / "trees").mkdir(parents=True)
    files = {}

    def put(logical, relpath, data):
        (root / relpath).write_bytes(data)
        files[logical] = {
            "path": relpath, "blake2s": digest_bytes(data), "bytes": len(data)
        }

    catalog = {"videos": [entry.to_dict() for entry in db.catalog]}
    put("catalog", "catalog-g00000003.json", json.dumps(catalog).encode())
    # One video's rows are the whole index.
    rows = ColumnarVarianceIndex.encode_rows(db.index.entries)
    put("index", "index-g00000003.bin", rows)
    put(
        "tree:" + video_id,
        f"trees/{_safe_id(video_id)}-g00000003.json",
        json.dumps(scene_tree_to_dict(db.trees[video_id])).encode(),
    )
    manifest = {"version": 2, "generation": 3, "files": files}
    (root / "manifest.json").write_text(json.dumps(manifest))


class TestVersion2Layout:
    """A version-2 directory is refused like the pre-manifest layout:
    never read past its manifest, written, repaired or swept."""

    def test_load_open_save_and_adopt_refuse_and_touch_nothing(self, tmp_path):
        root = tmp_path / "v2"
        bound = VideoDatabase.open(root)  # bound while the root was empty
        _write_version_2(root)
        before = _snapshot(root)
        with pytest.raises(StorageError, match="version 2"):
            VideoDatabase.load(root)
        with pytest.raises(StorageError, match="version 2"):
            VideoDatabase.open(root)
        with pytest.raises(StorageError, match="version 2"):
            synth_database(9, n_videos=2).save(root)
        record = synth_record("fresh-video", np.random.default_rng(4))
        with pytest.raises(StorageError, match="version 2"):
            bound.adopt(record)
        assert record.video_id not in bound.catalog  # rolled back
        assert _snapshot(root) == before

    def test_fsck_reports_it_and_repair_refuses(self, tmp_path, capsys):
        root = tmp_path / "v2"
        _write_version_2(root)
        before = _snapshot(root)
        report = DatabaseStorage(root).fsck()
        assert report.mode == "version-2"
        assert not report.clean
        [check] = report.problems()
        assert (check.logical, check.status) == ("manifest", "unsupported")
        assert cli_main(["fsck", str(root)]) == 1
        out = capsys.readouterr().out
        assert "version 2" in out
        assert "--repair" not in out
        assert cli_main(["fsck", str(root), "--repair"]) == 1
        assert "version 2" in capsys.readouterr().out
        assert _snapshot(root) == before

    def test_serve_exits_one(self, tmp_path):
        root = tmp_path / "v2"
        _write_version_2(root)
        before = _snapshot(root)
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--db", str(root), "--port", "0"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert done.returncode == 1
        assert "version 2" in done.stderr
        assert _snapshot(root) == before

    def test_cluster_with_a_version_2_shard_does_not_open(self, tmp_path):
        root = tmp_path / "cluster"
        ClusterCoordinator.create(root, 2, replication=1).close()
        _write_version_2(root / "shard-001")
        before = _snapshot(root)
        with pytest.raises(StorageError, match="version 2"):
            ClusterCoordinator.open(root)
        assert _snapshot(root) == before


class TestManifestChain:
    """Checkpoint plus deltas: each publish commits one small delta;
    a checkpoint replaces them once they outgrow it."""

    def test_publish_commits_one_delta_per_change(self, tmp_path):
        db, root, storage = _saved_db(tmp_path, n_videos=4)
        checkpoint = storage.manifest_path.read_bytes()
        opened = VideoDatabase.open(root)
        opened.remove(db.catalog.ids()[0])
        assert storage.manifest_path.read_bytes() == checkpoint
        [delta] = storage.deltas_dir.iterdir()
        payload = json.loads(delta.read_bytes())
        assert payload == {
            "version": MANIFEST_VERSION,
            "generation": 2,
            "set": {},
            "drop": [RECORD_PREFIX + db.catalog.ids()[0]],
        }
        assert storage.read_manifest().generation == 2
        assert storage.fsck().clean and storage.fsck().untracked == []

    def test_checkpoint_replaces_deltas_once_they_outgrow_it(self, tmp_path):
        root = tmp_path / "db"
        db = VideoDatabase.open(root)
        rng = np.random.default_rng(2)
        storage = DatabaseStorage(root)
        checkpoints = 0
        previous = b""
        for k in range(40):
            db.adopt(synth_record(f"v{k:02d}", rng))
            checkpoint = storage.manifest_path.read_bytes()
            deltas = list(storage.deltas_dir.iterdir())
            delta_bytes = sum(p.stat().st_size for p in deltas)
            # The deltas never hold more bytes than the checkpoint.
            assert delta_bytes <= len(checkpoint)
            if checkpoint != previous:
                checkpoints += 1
                assert deltas == []  # the checkpoint folded them in
            previous = checkpoint
        assert 2 < checkpoints < 20
        reloaded = VideoDatabase.load(root)
        assert reloaded.catalog.ids() == db.catalog.ids()
        assert storage.fsck().clean

    def test_delta_at_or_below_the_checkpoint_is_litter(self, tmp_path):
        db, root, storage = _saved_db(tmp_path)
        stale = storage.deltas_dir / "manifest-g00000001.json"
        stale.write_text("{torn")
        assert VideoDatabase.load(root).catalog.ids() == db.catalog.ids()
        report = storage.fsck()
        assert report.clean
        assert report.untracked == ["deltas/manifest-g00000001.json"]

    def test_gap_in_the_chain_raises_and_fsck_reports_it(self, tmp_path):
        db, root, storage = _saved_db(tmp_path, n_videos=3)
        opened = VideoDatabase.open(root)
        opened.remove(db.catalog.ids()[0])
        opened.remove(db.catalog.ids()[1])
        (storage.deltas_dir / "manifest-g00000002.json").unlink()
        with pytest.raises(StorageError, match="manifest-g00000002.json is missing"):
            VideoDatabase.load(root, recover=True)
        report = storage.fsck()
        assert not report.clean
        [check] = report.problems()
        assert (check.logical, check.status) == ("manifest", "missing")
        assert check.path == "deltas/manifest-g00000002.json"

    def test_failed_commit_after_its_rename_forces_a_checkpoint(self, tmp_path):
        """A publish failing after its delta was renamed into place may
        be on disk: the next publish must supersede it, not reuse its
        generation."""
        db, root, storage = _saved_db(tmp_path, n_videos=3)
        ids = db.catalog.ids()
        opened = VideoDatabase.open(root, fs=FaultyFS(mode="error", ops=("fsync_dir",)))
        with pytest.raises(StorageError):
            opened.remove(ids[0])
        assert ids[0] in opened.catalog  # rolled back in memory
        opened.remove(ids[1])
        reloaded = VideoDatabase.load(root)
        survivors = {ids[0], ids[2]}
        assert set(reloaded.catalog.ids()) == set(opened.catalog.ids()) == survivors
        assert json.loads(storage.manifest_path.read_text())["generation"] == 3
        assert storage.fsck().clean and storage.fsck().untracked == []
