"""Kill-point sweeps: every save and ingest is all-or-nothing.

For each filesystem operation a publish performs, the process model is
killed at exactly that operation (``crash``), the write is torn in
half (``torn``), or a byte is silently flipped (``corrupt``).  After
every injected fault, reloading the database must yield exactly the
pre-operation state or the post-operation state — never anything in
between — and silent corruption must be *detected* (precise
``StorageIntegrityError``, ``repro fsck`` exit 1) rather than served.
"""

import itertools
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.errors import StorageError
from repro.testing import sweep_kill_points, synth_database, synth_record
from repro.testing.synth import add_synth_video
from repro.vdbms.database import VideoDatabase
from repro.vdbms.manifest import digest_bytes
from repro.vdbms.storage import DatabaseStorage
from repro.video.clip import VideoClip

pytestmark = pytest.mark.faults

_DIR_COUNTER = itertools.count(1)


def _classifier(pre_ids, post_ids):
    """Build the sweep classifier: reload with the REAL filesystem and
    name the surviving state; anything torn fails the test."""

    def classify(ctx, mode):
        root = ctx["root"]
        storage = DatabaseStorage(root)
        report = storage.fsck()
        try:
            db = VideoDatabase.load(root)
        except StorageError:
            # Detection is only acceptable for silent corruption: a
            # crash or torn write must leave the OLD manifest in force.
            assert mode == "corrupt", f"{mode} fault produced unreadable state"
            assert not report.clean or report.mode == "manifest"
            statuses = {c.status for c in report.problems()}
            assert statuses <= {
                "checksum-mismatch",
                "size-mismatch",
                "missing",
                "corrupt-json",
            }, statuses
            # The CLI agrees something is wrong.
            assert cli_main(["fsck", str(root)]) == 1
            return "detected"
        ids = set(db.catalog.ids())
        if ids == pre_ids:
            assert report.clean
            return "pre"
        if ids == post_ids:
            assert report.clean
            return "post"
        raise AssertionError(f"torn state after {mode}: {sorted(ids)}")

    return classify


def _assert_sound(report):
    assert report.points, "sweep recorded no filesystem operations"
    states = report.states()
    assert states <= {"pre", "post", "detected"}
    # The sweep actually exercised both sides of the commit point.
    assert "pre" in states and "post" in states
    # Corrupt runs at data-file writes must be caught, not served.
    assert any(r.state == "detected" for r in report.by_mode("corrupt"))
    for run in report.by_mode("crash"):
        assert run.state in ("pre", "post")
    for run in report.by_mode("torn"):
        assert run.state in ("pre", "post")


class TestSaveSweep:
    """Whole-database save(): grow state A by one video."""

    def test_save_is_atomic_at_every_kill_point(self, tmp_path, capsys):
        base = synth_database(1, n_videos=2)
        pre_ids = set(base.catalog.ids())

        def setup():
            root = tmp_path / f"save-{next(_DIR_COUNTER)}"
            base_copy = synth_database(1, n_videos=2)
            base_copy.save(root)
            return {"root": root}

        def operation(ctx, fs):
            db = VideoDatabase.load(ctx["root"])
            add_synth_video(db, "extra-video", np.random.default_rng(123))
            db.save(ctx["root"], fs=fs)

        report = sweep_kill_points(
            setup, operation, _classifier(pre_ids, pre_ids | {"extra-video"})
        )
        _assert_sound(report)


class TestDurableIngestSweep:
    """A bound database's ingest(): journal + manifest swap per clip."""

    @staticmethod
    def _clip():
        frames = np.empty((12, 16, 16, 3), dtype=np.uint8)
        for shot, color in enumerate(((230, 60, 40), (40, 200, 60), (50, 80, 220))):
            frames[shot * 4 : (shot + 1) * 4] = np.array(color, dtype=np.uint8)
        return VideoClip("ingested-clip", frames, fps=3.0)

    def test_ingest_is_atomic_at_every_kill_point(self, tmp_path, capsys):
        base = synth_database(2, n_videos=1)
        pre_ids = set(base.catalog.ids())

        def setup():
            root = tmp_path / f"ingest-{next(_DIR_COUNTER)}"
            synth_database(2, n_videos=1).save(root)
            return {"root": root}

        def operation(ctx, fs):
            db = VideoDatabase.open(ctx["root"], fs=fs)
            db.ingest(self._clip())

        report = sweep_kill_points(
            setup, operation, _classifier(pre_ids, pre_ids | {"ingested-clip"})
        )
        _assert_sound(report)

    def test_failed_durable_ingest_rolls_back_memory(self, tmp_path):
        """After a failed publish the in-memory state matches disk, so a
        retry of the same clip succeeds instead of hitting a duplicate."""
        from repro.testing import FaultyFS

        root = tmp_path / "db"
        synth_database(2, n_videos=1).save(root)
        fs = FaultyFS(mode="error", ops=("write",), fail_times=1)
        db = VideoDatabase.open(root, fs=fs)
        with pytest.raises(StorageError):
            db.ingest(self._clip())
        assert "ingested-clip" not in db.catalog
        assert all(e.video_id != "ingested-clip" for e in db.index.entries)
        # The injected fault healed; the retry commits durably.
        report = db.ingest(self._clip())
        assert report.video_id == "ingested-clip"
        reloaded = VideoDatabase.load(root)
        assert "ingested-clip" in reloaded.catalog

    def test_durable_remove_is_atomic(self, tmp_path):
        from repro.testing import FaultyFS, SimulatedCrash

        root = tmp_path / "db"
        base = synth_database(4, n_videos=2)
        base.save(root)
        victim = base.catalog.ids()[0]
        db = VideoDatabase.open(root, fs=FaultyFS(fail_at=2, mode="crash"))
        with pytest.raises(SimulatedCrash):
            db.remove(victim)
        reloaded = VideoDatabase.load(root)
        assert set(reloaded.catalog.ids()) == set(base.catalog.ids())
        db2 = VideoDatabase.open(root)
        db2.remove(victim)
        assert victim not in VideoDatabase.load(root).catalog


# ----------------------------------------------------------------------
# the checkpoint-and-delta commit: exact pre/post states
# ----------------------------------------------------------------------


def _fingerprint(db):
    """Video id -> digest of the record bytes the database would write:
    the database's exact state (entry, tree and rows)."""
    return {
        video_id: digest_bytes(db.export_video(video_id).to_bytes())
        for video_id in db.catalog.ids()
    }


def _exact_classifier(pre, post):
    """Reload must equal ``pre`` or ``post`` exactly; fsck is clean then
    and after the next publish."""

    def classify(ctx, mode):
        root = ctx["root"]
        report = DatabaseStorage(root).fsck()
        try:
            db = VideoDatabase.load(root)
        except StorageError:
            assert mode == "corrupt", f"{mode} fault produced unreadable state"
            assert not report.clean
            assert cli_main(["fsck", str(root)]) == 1
            return "detected"
        state = _fingerprint(db)
        assert report.clean, report.problems()
        if state == pre:
            verdict = "pre"
        else:
            assert state == post, f"torn state after {mode}: {sorted(state)}"
            verdict = "post"
        following = VideoDatabase.open(root)
        following.adopt(synth_record("following-video", np.random.default_rng(77)))
        assert DatabaseStorage(root).fsck().clean
        return verdict

    return classify


def _commit_targets(report):
    """Names of the files each recorded rename committed."""
    return [Path(p.path).name for p in report.points if p.op == "replace"]


class TestChainSweeps:
    """Every filesystem operation of a delta publish, a checkpoint
    publish, a remove and an adopt that replaces a copy: reload equals
    the pre- or post-state exactly."""

    @staticmethod
    def _base(root, n_videos):
        db = synth_database(6, n_videos=n_videos)
        db.save(root)
        return db

    def _sweep(self, tmp_path, prepare, operation, expected_post):
        """``prepare(root)`` builds the pre-state on disk and returns the
        in-memory database equal to it; ``operation(db, fs)`` mutates a
        database opened on ``fs``; ``expected_post(db)`` applies the same
        change in memory."""
        reference = prepare(tmp_path / "reference")
        pre = _fingerprint(reference)
        expected_post(reference)
        post = _fingerprint(reference)

        def setup():
            root = tmp_path / f"chain-{next(_DIR_COUNTER)}"
            prepare(root)
            return {"root": root}

        def run(ctx, fs):
            operation(VideoDatabase.open(ctx["root"], fs=fs), fs)

        report = sweep_kill_points(setup, run, _exact_classifier(pre, post))
        _assert_sound(report)
        return report

    def test_delta_publish(self, tmp_path):
        record = synth_record("added-video", np.random.default_rng(31))
        report = self._sweep(
            tmp_path,
            lambda root: self._base(root, 4),
            lambda db, fs: db.adopt(record),
            lambda db: db.adopt(record),
        )
        targets = _commit_targets(report)
        assert targets[-1].startswith("manifest-g") and "manifest.json" not in targets

    def test_checkpoint_publish(self, tmp_path):
        first = synth_record("first-video", np.random.default_rng(32))
        second = synth_record("second-video", np.random.default_rng(33))

        def prepare(root):
            db = self._base(root, 2)
            VideoDatabase.open(root).adopt(first)  # commits a delta
            db.adopt(first)
            return db

        report = self._sweep(
            tmp_path,
            prepare,
            lambda db, fs: db.adopt(second),
            lambda db: db.adopt(second),
        )
        assert _commit_targets(report)[-1] == "manifest.json"
        assert any(
            p.op == "unlink" and Path(p.path).name.startswith("manifest-g")
            for p in report.points
        )

    def test_remove(self, tmp_path):
        victim = synth_database(6, n_videos=3).catalog.ids()[1]
        self._sweep(
            tmp_path,
            lambda root: self._base(root, 3),
            lambda db, fs: db.remove(victim),
            lambda db: db.remove(victim),
        )

    def test_adopt_replacing_a_copy(self, tmp_path):
        video_id = synth_database(6, n_videos=3).catalog.ids()[0]
        record = synth_record(video_id, np.random.default_rng(34))
        report = self._sweep(
            tmp_path,
            lambda root: self._base(root, 3),
            lambda db, fs: db.replace(record),
            lambda db: db.replace(record),
        )
        # The superseded record file is deleted after the commit.
        assert [p.op for p in report.points][-1] == "unlink"


class _FirstDirSyncFails:
    """Passes every operation on to ``inner``, except that the first
    directory fsync raises :class:`OSError` without reaching it."""

    def __init__(self, inner):
        self.inner = inner
        self.failed = False

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def fsync_dir(self, path):
        if not self.failed:
            self.failed = True
            raise OSError(f"injected dirsync error: {path}")
        self.inner.fsync_dir(path)


class TestRepairCheckpointSweep:
    """A remove whose commit-directory fsync fails after the delta's
    rename: publish commits a checkpoint of the rolled-back state before
    it raises.  A crash at each filesystem operation from there on
    reloads to the pre- or the post-state."""

    def test_crash_at_every_repair_op(self, tmp_path):
        def prepare(root):
            db = synth_database(6, n_videos=3)
            db.save(root)
            return db

        reference = prepare(tmp_path / "reference")
        victim = reference.catalog.ids()[1]
        pre = _fingerprint(reference)
        reference.remove(victim)
        post = _fingerprint(reference)

        def setup():
            root = tmp_path / f"repair-{next(_DIR_COUNTER)}"
            prepare(root)
            return {"root": root}

        def run(ctx, fs):
            db = VideoDatabase.open(ctx["root"], fs=_FirstDirSyncFails(fs))
            with pytest.raises(StorageError):
                db.remove(victim)
            # Without a crash the repair committed: disk equals memory.
            assert victim in db.catalog
            assert _fingerprint(VideoDatabase.load(ctx["root"])) == pre

        report = sweep_kill_points(
            setup, run, _exact_classifier(pre, post), modes=("crash",)
        )
        # The delta, then the repair checkpoint, were renamed into place.
        targets = _commit_targets(report)
        assert targets[0].startswith("manifest-g") and targets[-1] == "manifest.json"
        assert report.states() == {"pre", "post"}
        assert len(report.runs) == len(report.points)
