"""Model-based check that a bound database's disk always equals its
memory.

A hypothesis state machine drives one database bound to a directory
(``VideoDatabase.open``) through adopt, replace and remove, each
optionally hit by one transient ``FaultyFS`` error, plus a crash at a
kill point followed by a reopen, bit rot followed by a recovering
reopen, a plain reopen and ``repro fsck --repair``.  The model is the
digest of every held video's record bytes plus the set of rotted
videos not yet repaired.  After every step:

* memory holds exactly the model's videos, and each one's manifest
  digest equals the digest of ``export_video(v).to_bytes()``;
* the manifest tracks exactly the held videos plus the rotted ones,
  and, once a manifest exists, ``fsck`` is clean exactly when no
  rotted one is left;
* a crash reloads to the state before or after the operation.
"""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.cli import main as cli_main
from repro.cluster import ClusterCoordinator
from repro.errors import StorageError
from repro.service.engine import ServiceEngine
from repro.testing import FaultyFS, SimulatedCrash, inject_bit_rot, synth_record
from repro.vdbms.database import VideoDatabase
from repro.vdbms.fsio import LocalFS
from repro.vdbms.manifest import RECORD_PREFIX, digest_bytes
from repro.vdbms.storage import DatabaseStorage

pytestmark = pytest.mark.faults

VIDEO_IDS = ("v0", "v1", "v2", "v3")
SEEDS = st.integers(0, 3)
#: One transient error on the first operation of this kind, or none.
FAULTS = st.sampled_from((None, "write", "fsync", "replace", "fsync_dir"))


def _record(video_id, seed):
    record = synth_record(video_id, np.random.default_rng(seed))
    return record, digest_bytes(record.to_bytes())


class BoundDatabaseModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="storage-model-"))
        self.db = VideoDatabase.open(self.root)
        #: video id -> digest of the record bytes memory should hold
        self.held: dict[str, str] = {}
        #: videos whose record rotted on disk and is not yet repaired
        self.rotted: set[str] = set()

    def teardown(self):
        shutil.rmtree(self.root, ignore_errors=True)

    def _commit(self, change, fault):
        """Run ``change`` on the bound database, with one transient
        error on the first ``fault`` operation; True when it committed.
        Every publish performs each kind of operation before or at its
        commit, so a fault always fails it."""
        storage = self.db.storage
        if fault is not None:
            storage.fs = FaultyFS(mode="error", ops=(fault,), fail_times=1)
        try:
            change()
        except StorageError:
            assert fault is not None
            return False
        finally:
            storage.fs = LocalFS()
        assert fault is None
        return True

    # ------------------------------------------------------------------
    # single-video commits
    # ------------------------------------------------------------------

    @precondition(lambda self: len(self.held) < len(VIDEO_IDS))
    @rule(data=st.data(), seed=SEEDS, fault=FAULTS)
    def adopt(self, data, seed, fault):
        video_id = data.draw(
            st.sampled_from([v for v in VIDEO_IDS if v not in self.held])
        )
        record, digest = _record(video_id, seed)
        if self._commit(lambda: self.db.adopt(record), fault):
            self.held[video_id] = digest
            self.rotted.discard(video_id)

    @precondition(lambda self: self.held)
    @rule(data=st.data(), seed=SEEDS, fault=FAULTS)
    def replace(self, data, seed, fault):
        video_id = data.draw(st.sampled_from(sorted(self.held)))
        record, digest = _record(video_id, seed)
        if self._commit(lambda: self.db.replace(record), fault):
            self.held[video_id] = digest

    @precondition(lambda self: self.held)
    @rule(data=st.data(), fault=FAULTS)
    def remove(self, data, fault):
        video_id = data.draw(st.sampled_from(sorted(self.held)))
        if self._commit(lambda: self.db.remove(video_id), fault):
            del self.held[video_id]

    # ------------------------------------------------------------------
    # crashes, rot, reopens and repair
    # ------------------------------------------------------------------

    @rule(data=st.data(), seed=SEEDS, kill_at=st.integers(1, 10))
    def crash_then_reopen(self, data, seed, kill_at):
        """Kill a fresh process model at one filesystem operation of a
        commit, then reopen: the pre- or the post-state, exactly."""
        video_id = data.draw(st.sampled_from(VIDEO_IDS))
        record, digest = _record(video_id, seed)
        post = dict(self.held)
        if video_id not in self.held:
            op, arg = "adopt", record
        elif data.draw(st.booleans(), label="remove"):
            op, arg = "remove", video_id
        else:
            op, arg = "replace", record
        if op == "remove":
            del post[video_id]
        else:
            post[video_id] = digest
        doomed = VideoDatabase.open(
            self.root, recover=True, fs=FaultyFS(fail_at=kill_at, mode="crash")
        )
        with contextlib.suppress(SimulatedCrash):
            getattr(doomed, op)(arg)
        self.db = VideoDatabase.open(self.root, recover=True)
        state = {
            v: digest_bytes(self.db.export_video(v).to_bytes())
            for v in self.db.catalog.ids()
        }
        assert state in (self.held, post)
        if state != self.held and video_id in post:
            self.rotted.discard(video_id)  # the rotted record was rewritten
        self.held = state

    @precondition(lambda self: self.held)
    @rule(data=st.data())
    def rot_and_reopen(self, data):
        video_id = data.draw(st.sampled_from(sorted(self.held)))
        inject_bit_rot(self.root, logical=RECORD_PREFIX + video_id)
        self.db = VideoDatabase.open(self.root, recover=True)
        assert video_id in self.db.quarantined
        del self.held[video_id]
        self.rotted.add(video_id)

    @rule()
    def reopen(self):
        """A plain open refuses an unreadable record, naming it."""
        if not self.rotted:
            self.db = VideoDatabase.open(self.root)
            return
        with pytest.raises(StorageError) as raised:
            VideoDatabase.open(self.root)
        assert any(repr(RECORD_PREFIX + v) in str(raised.value) for v in self.rotted)

    @rule()
    def fsck_repair(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(["fsck", str(self.root), "--repair", "--json"])
        report = json.loads(out.getvalue())
        if report["mode"] == "empty":
            assert code == 1 and not self.held and not self.rotted
            return
        assert code == 0
        assert sorted(report["dropped_videos"]) == sorted(self.rotted)
        self.rotted.clear()
        # The repair committed through its own storage object.
        self.db = VideoDatabase.open(self.root)

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------

    @invariant()
    def disk_equals_memory(self):
        memory = {
            v: digest_bytes(self.db.export_video(v).to_bytes())
            for v in self.db.catalog.ids()
        }
        assert memory == self.held
        storage = DatabaseStorage(self.root)
        manifest = storage.read_manifest()
        if manifest is None:
            assert not self.held and not self.rotted
            return
        tracked = {
            logical[len(RECORD_PREFIX):]: record.blake2s
            for logical, record in manifest.files.items()
        }
        assert set(tracked) == set(self.held) | self.rotted
        assert {v: tracked[v] for v in self.held} == self.held
        assert storage.fsck().clean == (not self.rotted)


BoundDatabaseModel.TestCase.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None
)
TestBoundDatabaseModel = BoundDatabaseModel.TestCase


def _snapshot(root):
    """Every path under ``root`` -> its bytes and mtime (None for a
    directory)."""
    return {
        path.relative_to(root).as_posix(): None
        if path.is_dir()
        else (path.read_bytes(), path.stat().st_mtime_ns)
        for path in sorted(root.rglob("*"))
    }


def test_save_refuses_a_bound_database(tmp_path):
    db = VideoDatabase.open(tmp_path / "db")
    db.adopt(_record("v0", 0)[0])
    for root in (tmp_path / "db", tmp_path / "elsewhere"):
        with pytest.raises(StorageError, match="bound"):
            db.save(root)
    assert not (tmp_path / "elsewhere").exists()


def test_engine_shutdown_writes_nothing(tmp_path):
    """A durable cluster (one shard empty) is left byte for byte as
    its commits left it: there is no shutdown save."""
    root = tmp_path / "c"
    cluster = ClusterCoordinator.create(root, 2, replication=1)
    for k, video_id in enumerate(VIDEO_IDS):
        cluster.adopt(_record(video_id, k)[0])
    engine = ServiceEngine(cluster, n_workers=1, watchdog_interval=0)
    before = _snapshot(root)
    engine.shutdown(timeout=5)
    assert _snapshot(root) == before
