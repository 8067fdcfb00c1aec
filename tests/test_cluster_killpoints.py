"""Kill-point sweeps over resharding, through the cluster's one
filesystem seam.

``ClusterCoordinator.open(root, fs=fs)`` routes every write of the
cluster through ``fs``: ``cluster.json`` and every shard, including
the shard a grow adds.  So one ``FaultyFS`` counts the filesystem
operations of a whole reshard, and the sweep kills (``crash``), tears
(``torn``) or silently flips (``corrupt``) each of them in turn.

After every fault the cluster is reopened with the real filesystem
(``recover=True``) and must be sound: every acknowledged video is
held, one reconciler pass converges, ``fsck`` is clean on every shard
(or the shard is empty), and queries answer exactly as one in-memory
database holding every record, never partially.  A ``corrupt`` run may
instead be *detected*: the reopen refuses the damage, or a shard
quarantines the flipped record.  A crash or a torn write never may.

The module also pins two defects next to the seam, a shrink that would
retire a shard tracking an unreadable record and a ``cluster.json``
that does not decode, and checks that an ``EIO`` from the directory
fsync after ``cluster.json``'s rename stops a grow.
"""

from __future__ import annotations

import errno
import itertools
import json
import os
import shutil
import stat
from pathlib import Path

import numpy as np
import pytest

from repro import cli
from repro.cluster import ClusterCoordinator, Rebalancer
from repro.config import QueryConfig
from repro.errors import ClusterError, StorageError
from repro.testing import inject_bit_rot, sweep_kill_points, synth_record
from repro.vdbms.database import VideoDatabase
from repro.vdbms.manifest import RECORD_PREFIX

pytestmark = [pytest.mark.faults, pytest.mark.rebalance]

_RUNS = itertools.count(1)

#: Wide tolerances, so each probe answers from several videos and
#: shards, capped to exercise the per-shard top-k and the merge.
_QUERY = QueryConfig(alpha=8.0, beta=8.0)
_LIMIT = 5


def _records(n: int):
    return [synth_record(f"kv-{k}", np.random.default_rng(k)) for k in range(n)]


def _canonical(answer) -> list:
    """Everything a client decides on: the ranked shots and routes."""
    return [
        [m.video_id, m.shot_number, m.features.var_ba, m.features.var_oa]
        for m in answer.matches
    ] + answer.suggestions


def _classifier(ids, oracle, points, states):
    """Reopen with the real filesystem and name the state, ``states``
    mapping a shard count to ``pre``/``post``; anything torn fails."""

    def classify(root: Path, mode: str) -> str:
        try:
            cluster = ClusterCoordinator.open(root, recover=True)
        except (ClusterError, StorageError) as exc:
            assert mode == "corrupt", f"{mode} fault left {exc}"
            return "detected"
        try:
            if any(shard.db.quarantined for shard in cluster.shards):
                assert mode == "corrupt", f"{mode} fault lost a record"
                return "detected"
            assert cluster.video_ids() == ids
            state = states[cluster.n_shards]
            report = Rebalancer(cluster).execute()
            assert report.converged, report
            assert cluster.video_ids() == ids
            for shard in cluster.shards:
                fsck = shard.db.storage.fsck()
                assert fsck.clean or fsck.mode == "empty", fsck.problems()
            for point in points:
                answer = cluster.query(*point, limit=_LIMIT, config=_QUERY)
                expected = oracle.query(*point, limit=_LIMIT, config=_QUERY)
                assert not answer.partial
                assert _canonical(answer) == _canonical(expected)
            return state
        finally:
            cluster.close()

    return classify


class TestReshardSweeps:
    """A grow 2 -> 3 and a shrink 3 -> 2, at R=1 and R=2."""

    @pytest.mark.parametrize("replication", [1, 2])
    @pytest.mark.parametrize("n_from, n_to", [(2, 3), (3, 2)], ids=["grow", "shrink"])
    def test_reshard_is_sound_at_every_kill_point(
        self, tmp_path, n_from, n_to, replication
    ):
        records = _records(4)
        ids = sorted(record.video_id for record in records)
        oracle = VideoDatabase()
        for record in records:
            oracle.adopt(record)
        entries = oracle.index.entries
        points = [
            (e.features.var_ba, e.features.var_oa)
            for e in (entries[0], entries[len(entries) // 2], entries[-1])
        ]
        pristine = tmp_path / "pristine"
        cluster = ClusterCoordinator.create(pristine, n_from, replication=replication)
        for record in records:
            cluster.adopt(record)
        cluster.close()

        def setup() -> Path:
            root = tmp_path / f"run-{next(_RUNS)}"
            shutil.copytree(pristine, root)
            return root

        def operation(root: Path, fs) -> None:
            Rebalancer(ClusterCoordinator.open(root, fs=fs)).reshard(n_to)

        classify = _classifier(ids, oracle, points, {n_from: "pre", n_to: "post"})
        report = sweep_kill_points(setup, operation, classify)
        assert report.states() <= {"pre", "post", "detected"}
        assert {"pre", "post"} <= report.states()
        for run in report.by_mode("crash") + report.by_mode("torn"):
            assert run.state in ("pre", "post"), run
        assert any(run.state == "detected" for run in report.by_mode("corrupt"))
        # The ops were counted across cluster.json and the shards,
        # including the one a grow adds (or a shrink drains).
        renamed = {Path(p.path).name for p in report.points if p.op == "replace"}
        assert "cluster.json" in renamed
        assert any("shard-002" in Path(p.path).parts for p in report.points)


def _two_by_two(root: Path) -> None:
    """A 2-shard R=1 cluster: v0 and v1 on shard-000, v4 and v5 on
    shard-001."""
    cluster = ClusterCoordinator.create(root, 2, replication=1)
    for k in (0, 1, 4, 5):
        cluster.adopt(synth_record(f"v{k}", np.random.default_rng(k)))
    assert [shard.db.catalog.ids() for shard in cluster.shards] == [
        ["v0", "v1"],
        ["v4", "v5"],
    ]
    cluster.close()


class TestShrinkRefusesUnreadableRecords:
    def test_shrink_waits_for_fsck_repair(self, tmp_path, capsys):
        root = tmp_path / "c"
        _two_by_two(root)
        inject_bit_rot(root / "shard-001", logical=RECORD_PREFIX + "v4")
        rebalance = ["cluster", "rebalance", "--root", str(root), "--shards", "1"]
        assert cli.main(rebalance) == 1
        err = capsys.readouterr().err
        assert "'v4' on shard-1" in err and "repro fsck --repair" in err
        # Nothing moved, and the loss stays reported.
        payload = json.loads((root / "cluster.json").read_text())
        assert payload["router"]["n_shards"] == 2
        cluster = ClusterCoordinator.open(root, recover=True)
        assert [shard.db.catalog.ids() for shard in cluster.shards] == [
            ["v0", "v1"],
            ["v5"],
        ]
        assert cluster.shards[1].db.quarantined == ["v4"]
        cluster.close()
        assert cli.main(["fsck", str(root)]) == 1
        # Once fsck --repair has dropped the record, the shrink runs.
        assert cli.main(["fsck", str(root), "--repair"]) == 0
        assert cli.main(rebalance) == 0
        capsys.readouterr()
        reopened = ClusterCoordinator.open(root)
        assert reopened.n_shards == 1
        assert reopened.video_ids() == ["v0", "v1", "v5"]
        reopened.close()


def _flip_middle_byte(data: bytes) -> bytes:
    flipped = bytearray(data)
    flipped[len(flipped) // 2] ^= 0xFF
    return bytes(flipped)


class TestUnreadableClusterManifest:
    @pytest.mark.parametrize(
        "damage",
        [
            _flip_middle_byte,
            lambda data: b"[]",
            lambda data: b'{"version": 1}',
            lambda data: b'{"version": 1, "router": {"version": 1, "n_shards": "x"}}',
        ],
        ids=["flipped-byte", "not-an-object", "no-router", "bad-shard-count"],
    )
    def test_open_and_cli_report_it(self, tmp_path, capsys, damage):
        root = tmp_path / "c"
        _two_by_two(root)
        path = root / "cluster.json"
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(ClusterError, match="unreadable cluster.json"):
            ClusterCoordinator.open(root)
        for argv in (["fsck", str(root)], ["cluster", "status", "--root", str(root)]):
            assert cli.main(argv) == 1
            assert "error: unreadable cluster.json" in capsys.readouterr().err


def _dir_fsync_fails(code: int):
    """An ``os.fsync`` that raises ``code`` on a directory fd only."""
    real_fsync = os.fsync

    def fsync(fd: int) -> None:
        if stat.S_ISDIR(os.fstat(fd).st_mode):
            raise OSError(code, os.strerror(code))
        real_fsync(fd)

    return fsync


class TestManifestDirectorySync:
    """The directory fsync after ``cluster.json``'s rename is skipped
    only where the filesystem does not support one."""

    def test_an_io_error_stops_a_grow_before_any_move(self, tmp_path, monkeypatch):
        root = tmp_path / "c"
        _two_by_two(root)
        cluster = ClusterCoordinator.open(root)
        monkeypatch.setattr(os, "fsync", _dir_fsync_fails(errno.EIO))
        with pytest.raises(OSError):
            Rebalancer(cluster).reshard(3)
        monkeypatch.undo()
        assert cluster.n_shards == 2
        assert [shard.db.catalog.ids() for shard in cluster.shards] == [
            ["v0", "v1"],
            ["v4", "v5"],
        ]
        cluster.close()

    @pytest.mark.parametrize("code", [errno.EINVAL, errno.EOPNOTSUPP])
    def test_an_unsupported_one_is_skipped(self, tmp_path, monkeypatch, code):
        root = tmp_path / "c"
        _two_by_two(root)
        cluster = ClusterCoordinator.open(root)
        monkeypatch.setattr(os, "fsync", _dir_fsync_fails(code))
        assert Rebalancer(cluster).reshard(3).converged
        monkeypatch.undo()
        cluster.close()
        reopened = ClusterCoordinator.open(root)
        assert reopened.n_shards == 3
        assert reopened.video_ids() == ["v0", "v1", "v4", "v5"]
        reopened.close()
