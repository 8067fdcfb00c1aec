"""A move drops its source only once the destination's copy reads back.

A ``move`` (a single misplaced copy) copies the video to its new shard
and then drops the old copy.  A write that lands silently corrupted on
the destination must not cost the only copy: the reconciler re-reads
the destination's committed record first, rewrites it once from the
source when it does not verify, and drops the source only after a good
read.  The sweep corrupts, in turn, each record write a grow 2 -> 3 at
R=1 makes on the new shard, then reopens with the real filesystem.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import ClusterCoordinator, Rebalancer
from repro.testing import synth_record
from repro.testing.faults import FaultyFS, RecordingFS

pytestmark = [pytest.mark.rebalance, pytest.mark.faults]


def _moved_record_writes(pristine: Path, scratch: Path) -> list[int]:
    """Kill points of the grow's record writes on the new shard."""
    shutil.copytree(pristine, scratch)
    fs = RecordingFS()
    Rebalancer(ClusterCoordinator.open(scratch, fs=fs)).reshard(3)
    return [
        op.index
        for op in fs.ops
        if op.op == "write"
        and op.path.endswith(".rvr")
        and Path(op.path).relative_to(scratch).parts[0] == "shard-002"
    ]


def test_corrupt_moved_record_keeps_every_video(tmp_path):
    records = [synth_record(f"kv-{k}", np.random.default_rng(k)) for k in range(4)]
    ids = sorted(record.video_id for record in records)
    pristine = tmp_path / "pristine"
    cluster = ClusterCoordinator.create(pristine, 2, replication=1)
    for record in records:
        cluster.adopt(record)
    cluster.close()

    kill_points = _moved_record_writes(pristine, tmp_path / "recorded")
    assert kill_points, "the grow moved no video onto the new shard"
    for k in kill_points:
        root = tmp_path / f"run-{k}"
        shutil.copytree(pristine, root)
        fs = FaultyFS(fail_at=k, mode="corrupt")
        cluster = ClusterCoordinator.open(root, fs=fs)
        report = Rebalancer(cluster).reshard(3)
        cluster.close()
        assert fs.failures == 1
        assert not report.errors, report.errors

        cluster = ClusterCoordinator.open(root, recover=True)
        try:
            assert cluster.n_shards == 3
            assert not any(shard.db.quarantined for shard in cluster.shards), k
            assert cluster.video_ids() == ids, k
            for shard in cluster.shards:
                fsck = shard.db.storage.fsck()
                assert fsck.clean or fsck.mode == "empty", (k, fsck.problems())
        finally:
            cluster.close()
