"""Online rebalancing: planning, moves, resharding, crash strays."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import cli
from repro.cluster import (
    ClusterCoordinator,
    ConsistentHashRouter,
    RebalanceMove,
    Rebalancer,
)
from repro.errors import ClusterError
from repro.testing.synth import add_synth_video
from repro.vdbms.database import VideoDatabase

pytestmark = pytest.mark.rebalance


def make_record(video_id: str, seed: int):
    scratch = VideoDatabase()
    add_synth_video(scratch, video_id, np.random.default_rng(seed))
    return scratch.export_video(video_id)


def populate(cluster, n, seed0=0):
    ids = [f"rv-{seed0 + k:03d}" for k in range(n)]
    for k, video_id in enumerate(ids):
        cluster.adopt(make_record(video_id, seed0 + k))
    return ids


class TestPlanning:
    def test_settled_cluster_plans_nothing(self):
        cluster = ClusterCoordinator.ephemeral(3)
        populate(cluster, 9)
        assert Rebalancer(cluster).plan() == []

    def test_plan_against_new_ring_lists_the_diff(self):
        cluster = ClusterCoordinator.ephemeral(2)
        ids = populate(cluster, 12)
        target = ConsistentHashRouter(4)
        moves = Rebalancer(cluster).plan(target)
        expected = {
            v for v in ids if target.shard_for(v) != cluster.router.shard_for(v)
        }
        assert {m.video_id for m in moves} == expected
        for move in moves:
            assert move.dest == target.shard_for(move.video_id)


class TestExecution:
    def test_moves_relocate_durably(self, tmp_path):
        cluster = ClusterCoordinator.create(tmp_path / "c", 2)
        ids = populate(cluster, 8)
        victim = ids[0]
        source = cluster.locate(victim).shard_id
        dest = 1 - source
        report = Rebalancer(cluster).execute(
            [RebalanceMove(victim, source=source, dest=dest)]
        )
        assert report.moved == 1 and not report.errors
        assert cluster.locate(victim).shard_id == dest
        cluster.close()
        # The move survived through the checksummed publish path.
        reopened = ClusterCoordinator.open(tmp_path / "c")
        assert reopened.locate(victim).shard_id == dest
        assert reopened.holders_of(victim) == (dest,)  # no stray copy left
        reopened.close()

    def test_max_moves_bounds_a_run(self):
        # A 4-shard cluster planning against a 2-shard ring: every
        # destination exists, so the plan is directly executable.
        cluster = ClusterCoordinator.ephemeral(4)
        populate(cluster, 12)
        rebalancer = Rebalancer(cluster)
        moves = rebalancer.plan(ConsistentHashRouter(2))
        assert len(moves) >= 2
        report = rebalancer.execute(moves, max_moves=1)
        assert report.moved == 1
        assert report.planned == len(moves)

    def test_a_drop_never_removes_the_last_copy(self):
        cluster = ClusterCoordinator.ephemeral(2)
        [video_id] = populate(cluster, 1)
        holder = cluster.locate(video_id).shard_id
        drop = RebalanceMove(video_id, source=holder, dest=holder, kind="drop")
        report = Rebalancer(cluster).execute([drop])
        assert report.skipped == 1 and "only copy" in report.errors[0]["error"]
        assert cluster.holders_of(video_id) == (holder,)
        assert video_id in cluster.shards[holder].db.catalog

    def test_stale_move_is_skipped_not_fatal(self):
        cluster = ClusterCoordinator.ephemeral(2)
        ids = populate(cluster, 4)
        victim = ids[0]
        wrong_source = 1 - cluster.locate(victim).shard_id
        report = Rebalancer(cluster).execute(
            [RebalanceMove(victim, source=wrong_source, dest=0)]
        )
        assert report.moved == 0 and report.skipped == 1
        assert "stale plan" in report.errors[0]["error"]


class TestResharding:
    def test_grow_moves_minimal_set_and_settles(self, tmp_path):
        cluster = ClusterCoordinator.create(tmp_path / "c", 2)
        ids = populate(cluster, 16)
        old_router = cluster.router
        new_router = ConsistentHashRouter(4, replicas=old_router.replicas)
        expected_moves = sum(
            1 for v in ids if old_router.shard_for(v) != new_router.shard_for(v)
        )
        report = Rebalancer(cluster).reshard(4)
        assert cluster.n_shards == 4
        assert report.moved == expected_moves
        assert Rebalancer(cluster).plan() == []
        cluster.close()
        reopened = ClusterCoordinator.open(tmp_path / "c")
        assert reopened.n_shards == 4
        assert reopened.catalog_size() == 16
        reopened.close()

    def test_shrink_drains_dropped_shards(self, tmp_path):
        cluster = ClusterCoordinator.create(tmp_path / "c", 4)
        populate(cluster, 12)
        report = Rebalancer(cluster).reshard(2)
        assert cluster.n_shards == 2
        assert not report.errors
        assert cluster.catalog_size() == 12
        cluster.close()
        reopened = ClusterCoordinator.open(tmp_path / "c")
        assert reopened.n_shards == 2
        assert reopened.catalog_size() == 12
        reopened.close()

    def test_shrink_refuses_a_partial_budget(self):
        cluster = ClusterCoordinator.ephemeral(4)
        populate(cluster, 12)
        rebalancer = Rebalancer(cluster)
        needed = len(rebalancer.plan(ConsistentHashRouter(2)))
        if needed < 2:  # pragma: no cover - corpus-dependent guard
            pytest.skip("corpus needs no moves to shrink")
        with pytest.raises(ClusterError, match="strand"):
            rebalancer.reshard(2, max_moves=1)
        # Refusal left the layout unchanged.
        assert cluster.n_shards == 4

    def test_reshard_to_same_count_is_a_noop(self):
        cluster = ClusterCoordinator.ephemeral(3)
        populate(cluster, 6)
        report = Rebalancer(cluster).reshard(3)
        assert report.moved == 0 and report.planned == 0

    def test_grow_crash_after_manifest_recovers(self, tmp_path):
        """Crash between the manifest rewrite and the moves: reopening
        with the new ring finds every video and plans the remainder."""
        cluster = ClusterCoordinator.create(tmp_path / "c", 2)
        ids = populate(cluster, 10)
        new_router = ConsistentHashRouter(4, replicas=cluster.router.replicas)
        # Simulate the crash point: manifest published, zero moves run.
        ClusterCoordinator._write_manifest(tmp_path / "c", new_router)
        cluster.close()
        reopened = ClusterCoordinator.open(tmp_path / "c")
        assert reopened.n_shards == 4
        assert reopened.catalog_size() == 10
        pending = Rebalancer(reopened).plan()
        assert {m.video_id for m in pending} <= set(ids)
        report = Rebalancer(reopened).execute()
        assert not report.errors
        assert Rebalancer(reopened).plan() == []
        reopened.close()


class TestCrashConflicts:
    def _cluster_with_stray(self, tmp_path):
        """A durable cluster crashed mid-move: one video on two shards."""
        cluster = ClusterCoordinator.create(tmp_path / "c", 2)
        ids = populate(cluster, 6)
        victim = ids[0]
        source = cluster.locate(victim)
        dest = cluster.shards[1 - source.shard_id]
        dest.db.adopt(source.db.export_video(victim))  # copy, no delete
        cluster.close()
        return victim, ClusterCoordinator.open(tmp_path / "c")

    def test_open_detects_the_conflict(self, tmp_path):
        victim, reopened = self._cluster_with_stray(tmp_path)
        home = reopened.router.shard_for(victim)
        # The holder map keeps both copies; the plan drops the stray.
        plan = Rebalancer(reopened).plan()
        assert [(m.video_id, m.kind, m.source) for m in plan] == [
            (victim, "drop", 1 - home)
        ]
        # The primary is the ring home, so reads stay deterministic.
        assert reopened.locate(victim).shard_id == home
        # Queries stay duplicate-free even before cleanup.
        probe = reopened.locate(victim).db.index.entries[0]
        answer = reopened.query(probe.features.var_ba, probe.features.var_oa)
        keys = [(m.video_id, m.shot_number) for m in answer.matches]
        assert len(keys) == len(set(keys))
        reopened.close()

    def test_status_lists_the_stray(self, tmp_path, capsys):
        victim, reopened = self._cluster_with_stray(tmp_path)
        home = reopened.router.shard_for(victim)
        reopened.close()
        root = str(tmp_path / "c")
        assert cli.main(["cluster", "status", "--root", root, "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["strays"] == [
            {"video_id": victim, "shard": f"shard-{1 - home}"}
        ]
        assert status["pending_moves"] == 1 and status["unrepairable"] == []

    def test_rebalance_cleans_the_stray_copy(self, tmp_path):
        victim, reopened = self._cluster_with_stray(tmp_path)
        report = Rebalancer(reopened).execute()
        assert report.strays_removed == 1
        assert Rebalancer(reopened).plan() == []
        holders = [
            shard.shard_id
            for shard in reopened.shards
            if victim in shard.db.catalog
        ]
        assert holders == [reopened.locate(victim).shard_id]
        reopened.close()
        # Cleanliness is durable.
        final = ClusterCoordinator.open(tmp_path / "c")
        assert Rebalancer(final).plan() == []
        final.close()


class TestRebalanceCLI:
    def test_plan_then_bounded_grow(self, tmp_path, capsys):
        root = tmp_path / "c"
        cluster = ClusterCoordinator.create(root, 2)
        ids = populate(cluster, 12)
        cluster.close()
        base = ["cluster", "rebalance", "--root", str(root), "--json"]
        assert cli.main([*base, "--shards", "4", "--plan"]) == 0
        planned = json.loads(capsys.readouterr().out)
        target = ConsistentHashRouter(4, replicas=cluster.router.replicas)
        assert {m["video_id"] for m in planned} == {
            v for v in ids if target.shard_for(v) != cluster.router.shard_for(v)
        }
        assert {m["kind"] for m in planned} == {"move"}
        assert len(planned) >= 2
        # --plan moved nothing; a one-move budget grows and moves one.
        assert cli.main([*base, "--shards", "4", "--max-moves", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["planned"] == len(planned) and report["moved"] == 1
        assert report["converged"] is False and report["errors"] == []
        assert cli.main(base) == 0  # settles the rest against the new ring
        report = json.loads(capsys.readouterr().out)
        assert report["moved"] == len(planned) - 1 and report["converged"]
        reopened = ClusterCoordinator.open(root)
        assert reopened.n_shards == 4 and Rebalancer(reopened).plan() == []
        reopened.close()
