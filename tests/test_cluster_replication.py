"""Replication: placement, write fan-out, and failover decision identity.

The tentpole contract under test: with R=2, killing any single shard
leaves every ``query`` and ``query_batch`` answer byte-identical to the
healthy cluster's — complete, zero partial — with the outage reported
in ``shards_failed`` *and* ``shards_recovered``.  Plus the machinery
around it: distinct-successor placement, all-or-nothing write fan-out,
the persisted replication factor, replica-aware rebalancing, and the
breaker-style shard supervisor.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.cluster import CLUSTER_MANIFEST, ClusterCoordinator
from repro.cluster.rebalance import Rebalancer
from repro.cluster.replication import ShardSupervisor, copy_video
from repro.errors import ClusterError, QueryError, ShardUnavailableError
from repro.obs import TraceContext, tracing, unsettled_spans
from repro.service.engine import ServiceEngine
from repro.service.server import create_server
from repro.testing import FakeClock, ShardOutage, break_shard_queries
from repro.testing.synth import add_synth_video
from repro.vdbms.database import VideoDatabase

pytestmark = pytest.mark.replication


def make_record(video_id: str, seed: int):
    """One synthetic video's derived state, detached for adopt()."""
    scratch = VideoDatabase()
    add_synth_video(scratch, video_id, np.random.default_rng(seed))
    return scratch.export_video(video_id)


def make_records(n: int, seed0: int = 0):
    return [make_record(f"clip-{seed0 + k:03d}", seed0 + k) for k in range(n)]


def populate(cluster: ClusterCoordinator, n: int, seed0: int = 0) -> list[str]:
    records = make_records(n, seed0)
    for record in records:
        cluster.adopt(record)
    return [r.video_id for r in records]


def probe_points(records, k: int = 6) -> list[tuple[float, float]]:
    """Deterministic query points drawn from the corpus itself."""
    points = []
    for record in records[:: max(1, len(records) // k)]:
        entry = record.index_entries[0]
        points.append((entry.features.var_ba, entry.features.var_oa))
    return points


def canonical(answer) -> bytes:
    """A byte-exact serialization of everything a client decides on."""
    doc = {
        "matches": [
            [
                m.video_id,
                m.shot_number,
                m.start_frame,
                m.end_frame,
                m.features.var_ba,
                m.features.var_oa,
            ]
            for m in answer.matches
        ],
        "routes": answer.suggestions,
    }
    return json.dumps(doc, sort_keys=True).encode("utf-8")


class TestReplicaPlacement:
    def test_shards_for_walks_distinct_successors(self):
        cluster = ClusterCoordinator.ephemeral(4, replication=2)
        for k in range(20):
            video_id = f"place-{k}"
            copies = cluster.router.shards_for(video_id, 2)
            assert len(copies) == 2
            assert len(set(copies)) == 2
            assert copies[0] == cluster.router.shard_for(video_id)

    def test_fanout_commits_every_copy(self):
        cluster = ClusterCoordinator.ephemeral(3, replication=2)
        ids = populate(cluster, 8)
        for video_id in ids:
            expected = cluster.router.shards_for(video_id, 2)
            assert set(cluster.holders_of(video_id)) == set(expected)
            for shard_id in expected:
                assert video_id in cluster.shards[shard_id].db.catalog
        assert sum(s.replications for s in cluster.shards) == len(ids)

    def test_replication_capped_at_n_shards(self):
        cluster = ClusterCoordinator.ephemeral(2, replication=3)
        assert cluster.effective_replication == 2
        populate(cluster, 2)
        for shard in cluster.shards:
            assert len(shard.db.catalog) == 2

    def test_invalid_replication_rejected(self):
        with pytest.raises(ClusterError):
            ClusterCoordinator.ephemeral(2, replication=0)

    def test_fanout_failure_rolls_back_every_copy(self):
        cluster = ClusterCoordinator.ephemeral(3, replication=2)
        record = make_record("atomic-1", 7)
        primary, replica = cluster.router.shards_for("atomic-1", 2)

        def boom(*args, **kwargs):
            raise OSError("replica disk full")

        cluster.shards[replica].db.adopt = boom
        with pytest.raises(OSError):
            cluster.adopt(record)
        del cluster.shards[replica].db.adopt
        # All-or-nothing: the primary copy was rolled back and the
        # claim released, so the same id adopts cleanly afterwards.
        assert "atomic-1" not in cluster
        for shard in cluster.shards:
            assert "atomic-1" not in shard.db.catalog
        cluster.adopt(record)
        assert set(cluster.holders_of("atomic-1")) == {primary, replica}

    def test_adopt_refuses_when_a_target_is_down(self):
        cluster = ClusterCoordinator.ephemeral(3, replication=2)
        record = make_record("checked-1", 9)
        _, replica = cluster.router.shards_for("checked-1", 2)
        cluster.shards[replica].mark_down("maintenance")
        with pytest.raises(ShardUnavailableError):
            cluster.adopt(record)
        assert "checked-1" not in cluster
        cluster.shards[replica].mark_up()
        cluster.adopt(record)

    def test_remove_drops_every_copy(self):
        cluster = ClusterCoordinator.ephemeral(3, replication=2)
        [video_id] = populate(cluster, 1)
        assert cluster.remove(video_id) > 0
        for shard in cluster.shards:
            assert video_id not in shard.db.catalog
        assert video_id not in cluster


class TestDurableReplication:
    def test_manifest_round_trip(self, tmp_path):
        root = tmp_path / "c"
        cluster = ClusterCoordinator.create(root, 3, replication=2)
        ids = populate(cluster, 6)
        cluster.close()

        payload = json.loads((root / CLUSTER_MANIFEST).read_text())
        assert payload["replication"] == 2

        reopened = ClusterCoordinator.open(root)
        assert reopened.replication == 2
        for video_id in ids:
            assert len(reopened.holders_of(video_id)) == 2
        reopened.close()

    def test_open_or_create_refuses_replication_mismatch(self, tmp_path):
        root = tmp_path / "c"
        ClusterCoordinator.create(root, 2, replication=2).close()
        with pytest.raises(ClusterError, match="repro cluster repair"):
            ClusterCoordinator.open_or_create(root, 2, replication=1)
        # Deferring to the manifest is always fine.
        cluster = ClusterCoordinator.open_or_create(root, 2, replication=None)
        assert cluster.replication == 2
        cluster.close()

    def test_set_replication_rewrites_manifest_only(self, tmp_path):
        root = tmp_path / "c"
        cluster = ClusterCoordinator.create(root, 3, replication=1)
        ids = populate(cluster, 5)
        cluster.set_replication(2)
        payload = json.loads((root / CLUSTER_MANIFEST).read_text())
        assert payload["replication"] == 2
        # No data moved yet: convergence is the rebalancer/repairer's job.
        for video_id in ids:
            assert len(cluster.holders_of(video_id)) == 1
        with pytest.raises(ClusterError):
            cluster.set_replication(0)
        cluster.close()


class TestFailoverDecisionIdentity:
    """The acceptance bar: R=2 answers never change when a shard dies."""

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_replication_does_not_change_answers(self, n_shards):
        records = make_records(12)
        r1 = ClusterCoordinator.ephemeral(n_shards, replication=1)
        r2 = ClusterCoordinator.ephemeral(n_shards, replication=2)
        for record in records:
            r1.adopt(record)
            r2.adopt(record)
        points = probe_points(records)
        for var_ba, var_oa in points:
            assert canonical(r2.query(var_ba, var_oa)) == canonical(
                r1.query(var_ba, var_oa)
            )
        for a1, a2 in zip(r1.query_batch(points), r2.query_batch(points)):
            assert canonical(a2) == canonical(a1)

    @pytest.mark.parametrize("traced", [False, True])
    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_kill_each_shard_in_turn(self, n_shards, traced):
        """Failover answers equal the healthy untraced ones, traced or
        not, and a traced failover leaves no span unsettled."""
        records = make_records(12)
        cluster = ClusterCoordinator.ephemeral(n_shards, replication=2)
        for record in records:
            cluster.adopt(record)
        points = probe_points(records)
        baseline = [canonical(cluster.query(ba, oa)) for ba, oa in points]
        baseline_batch = [canonical(a) for a in cluster.query_batch(points)]

        for shard_id in range(n_shards):
            name = f"shard-{shard_id}"
            ctx = TraceContext(name="test") if traced else None
            with ShardOutage(cluster, shard_id), tracing(ctx):
                for point, expect in zip(points, baseline):
                    answer = cluster.query(*point)
                    assert canonical(answer) == expect
                    assert answer.partial is False
                    assert [f["shard"] for f in answer.shards_failed] == [name]
                    assert answer.shards_recovered == [name]
                answers = cluster.query_batch(points)
                assert [canonical(a) for a in answers] == baseline_batch
                for answer in answers:
                    assert answer.partial is False
                    assert [f["shard"] for f in answer.shards_failed] == [name]
            if ctx is not None:
                assert unsettled_spans(ctx.finish()) == []
            # Healthy again after the outage.
            healthy = cluster.query(*points[0])
            assert healthy.shards_failed == []
            assert canonical(healthy) == baseline[0]

    def test_losing_both_copies_degrades_to_partial(self):
        cluster = ClusterCoordinator.ephemeral(4, replication=2)
        ids = populate(cluster, 12)
        a, b = cluster.holders_of(ids[0])
        with ShardOutage(cluster, a), ShardOutage(cluster, b):
            answer = cluster.query(1.0, 1.0)
            assert answer.partial is True
            assert len(answer.shards_failed) == 2

    def test_failover_counter_ticks(self):
        cluster = ClusterCoordinator.ephemeral(3, replication=2)
        populate(cluster, 6)
        with ShardOutage(cluster, 0):
            cluster.query(1.0, 1.0)
        assert cluster.failovers >= 1


class TestReplicaAwareRebalance:
    def test_raising_replication_plans_copies(self):
        cluster = ClusterCoordinator.ephemeral(3, replication=1)
        ids = populate(cluster, 6)
        cluster.set_replication(2)
        moves = Rebalancer(cluster).plan()
        assert moves and all(m.kind == "copy" for m in moves)
        report = Rebalancer(cluster).execute(moves)
        assert report.moved == len(moves) and not report.errors
        for video_id in ids:
            assert set(cluster.holders_of(video_id)) == set(
                cluster.router.shards_for(video_id, 2)
            )

    def test_lowering_replication_plans_drops(self):
        cluster = ClusterCoordinator.ephemeral(3, replication=2)
        ids = populate(cluster, 6)
        cluster.set_replication(1)
        moves = Rebalancer(cluster).plan()
        assert moves and all(m.kind == "drop" for m in moves)
        Rebalancer(cluster).execute(moves)
        for video_id in ids:
            assert cluster.holders_of(video_id) == (
                cluster.router.shard_for(video_id),
            )

    def test_settled_replicated_cluster_plans_nothing(self):
        cluster = ClusterCoordinator.ephemeral(3, replication=2)
        populate(cluster, 6)
        assert Rebalancer(cluster).plan() == []

    def test_copy_video_primitive_records_the_holder(self):
        cluster = ClusterCoordinator.ephemeral(2, replication=1)
        [video_id] = populate(cluster, 1)
        source_id = cluster.holders_of(video_id)[0]
        dest_id = 1 - source_id
        assert copy_video(
            cluster,
            video_id,
            cluster.shards[source_id],
            cluster.shards[dest_id],
        )
        assert set(cluster.holders_of(video_id)) == {source_id, dest_id}
        assert cluster.shards[dest_id].repairs == 1
        assert not copy_video(
            cluster,
            "never-ingested",
            cluster.shards[source_id],
            cluster.shards[dest_id],
        )


class TestShardSupervisor:
    def _sick_setup(self, threshold=2):
        clock = FakeClock()
        cluster = ClusterCoordinator.ephemeral(3, replication=2)
        populate(cluster, 9)
        supervisor = ShardSupervisor(
            cluster, threshold=threshold, retry_after_s=5.0, clock=clock
        )
        return cluster, supervisor, clock

    def test_benches_after_consecutive_failures(self):
        cluster, supervisor, _ = self._sick_setup(threshold=2)
        with break_shard_queries(cluster.shards[1]):
            answer = cluster.query(1.0, 1.0)
            assert answer.partial is False  # covered by replicas
            assert supervisor.observe(answer) == []
            benched = supervisor.observe(cluster.query(1.0, 1.0))
        assert benched == ["shard-1"]
        assert cluster.shards[1].down
        assert "supervisor" in cluster.shards[1].down_reason
        assert supervisor.trips == 1
        # Benched == routed around: the next scatter still answers fully.
        after = cluster.query(1.0, 1.0)
        assert after.partial is False
        assert [f["reason"] for f in after.shards_failed] == ["down"]

    def test_single_blip_does_not_bench(self):
        cluster, supervisor, _ = self._sick_setup(threshold=2)
        with break_shard_queries(cluster.shards[1]):
            supervisor.observe(cluster.query(1.0, 1.0))
        supervisor.observe(cluster.query(1.0, 1.0))  # healthy: resets
        with break_shard_queries(cluster.shards[1]):
            supervisor.observe(cluster.query(1.0, 1.0))
        assert not cluster.shards[1].down

    def test_probe_readmits_after_cooldown(self):
        cluster, supervisor, clock = self._sick_setup(threshold=1)
        with break_shard_queries(cluster.shards[2]):
            supervisor.observe(cluster.query(1.0, 1.0))
        assert cluster.shards[2].down
        clock.advance(4.9)
        assert supervisor.probe() == []  # cool-down not elapsed
        clock.advance(0.2)
        assert supervisor.probe() == ["shard-2"]
        assert not cluster.shards[2].down
        assert supervisor.readmissions == 1
        assert cluster.query(1.0, 1.0).shards_failed == []

    def test_readmit_respects_manual_mark_down(self):
        cluster, supervisor, _ = self._sick_setup()
        cluster.shards[0].mark_down("operator maintenance")
        assert supervisor.readmit("shard-0") is False
        assert cluster.shards[0].down  # not the supervisor's to reverse


class TestReplicatedCounts:
    def test_served_counts_list_each_video_once(self):
        """R copies of a video are one video with its shots, in
        ``/videos`` and ``/health`` alike."""
        records = make_records(4)
        plain = VideoDatabase()
        cluster = ClusterCoordinator.ephemeral(3, replication=2)
        for record in records:
            plain.adopt(record)
            cluster.adopt(record)
        single = ServiceEngine(plain, n_workers=1, watchdog_interval=0)
        replicated = ServiceEngine(cluster, n_workers=1, watchdog_interval=0)
        try:
            assert replicated.catalog_payload() == single.catalog_payload()
            want, got = single.health_payload(), replicated.health_payload()
            assert (got["videos"], got["indexed_shots"]) == (
                want["videos"],
                want["indexed_shots"],
            )
            assert got["indexed_shots"] == sum(len(r.index_entries) for r in records)
        finally:
            single.shutdown(timeout=10)
            replicated.shutdown(timeout=10)


def _get(base_url: str, path: str):
    try:
        with urllib.request.urlopen(base_url + path, timeout=30) as response:
            return response.status, json.loads(response.read() or b"{}")
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read() or b"{}")


def _post(base_url: str, path: str):
    request = urllib.request.Request(
        base_url + path, data=b"", method="POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read() or b"{}")
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read() or b"{}")


class TestServiceFailover:
    def test_engine_reports_recovery_and_skips_the_cache(self):
        cluster = ClusterCoordinator.ephemeral(3, replication=2)
        populate(cluster, 9)
        engine = ServiceEngine(cluster, n_workers=3, watchdog_interval=0)
        try:
            cluster.shards[0].mark_down("chaos")
            payload, cached = engine.query(1.0, 1.0)
            assert payload["partial"] is False
            assert payload["shards_recovered"] == ["shard-0"]
            assert not cached
            # Failover answers are never cached: the same point misses
            # again (and the failover counter ticks once per answer).
            _, cached = engine.query(1.0, 1.0)
            assert not cached
            counters = engine.metrics_payload()["counters"]
            assert counters["cluster_failover_answers"] == 2
            assert counters.get("cluster_partial_answers", 0) == 0
        finally:
            engine.shutdown(timeout=10)

    def test_admin_kill_and_revive_over_http(self):
        cluster = ClusterCoordinator.ephemeral(3, replication=2)
        populate(cluster, 9)
        engine = ServiceEngine(cluster, n_workers=3, watchdog_interval=0)
        server = create_server(engine)
        host, port = server.server_address[:2]
        base_url = f"http://{host}:{port}"
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            status, body = _post(base_url, "/admin/shards/1/kill")
            assert status == 200 and body["up"] is False

            status, health = _get(base_url, "/health")
            assert status == 200
            assert health["cluster"]["shards_up"] == 2
            assert health["cluster"]["replication"] == 2
            down = [s for s in health["cluster"]["shards"] if not s["up"]]
            assert [s["shard"] for s in down] == ["shard-1"]
            assert "supervisor" in health["cluster"]
            assert health["cluster"]["scrubber_running"] is False

            # R=2 keeps queries complete through the outage.
            status, answer = _get(base_url, "/query?var_ba=1.0&var_oa=1.0")
            assert status == 200 and answer["partial"] is False
            assert answer["shards_recovered"] == ["shard-1"]

            status, body = _post(base_url, "/admin/shards/1/revive")
            assert status == 200 and body["up"] is True

            status, _ = _post(base_url, "/admin/shards/99/kill")
            assert status == 400
            status, _ = _post(base_url, "/admin/shards/not-a-number/kill")
            assert status == 400
        finally:
            server.shutdown()
            thread.join(timeout=10)
            engine.shutdown(timeout=10)

    def test_admin_serves_a_plain_database_as_one_shard(self):
        engine = ServiceEngine(
            VideoDatabase(), n_workers=1, watchdog_interval=0
        )
        try:
            assert engine.kill_shard(0)["up"] is False
            assert engine.revive_shard(0)["up"] is True
            with pytest.raises(QueryError):
                engine.kill_shard(1)  # a plain database is shard 0 only
        finally:
            engine.shutdown(timeout=10)
