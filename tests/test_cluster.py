"""Coordinator behavior: routing, scatter-gather, degradation, service.

The fault-tolerance contract under test: killing a shard mid-flight
turns its contribution into a ``shards_failed`` entry — a *partial*
answer with HTTP 200 — never an exception, never a 500.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.cluster import CLUSTER_MANIFEST, ClusterCoordinator
from repro.errors import (
    CatalogError,
    ClusterError,
    ShardUnavailableError,
)
from repro.service.engine import ServiceEngine
from repro.service.resilience import Deadline
from repro.service.server import create_server
from repro.testing.synth import add_synth_video
from repro.vdbms.database import VideoDatabase

pytestmark = pytest.mark.cluster


def make_record(video_id: str, seed: int):
    """One synthetic video's derived state, detached for adopt()."""
    scratch = VideoDatabase()
    add_synth_video(scratch, video_id, np.random.default_rng(seed))
    return scratch.export_video(video_id)


def populate(cluster: ClusterCoordinator, n: int, seed0: int = 0) -> list[str]:
    ids = [f"clip-{seed0 + k:03d}" for k in range(n)]
    for k, video_id in enumerate(ids):
        cluster.adopt(make_record(video_id, seed0 + k))
    return ids


class TestRoutingAndPlacement:
    def test_ingest_lands_on_the_ring_home(self):
        cluster = ClusterCoordinator.ephemeral(3)
        ids = populate(cluster, 10)
        for video_id in ids:
            home = cluster.router.shard_for(video_id)
            assert video_id in cluster.shards[home].db.catalog
            assert cluster.locate(video_id).shard_id == home

    def test_duplicate_id_rejected_cluster_wide(self):
        cluster = ClusterCoordinator.ephemeral(2)
        record = make_record("dup", 1)
        cluster.adopt(record)
        with pytest.raises(CatalogError):
            cluster.adopt(record)

    def test_failed_adopt_releases_the_claim(self):
        cluster = ClusterCoordinator.ephemeral(2)
        record = make_record("flaky", 2)
        shard = cluster.shard(cluster.router.shard_for("flaky"))
        shard.mark_down("test")
        with pytest.raises(ShardUnavailableError):
            cluster.adopt(record)
        shard.mark_up()
        cluster.adopt(record)  # the claim was rolled back
        assert "flaky" in cluster

    def test_remove_updates_placement(self):
        cluster = ClusterCoordinator.ephemeral(2)
        populate(cluster, 4)
        assert cluster.remove("clip-001") > 0
        assert "clip-001" not in cluster
        with pytest.raises(CatalogError):
            cluster.locate("clip-001")

    def test_unknown_shard_id_raises(self):
        cluster = ClusterCoordinator.ephemeral(2)
        with pytest.raises(ClusterError):
            cluster.shard(5)


class TestScatterGather:
    """Each degradation behavior must hold for both scatter strategies
    (pooled on multi-core hosts, inline on single-core — see
    ``ClusterCoordinator.parallel_scatter``)."""

    @pytest.mark.parametrize("parallel", [False, True])
    def test_healthy_cluster_answers_fully(self, parallel):
        cluster = ClusterCoordinator.ephemeral(4)
        cluster.parallel_scatter = parallel
        populate(cluster, 12)
        probe = cluster.shards[0].db.index.entries[0]
        answer = cluster.query(probe.features.var_ba, probe.features.var_oa)
        assert answer.shards_queried == 4
        assert answer.shards_failed == []
        assert not answer.partial
        assert len(answer.matches) == len(answer.routes)

    @pytest.mark.parametrize("parallel", [False, True])
    def test_down_shard_degrades_to_partial(self, parallel):
        cluster = ClusterCoordinator.ephemeral(3)
        cluster.parallel_scatter = parallel
        populate(cluster, 9)
        cluster.shards[1].mark_down("chaos test")
        probe = cluster.shards[0].db.index.entries[0]
        answer = cluster.query(probe.features.var_ba, probe.features.var_oa)
        assert answer.partial
        assert answer.shards_queried == 2
        [failure] = answer.shards_failed
        assert failure["shard"] == "shard-1"
        assert failure["reason"] == "down"
        # No match from the dead shard leaked in.
        dead_ids = set(cluster.shards[1].db.catalog.ids())
        assert all(m.video_id not in dead_ids for m in answer.matches)

    @pytest.mark.parametrize("parallel", [False, True])
    def test_shard_error_degrades_to_partial(self, parallel):
        cluster = ClusterCoordinator.ephemeral(2)
        cluster.parallel_scatter = parallel
        populate(cluster, 6)

        def boom(*args, **kwargs):
            raise RuntimeError("shard exploded")

        cluster.shards[0].db.query_batch = boom
        answer = cluster.query(1.0, 1.0)
        assert answer.partial
        [failure] = answer.shards_failed
        assert failure["reason"] == "error"
        assert "shard exploded" in failure["error"]
        assert cluster.shards[0].errors == 1

    @pytest.mark.parametrize("parallel", [False, True])
    def test_exhausted_deadline_reports_every_shard(self, parallel):
        cluster = ClusterCoordinator.ephemeral(2)
        cluster.parallel_scatter = parallel
        populate(cluster, 4)
        spent = Deadline.after_ms(0.0001)
        answer = cluster.query(1.0, 1.0, deadline=spent)
        # Nothing crashed: whatever missed the budget is accounted for.
        assert answer.shards_queried + len(answer.shards_failed) == 2

    def test_scatter_strategies_agree(self):
        cluster = ClusterCoordinator.ephemeral(3)
        populate(cluster, 12)
        probes = [
            (e.features.var_ba, e.features.var_oa)
            for e in cluster.shards[0].db.index.entries[:4]
        ]
        for var_ba, var_oa in probes:
            cluster.parallel_scatter = False
            serial = cluster.query(var_ba, var_oa, limit=5)
            cluster.parallel_scatter = True
            pooled = cluster.query(var_ba, var_oa, limit=5)
            assert [
                (m.video_id, m.shot_number) for m in serial.matches
            ] == [(m.video_id, m.shot_number) for m in pooled.matches]
            assert [r.suggestion for r in serial.routes] == [
                r.suggestion for r in pooled.routes
            ]

    def test_query_by_shot_on_down_owner_raises(self):
        cluster = ClusterCoordinator.ephemeral(2)
        populate(cluster, 4)
        video_id = cluster.video_ids()[0]
        cluster.locate(video_id).mark_down("owner dead")
        with pytest.raises(ShardUnavailableError):
            cluster.query_by_shot(video_id, 1)

    def test_query_by_shot_unknown_video(self):
        cluster = ClusterCoordinator.ephemeral(2)
        with pytest.raises(CatalogError):
            cluster.query_by_shot("nope", 1)


class TestMovesDuringScatter:
    """The seqlock read side: a scatter that the move counter never lets
    settle may have missed a moving video, so its answers are partial."""

    @staticmethod
    def _bump_on_every_read(cluster: ClusterCoordinator) -> list[int]:
        """Make every shard read bump the move counter, as if a move
        became visible during each scatter round; returns the read log."""
        reads: list[int] = []

        def bumping(shard, method):
            def read(*args, **kwargs):
                reads.append(shard.shard_id)
                cluster.note_move_visible()
                return method(*args, **kwargs)

            return read

        for shard in cluster.shards:
            for name in ("query", "query_batch"):
                setattr(shard.db, name, bumping(shard, getattr(shard.db, name)))
        return reads

    @pytest.mark.parametrize("parallel", [False, True])
    def test_unsettled_scatter_is_partial(self, parallel):
        cluster = ClusterCoordinator.ephemeral(4)
        cluster.parallel_scatter = parallel
        populate(cluster, 8)
        reads = self._bump_on_every_read(cluster)
        answer = cluster.query(2.0, 2.0)
        assert len(reads) > cluster.n_shards  # it did re-scatter
        assert answer.partial
        [failure] = answer.shards_failed
        assert failure["reason"] == "rebalance"
        assert answer.shards_queried == 4  # every shard answered
        batch = cluster.query_batch([(2.0, 2.0), (9.0, 4.0)])
        assert all(a.partial for a in batch)

    def test_unsettled_answers_are_uncached_and_blame_no_shard(self):
        cluster = ClusterCoordinator.ephemeral(3)
        populate(cluster, 6)
        engine = ServiceEngine(
            cluster, n_workers=3, watchdog_interval=0, supervisor_threshold=1
        )
        try:
            self._bump_on_every_read(cluster)
            payload, cached = engine.query(2.0, 2.0)
            assert payload["partial"] is True and not cached
            assert payload["shards_failed"][0]["reason"] == "rebalance"
            _, cached = engine.query(2.0, 2.0)
            assert not cached  # recomputed, never served from the cache
            counters = engine.metrics.snapshot()["counters"]
            assert counters["cluster_partial_answers"] == 2
            # Every shard answered: the supervisor benches nobody.
            assert engine.supervisor.trips == 0
            assert not any(shard.down for shard in cluster.shards)
        finally:
            engine.shutdown(timeout=10)


class TestDurableLifecycle:
    def test_create_open_round_trip(self, tmp_path):
        cluster = ClusterCoordinator.create(tmp_path / "c", 3)
        ids = populate(cluster, 7)
        cluster.close()
        reopened = ClusterCoordinator.open(tmp_path / "c")
        assert reopened.catalog_size() == 7
        assert sorted(reopened.video_ids()) == sorted(ids)
        for video_id in ids:
            assert reopened.locate(video_id).shard_id == (
                reopened.router.shard_for(video_id)
            )
        reopened.close()

    def test_create_refuses_existing_cluster(self, tmp_path):
        ClusterCoordinator.create(tmp_path / "c", 2).close()
        with pytest.raises(ClusterError):
            ClusterCoordinator.create(tmp_path / "c", 2)

    def test_open_requires_manifest(self, tmp_path):
        with pytest.raises(ClusterError):
            ClusterCoordinator.open(tmp_path)

    def test_open_or_create_shard_count_mismatch(self, tmp_path):
        ClusterCoordinator.create(tmp_path / "c", 2).close()
        with pytest.raises(ClusterError, match="rebalance"):
            ClusterCoordinator.open_or_create(tmp_path / "c", 4)

    def test_manifest_is_json(self, tmp_path):
        ClusterCoordinator.create(tmp_path / "c", 2).close()
        payload = json.loads((tmp_path / "c" / CLUSTER_MANIFEST).read_text())
        assert payload["router"]["n_shards"] == 2


class TestServiceEngineClusterMode:
    def _engine(self, n_shards=3, **kwargs):
        cluster = ClusterCoordinator.ephemeral(n_shards)
        kwargs.setdefault("watchdog_interval", 0)
        kwargs.setdefault("n_workers", n_shards)
        return ServiceEngine(cluster, **kwargs), cluster

    def test_ingest_jobs_flow_through_shard_queues(self):
        engine, cluster = self._engine()
        try:
            jobs = [
                engine.submit_spec(
                    {"video_id": f"svc-{k}", "n_shots": 2, "seed": k}
                )
                for k in range(6)
            ]
            for job in jobs:
                assert engine.wait_for(job.job_id, timeout=60).status.value == "done"
            assert cluster.catalog_size() == 6
            assert engine.n_queues == 3
            # Jobs landed across shards, not all on queue 0.
            assert sum(s.ingests for s in cluster.shards) == 6
            assert sum(1 for s in cluster.shards if s.ingests) >= 2
        finally:
            engine.shutdown(timeout=10)

    def test_query_payload_carries_cluster_fields(self):
        engine, cluster = self._engine()
        try:
            populate(cluster, 6)
            payload, cached = engine.query(1.0, 1.0)
            assert payload["partial"] is False
            assert payload["shards_failed"] == []
            assert payload["shards_queried"] == 3
        finally:
            engine.shutdown(timeout=10)

    def test_partial_answers_are_not_cached(self):
        engine, cluster = self._engine()
        try:
            populate(cluster, 6)
            cluster.shards[0].mark_down("chaos")
            payload, cached = engine.query(2.0, 2.0)
            assert payload["partial"] is True and not cached
            # The same query again must recompute (no poisoned cache).
            payload2, cached2 = engine.query(2.0, 2.0)
            assert not cached2
            cluster.shards[0].mark_up()
            payload3, _ = engine.query(2.0, 2.0)
            assert payload3["partial"] is False
            assert engine.metrics.snapshot()["counters"][
                "cluster_partial_answers"
            ] == 2
        finally:
            engine.shutdown(timeout=10)

    def test_health_and_metrics_show_cluster_state(self):
        engine, cluster = self._engine()
        try:
            populate(cluster, 5)
            cluster.shards[2].mark_down("maintenance")
            health = engine.health_payload()
            assert health["videos"] == 5
            assert health["cluster"]["n_shards"] == 3
            assert health["cluster"]["shards_up"] == 2
            metrics = engine.metrics_payload()
            assert metrics["cluster"]["shards_up"] == 2
            assert len(metrics["cluster"]["shards"]) == 3
        finally:
            engine.shutdown(timeout=10)

    def test_catalog_and_tree_views_span_shards(self):
        engine, cluster = self._engine()
        try:
            ids = populate(cluster, 6)
            catalog = engine.catalog_payload()
            assert catalog["count"] == 6
            assert sorted(v["video_id"] for v in catalog["videos"]) == sorted(ids)
            shots = engine.shots_payload(ids[0])
            assert shots["count"] > 0
            tree = engine.tree_payload(ids[0])
            assert tree["n_shots"] == shots["count"]
        finally:
            engine.shutdown(timeout=10)


def _get(base_url: str, path: str):
    try:
        with urllib.request.urlopen(base_url + path, timeout=30) as response:
            return response.status, json.loads(response.read() or b"{}")
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read() or b"{}")


class TestHTTPFaultContract:
    def test_killed_shard_yields_partial_200_never_500(self):
        cluster = ClusterCoordinator.ephemeral(3)
        populate(cluster, 9)
        engine = ServiceEngine(cluster, n_workers=3, watchdog_interval=0)
        server = create_server(engine)
        host, port = server.server_address[:2]
        base_url = f"http://{host}:{port}"
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            status, full = _get(base_url, "/query?var_ba=1.0&var_oa=1.0")
            assert status == 200 and full["partial"] is False

            cluster.shards[0].mark_down("killed mid-flight")
            # A fresh query point (the first answer is legitimately
            # cached — it was complete when computed).
            status, partial = _get(base_url, "/query?var_ba=2.0&var_oa=3.0")
            assert status == 200
            assert partial["partial"] is True
            assert partial["shards_failed"][0]["shard"] == "shard-0"

            # A per-video endpoint whose owner is down degrades to a
            # structured 503, not a 500.
            on_dead = next(
                v
                for v in cluster.video_ids()
                if cluster.router.shard_for(v) == 0
            )
            status, body = _get(base_url, f"/videos/{on_dead}/shots")
            assert status == 503
            assert body["reason"] == "shard_down"

            # Health keeps answering and reports the outage.
            status, health = _get(base_url, "/health")
            assert status == 200
            assert health["cluster"]["shards_up"] == 2
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
            engine.shutdown(timeout=10)
