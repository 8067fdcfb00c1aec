"""Coordinator behavior: routing, scatter-gather, degradation, service.

The fault-tolerance contract under test: killing a shard mid-flight
turns its contribution into a ``shards_failed`` entry — a *partial*
answer with HTTP 200 — never an exception, never a 500.
"""

from __future__ import annotations

import contextlib
import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.cluster import CLUSTER_MANIFEST, ClusterCoordinator
from repro.config import QueryConfig
from repro.errors import (
    CatalogError,
    ClusterError,
    ShardUnavailableError,
)
from repro.obs import TraceContext, iter_spans, tracing, unsettled_spans
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


@contextlib.contextmanager
def maybe_traced(traced: bool):
    """Run the block untraced, or under a trace whose spans must all
    settle: the shard spans open on the request's thread, so a failing
    sub-query must close them on the way out."""
    if not traced:
        yield
        return
    ctx = TraceContext(name="test")
    with tracing(ctx):
        yield
    assert unsettled_spans(ctx.finish()) == []


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
    """Each degradation behavior must hold traced and untraced (see
    :func:`maybe_traced`)."""

    @pytest.mark.parametrize("traced", [False, True])
    def test_healthy_cluster_answers_fully(self, traced):
        cluster = ClusterCoordinator.ephemeral(4)
        populate(cluster, 12)
        probe = cluster.shards[0].db.index.entries[0]
        with maybe_traced(traced):
            answer = cluster.query(probe.features.var_ba, probe.features.var_oa)
        assert answer.shards_queried == 4
        assert answer.shards_failed == []
        assert not answer.partial
        assert len(answer.matches) == len(answer.routes)

    @pytest.mark.parametrize("traced", [False, True])
    def test_down_shard_degrades_to_partial(self, traced):
        cluster = ClusterCoordinator.ephemeral(3)
        populate(cluster, 9)
        cluster.shards[1].mark_down("chaos test")
        probe = cluster.shards[0].db.index.entries[0]
        with maybe_traced(traced):
            answer = cluster.query(probe.features.var_ba, probe.features.var_oa)
        assert answer.partial
        assert answer.shards_queried == 2
        [failure] = answer.shards_failed
        assert failure["shard"] == "shard-1"
        assert failure["reason"] == "down"
        # No match from the dead shard leaked in.
        dead_ids = set(cluster.shards[1].db.catalog.ids())
        assert all(m.video_id not in dead_ids for m in answer.matches)

    @pytest.mark.parametrize("traced", [False, True])
    def test_shard_error_degrades_to_partial(self, traced):
        cluster = ClusterCoordinator.ephemeral(2)
        populate(cluster, 6)

        def boom(*args, **kwargs):
            raise RuntimeError("shard exploded")

        cluster.shards[0].db.query_batch = boom
        with maybe_traced(traced):
            answer = cluster.query(1.0, 1.0)
        assert answer.partial
        [failure] = answer.shards_failed
        assert failure["reason"] == "error"
        assert "shard exploded" in failure["error"]
        assert cluster.shards[0].errors == 1

    @pytest.mark.parametrize("traced", [False, True])
    def test_exhausted_deadline_reports_every_shard(self, traced):
        cluster = ClusterCoordinator.ephemeral(2)
        populate(cluster, 4)
        spent = Deadline.after_ms(0.0001)
        with maybe_traced(traced):
            answer = cluster.query(1.0, 1.0, deadline=spent)
        # Nothing crashed: whatever missed the budget is accounted for.
        assert answer.shards_queried + len(answer.shards_failed) == 2

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


class TestInlineScatter:
    """The scatter runs on the request's thread in two passes: every
    shard whose read lock is free first, then each deferred shard with
    the remaining budget — so a shard held by a writer holds up none of
    the others."""

    def test_a_held_shard_does_not_hold_up_the_others(self):
        from repro.cluster.replication import ShardSupervisor

        cluster = ClusterCoordinator.ephemeral(3)
        populate(cluster, 9)
        supervisor = ShardSupervisor(cluster, threshold=1)
        with cluster.shards[0].lock.write_locked():
            answer = cluster.query(1.0, 1.0, deadline=Deadline(0.1))
        assert answer.shards_queried == 2
        assert [(f["shard"], f["reason"]) for f in answer.shards_failed] == [
            ("shard-0", "busy")
        ]
        assert answer.partial
        assert supervisor.observe(answer) == []
        assert not any(shard.down for shard in cluster.shards)

    def test_replicas_cover_a_held_shard(self):
        cluster = ClusterCoordinator.ephemeral(2, replication=2)
        populate(cluster, 6)
        expect = cluster.query(4.0, 2.0, limit=5)
        with cluster.shards[0].lock.write_locked():
            answer = cluster.query(4.0, 2.0, limit=5, deadline=Deadline(0.1))
        assert not answer.partial
        assert answer.shards_recovered == ["shard-0"]
        assert [(m.video_id, m.shot_number) for m in answer.matches] == [
            (m.video_id, m.shot_number) for m in expect.matches
        ]

    def test_free_shards_answer_while_a_held_one_is_awaited(self):
        cluster = ClusterCoordinator.ephemeral(3)
        populate(cluster, 9)
        expect = cluster.query(4.0, 2.0)
        held = cluster.shards[0]
        held.lock.acquire_write()
        timer = threading.Timer(0.2, held.lock.release_write)
        timer.start()
        ctx = TraceContext(name="test")
        try:
            with tracing(ctx):
                answer = cluster.query(4.0, 2.0)
        finally:
            timer.join()
        assert not answer.partial and answer.shards_queried == 3
        assert [(m.video_id, m.shot_number) for m in answer.matches] == [
            (m.video_id, m.shot_number) for m in expect.matches
        ]

        def end_ms(node):
            return node["start_ms"] + node["duration_ms"]

        query_ends: dict[str, float] = {}
        held_wait_ends = []
        for _, node in iter_spans(ctx.finish()):
            if node["name"] != "shard.query":
                continue
            shard = node["annotations"]["shard"]
            if shard != held.name:
                query_ends[shard] = end_ms(node)
                continue
            held_wait_ends += [
                end_ms(child)
                for child in node.get("children", ())
                if child["name"] == "shard.lock_wait"
                and child["annotations"]["acquired"]
            ]
        [held_wait_end] = held_wait_ends
        assert sorted(query_ends) == ["shard-1", "shard-2"]
        assert max(query_ends.values()) < held_wait_end


class TestMovesDuringScatter:
    """A scatter round reads the shards one after another, so a pass
    whose copies and drop all fell between its reads of a copy's
    destination and of the dropped copy would hide the video.  Every
    drop waits for the rounds in flight instead (a grace period)."""

    @staticmethod
    def _straddle(cluster, video_id, maintenance):
        """Pause a wide query round after its reads of every shard but
        the last, which holds the video's only copy; run the whole
        ``maintenance`` on another thread meanwhile.  The drop must wait
        for the round, and the round must see every shot."""
        last = cluster.shards[-1]
        n_shots = len(last.db.index.entries_for(video_id))
        done = threading.Event()
        worker = threading.Thread(target=lambda: (maintenance(), done.set()))
        check_up = last.check_up
        held_back: list[bool] = []

        def maintain_before_reading_the_last_shard(what):
            if not worker.is_alive() and not done.is_set():
                worker.start()
                held_back.append(not done.wait(0.3))
            check_up(what)

        last.check_up = maintain_before_reading_the_last_shard
        wide = QueryConfig(alpha=1e6, beta=1e6)
        answer = cluster.query(1.0, 1.0, config=wide)
        worker.join(10.0)
        assert held_back == [True]  # the drop waited for the round
        assert done.is_set()
        assert not answer.partial
        assert sum(m.video_id == video_id for m in answer.matches) == n_shots

    def test_a_round_sees_a_video_moved_between_its_reads(self):
        from repro.cluster.rebalance import Rebalancer, RebalanceMove

        cluster = ClusterCoordinator.ephemeral(2)
        ids = populate(cluster, 8)
        video_id = next(v for v in ids if cluster.locate(v).shard_id == 1)
        move = RebalanceMove(video_id, source=1, dest=0)
        self._straddle(
            cluster, video_id, lambda: Rebalancer(cluster).execute([move])
        )
        assert cluster.locate(video_id) is cluster.shards[0]

    def test_a_round_sees_a_copy_copy_drop_plan_run_between_its_reads(self):
        """R=2: the only copy sits on shard 2, and the plan copies it to
        shards 0 and 1, then drops it."""
        from repro.cluster.rebalance import Rebalancer

        cluster = ClusterCoordinator.ephemeral(3, replication=2)
        video_id = next(
            v
            for v in (f"clip-{k:03d}" for k in range(200))
            if set(cluster.router.shards_for(v, 2)) == {0, 1}
        )
        with cluster.shards[2].lock.write_locked():
            cluster.shards[2].db.adopt(make_record(video_id, 0))
        cluster.note_copy(video_id, 2)
        rebalancer = Rebalancer(cluster)
        assert [m.kind for m in rebalancer.plan()] == ["copy", "copy", "drop"]
        self._straddle(cluster, video_id, rebalancer.execute)
        assert cluster.holders_of(video_id) == (0, 1)

    def test_a_round_sees_a_stray_settled_by_repair_between_its_reads(
        self, tmp_path, monkeypatch
    ):
        """R=1: the only copy is a stray on shard 1, the video's home is
        shard 0; ``repro cluster repair`` runs twice (the second pass
        must find nothing to do)."""
        from repro import cli

        root = tmp_path / "c"
        cluster = ClusterCoordinator.create(root, 2)
        video_id = next(
            v
            for v in (f"clip-{k:03d}" for k in range(200))
            if cluster.router.shard_for(v) == 0
        )
        with cluster.shards[1].lock.write_locked():
            cluster.shards[1].db.adopt(make_record(video_id, 0))
        cluster.note_copy(video_id, 1)
        # The command opens the cluster itself: hand it this one, so
        # the query round runs against the same shards.
        monkeypatch.setattr(ClusterCoordinator, "open", lambda *a, **k: cluster)
        repair = ["cluster", "repair", "--root", str(root), "--json"]
        self._straddle(
            cluster, video_id, lambda: [cli.main(repair) for _ in range(2)]
        )
        assert cluster.holders_of(video_id) == (0,)
        cluster.close()

    def test_a_move_waits_only_for_the_rounds_in_flight(self):
        cluster = ClusterCoordinator.ephemeral(2)
        cluster.note_move_visible()  # no round in flight: returns at once
        done = threading.Event()
        with cluster._round():
            waiter = threading.Thread(
                target=lambda: (cluster.note_move_visible(), done.set())
            )
            waiter.start()
            assert not done.wait(0.1)  # the round in flight holds it
        assert done.wait(10.0)
        waiter.join(10.0)


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
