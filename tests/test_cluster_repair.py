"""The placement reconciler and the integrity scrubber, driven by fault
injection.

The acceptance round-trip under test: flip bytes in a committed shard
file (manifest untouched — exactly what bit-rot looks like), and the
scrubber detects the digest mismatch, quarantines the evidence, and
hands the video to the reconciler's copy path (``copy_video``), which
rewrites it from a healthy replica, leaving every query answer
unchanged.  The placement reconciler (``Rebalancer``, ``repro cluster
repair``) covers the placement half: missing copies, divergent copies,
strays, and the honestly-unrepairable.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro import cli
from repro.cluster import ClusterCoordinator, Rebalancer
from repro.cluster.repair import IntegrityScrubber
from repro.errors import StorageError
from repro.service.engine import ServiceEngine
from repro.testing import FaultyFS, ShardOutage, inject_bit_rot
from repro.testing.synth import add_synth_video
from repro.vdbms.database import VideoDatabase
from repro.vdbms.manifest import RECORD_PREFIX
from repro.vdbms.storage import DatabaseStorage

pytestmark = [pytest.mark.scrub, pytest.mark.faults]


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


def canonical(answer) -> bytes:
    """A byte-exact serialization of everything a client decides on."""
    doc = {
        "matches": [
            [m.video_id, m.shot_number, m.features.var_ba, m.features.var_oa]
            for m in answer.matches
        ],
        "routes": answer.suggestions,
    }
    return json.dumps(doc, sort_keys=True).encode("utf-8")


def shard_dir(root, shard_id: int):
    return root / f"shard-{shard_id:03d}"


class TestAntiEntropy:
    """The placement reconciler (:class:`Rebalancer`): missing,
    divergent and stray copies."""

    def test_fills_missing_copies_after_factor_change(self):
        cluster = ClusterCoordinator.ephemeral(3, replication=1)
        ids = populate(cluster, 6)
        cluster.set_replication(2)
        report = Rebalancer(cluster).execute()
        assert report.planned == len(ids)
        assert report.copies_added == len(ids)
        assert report.converged
        for video_id in ids:
            assert set(cluster.holders_of(video_id)) == set(
                cluster.router.shards_for(video_id, 2)
            )
        # A second pass finds nothing left to do.
        second = Rebalancer(cluster).execute()
        assert second.planned == 0 and second.converged

    def test_repairs_divergent_replica_from_primary(self):
        cluster = ClusterCoordinator.ephemeral(3, replication=2)
        [video_id] = populate(cluster, 1)
        primary, replica = cluster.router.shards_for(video_id, 2)
        shard = cluster.shards[replica]
        # Corrupt the replica logically: same id, different derived
        # state (bypassing the coordinator, as a buggy writer would).
        with shard.lock.write_locked():
            shard.db.remove(video_id)
            shard.db.adopt(make_record(video_id, seed=999))
        primary_db = cluster.shards[primary].db
        assert shard.db.record_digest(video_id) != primary_db.record_digest(video_id)
        report = Rebalancer(cluster).execute()
        assert report.divergent_repaired == 1
        assert report.converged
        primary_entries = primary_db.index.entries_for(video_id)
        replica_entries = shard.db.index.entries_for(video_id)
        assert [e.features.var_ba for e in replica_entries] == [
            e.features.var_ba for e in primary_entries
        ]
        assert shard.db.record_digest(video_id) == primary_db.record_digest(video_id)

    def test_durable_replicas_are_byte_identical(self, tmp_path):
        """Two holders of a video hold identical record files, so the
        manifest digest is the video's fingerprint; a divergent durable
        replica is found by it and rewritten to match."""
        cluster = ClusterCoordinator.create(tmp_path / "c", 3, replication=2)
        ids = populate(cluster, 4)
        for video_id in ids:
            first, second = (cluster.shards[s] for s in cluster.holders_of(video_id))
            paths = [s.db.storage.record_path(video_id) for s in (first, second)]
            assert paths[0].read_bytes() == paths[1].read_bytes()
            assert first.db.record_digest(video_id) == second.db.record_digest(video_id)
        video_id = ids[0]
        primary, replica = cluster.router.shards_for(video_id, 2)
        shard = cluster.shards[replica]
        with shard.lock.write_locked():
            shard.db.remove(video_id)
            shard.db.adopt(make_record(video_id, seed=999))
        report = Rebalancer(cluster).execute()
        assert report.divergent_repaired == 1
        assert (
            shard.db.storage.record_path(video_id).read_bytes()
            == cluster.shards[primary].db.storage.record_path(video_id).read_bytes()
        )
        cluster.close()

    def test_a_pass_reads_each_shard_manifest_once(self, tmp_path, monkeypatch):
        """Digests come from the manifest each shard keeps, so a pass
        over a freshly opened cluster stays linear in its videos."""
        cluster = ClusterCoordinator.create(tmp_path / "c", 3, replication=2)
        populate(cluster, 6)
        cluster.close()
        reopened = ClusterCoordinator.open(tmp_path / "c")
        reads = []
        read_chain = DatabaseStorage._read_chain

        def counted(storage):
            reads.append(storage.root)
            return read_chain(storage)

        monkeypatch.setattr(DatabaseStorage, "_read_chain", counted)
        assert Rebalancer(reopened).execute().converged
        assert len(reads) <= reopened.n_shards
        reopened.close()

    def test_removes_stray_copies(self):
        cluster = ClusterCoordinator.ephemeral(3, replication=1)
        [video_id] = populate(cluster, 1)
        home = cluster.router.shard_for(video_id)
        stray_id = (home + 1) % 3
        stray = cluster.shards[stray_id]
        with stray.lock.write_locked():
            stray.db.adopt(make_record(video_id, 0))
        cluster.note_copy(video_id, stray_id)
        report = Rebalancer(cluster).execute()
        assert report.strays_removed == 1
        assert cluster.holders_of(video_id) == (home,)
        assert video_id not in stray.db.catalog

    def test_reports_unrepairable_when_no_healthy_source(self):
        cluster = ClusterCoordinator.ephemeral(2, replication=2)
        [video_id] = populate(cluster, 1)
        primary, replica = cluster.router.shards_for(video_id, 2)
        shard = cluster.shards[replica]
        with shard.lock.write_locked():
            shard.db.remove(video_id)
        cluster.note_drop(video_id, replica)
        cluster.shards[primary].mark_down("dead disk")
        report = Rebalancer(cluster).execute()
        assert report.unrepairable == [video_id]
        assert not report.converged
        assert "converged" in report.to_dict()


class TestScrubberRoundTrip:
    """Bit-rot in, identical answers out — the PR's acceptance test."""

    def _rotted_cluster(self, tmp_path, n_shards=2, replication=2, n=4):
        root = tmp_path / "c"
        cluster = ClusterCoordinator.create(root, n_shards, replication=replication)
        ids = populate(cluster, n)
        return root, cluster, ids

    def test_detects_and_repairs_from_replica(self, tmp_path):
        root, cluster, ids = self._rotted_cluster(tmp_path)
        probe = cluster.shards[0].db.index.entries[0]
        point = (probe.features.var_ba, probe.features.var_oa)
        baseline = canonical(cluster.query(*point))

        victim = ids[0]
        sick_id = cluster.holders_of(victim)[0]
        damaged = inject_bit_rot(
            shard_dir(root, sick_id), logical=f"{RECORD_PREFIX}{victim}"
        )
        scrubber = IntegrityScrubber(cluster, interval_s=0.0)
        delta = scrubber.run_once()
        assert delta["corruption_found"] == 1
        assert delta["videos_repaired"] == 1
        assert delta["videos_lost"] == 0
        assert not damaged.exists()  # quarantined, not left in place
        assert cluster.shards[sick_id].repairs >= 1
        # Decision identity survives the whole rot->repair cycle.
        assert canonical(cluster.query(*point)) == baseline
        assert set(cluster.holders_of(victim)) == set(
            cluster.router.shards_for(victim, 2)
        )
        # The repaired copy verifies end to end: a second pass is clean
        # and the shard's own fsck agrees.
        assert scrubber.run_once()["corruption_found"] == 0
        assert DatabaseStorage(shard_dir(root, sick_id)).fsck().clean
        cluster.close()

    def test_rewrites_rotted_record_from_memory_without_a_replica(self, tmp_path):
        """R=1: no other holder, so the rotted record is rewritten from
        the shard's own in-memory copy (verified when it was loaded)."""
        root = tmp_path / "c"
        cluster = ClusterCoordinator.create(root, 1, replication=1)
        ids = populate(cluster, 3)
        probe = cluster.shards[0].db.index.entries[0]
        point = (probe.features.var_ba, probe.features.var_oa)
        baseline = canonical(cluster.query(*point))
        damaged = inject_bit_rot(shard_dir(root, 0), logical=f"{RECORD_PREFIX}{ids[0]}")
        scrubber = IntegrityScrubber(cluster, interval_s=0.0)
        delta = scrubber.run_once()
        assert delta["corruption_found"] == 1
        assert delta["files_republished"] == 1
        assert delta["videos_lost"] == 0
        assert not damaged.exists()  # quarantined, not left in place
        assert sorted(cluster.video_ids()) == ids
        assert canonical(cluster.query(*point)) == baseline
        assert scrubber.run_once()["corruption_found"] == 0
        assert DatabaseStorage(shard_dir(root, 0)).fsck().clean
        cluster.close()
        reopened = ClusterCoordinator.open(root)
        assert sorted(reopened.video_ids()) == ids
        assert canonical(reopened.query(*point)) == baseline
        reopened.close()

    @pytest.mark.parametrize("replication", [1, 2])
    def test_rewrites_the_rot_when_the_quarantine_fails(self, tmp_path, replication):
        """A fresh copy has exactly the bytes the manifest recorded for
        the rotted file (replicas are byte-identical; with R=1 the
        shard's own copy is rewritten), so when the quarantine rename
        fails and the rotted file stays in place, the repair must still
        rewrite it rather than carry it over."""
        root = tmp_path / "c"
        cluster = ClusterCoordinator.create(root, 2, replication=replication)
        ids = populate(cluster, 4)
        probe = cluster.shards[0].db.index.entries[0]
        point = (probe.features.var_ba, probe.features.var_oa)
        baseline = canonical(cluster.query(*point))
        victim = ids[0]
        sick = cluster.shard(cluster.holders_of(victim)[0])
        inject_bit_rot(
            shard_dir(root, sick.shard_id), logical=f"{RECORD_PREFIX}{victim}"
        )
        faulty = FaultyFS(mode="error", ops=("replace",), fail_times=1)
        sick.db.storage.fs = faulty
        scrubber = IntegrityScrubber(cluster, interval_s=0.0)
        delta = scrubber.run_once()
        assert faulty.failures == 1  # the quarantine rename failed
        assert delta["corruption_found"] == 1
        healed = "videos_repaired" if replication == 2 else "files_republished"
        assert delta[healed] == 1
        assert delta["videos_lost"] == 0
        assert scrubber.run_once()["corruption_found"] == 0
        assert DatabaseStorage(shard_dir(root, sick.shard_id)).fsck().clean
        assert canonical(cluster.query(*point)) == baseline
        cluster.close()
        reopened = ClusterCoordinator.open(root)
        assert sorted(reopened.video_ids()) == ids
        assert canonical(reopened.query(*point)) == baseline
        reopened.close()

    def test_counts_lost_videos_without_a_replica(self, tmp_path):
        """A video is lost only with no healthy copy on disk or in
        memory: here a recovering open already dropped the rotted copy
        from memory, and R=1 leaves no replica."""
        root = tmp_path / "c"
        cluster = ClusterCoordinator.create(root, 1, replication=1)
        ids = populate(cluster, 2)
        cluster.close()
        inject_bit_rot(shard_dir(root, 0), logical=f"{RECORD_PREFIX}{ids[0]}")
        cluster = ClusterCoordinator.open(root, recover=True)
        scrubber = IntegrityScrubber(cluster, interval_s=0.0)
        delta = scrubber.run_once()
        assert delta["corruption_found"] == 1
        assert delta["videos_repaired"] == 0
        assert delta["files_republished"] == 0
        assert delta["videos_lost"] == 1
        # The loss is honest: the rotted video is gone, the rest serve.
        assert ids[0] not in cluster
        answer = cluster.query(1.0, 1.0)
        assert all(m.video_id != ids[0] for m in answer.matches)
        cluster.close()

    def test_background_thread_keeps_scrubbing(self):
        cluster = ClusterCoordinator.ephemeral(2, replication=2)
        scrubber = IntegrityScrubber(cluster, interval_s=0.005)
        scrubber.start()
        scrubber.start()  # idempotent
        assert scrubber.running
        deadline = time.monotonic() + 5.0
        while scrubber.stats_snapshot()["passes"] < 2:
            assert time.monotonic() < deadline, "scrubber made no progress"
            time.sleep(0.005)
        scrubber.stop()
        assert not scrubber.running
        scrubber.stop()  # idempotent


class TestFaultInjectors:
    def test_shard_outage_kills_and_revives(self):
        cluster = ClusterCoordinator.ephemeral(2, replication=2)
        populate(cluster, 2)
        with ShardOutage(cluster, 0) as outage:
            assert outage.shard.down
            assert not cluster.query(1.0, 1.0).partial
        assert not cluster.shards[0].down

    def test_shard_outage_respects_existing_downtime(self):
        cluster = ClusterCoordinator.ephemeral(2)
        cluster.shards[1].mark_down("already benched")
        with ShardOutage(cluster, 1):
            assert cluster.shards[1].down
        # It was down before the context: not this injector's to revive.
        assert cluster.shards[1].down
        assert cluster.shards[1].down_reason == "already benched"

    def test_bit_rot_validations(self, tmp_path):
        with pytest.raises(ValueError):
            inject_bit_rot(tmp_path / "nothing-here")
        root = tmp_path / "db"
        db = VideoDatabase()
        add_synth_video(db, "vid-0", np.random.default_rng(0))
        db.save(root)
        with pytest.raises(ValueError):
            inject_bit_rot(root, logical="tree:no-such-video")
        damaged = inject_bit_rot(root, offset=0)
        storage = DatabaseStorage(root)
        statuses = {
            logical: storage.check_tracked(logical).status
            for logical in storage.tracked_records()
        }
        assert "checksum-mismatch" in statuses.values()
        assert damaged.exists()  # injection alone never repairs


class TestEngineScrubIntegration:
    def test_engine_runs_and_stops_the_scrubber(self):
        cluster = ClusterCoordinator.ephemeral(2, replication=2)
        engine = ServiceEngine(
            cluster, n_workers=1, watchdog_interval=0, scrub_interval_s=0.01
        )
        try:
            assert engine.scrubber is not None and engine.scrubber.running
            assert engine.health_payload()["cluster"]["scrubber_running"]
            metrics = engine.metrics_payload()
            assert "passes" in metrics["cluster"]["scrubber"]
            assert not any(
                key.startswith("scrub_")
                for key in (*metrics["counters"], *metrics["gauges"])
            )
        finally:
            engine.shutdown(timeout=10)
        assert not engine.scrubber.running

    def test_scrub_interval_requires_a_cluster(self):
        with pytest.raises(ValueError):
            ServiceEngine(VideoDatabase(), scrub_interval_s=0.01)


class TestRepairCLI:
    def test_cluster_repair_raises_the_factor(self, tmp_path, capsys):
        root = tmp_path / "c"
        cluster = ClusterCoordinator.create(root, 2, replication=1)
        ids = populate(cluster, 4)
        cluster.close()
        rc = cli.main(
            ["cluster", "repair", "--root", str(root), "--replicas", "2", "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["copies_added"] == len(ids)
        assert payload["converged"] is True
        reopened = ClusterCoordinator.open(root)
        assert reopened.replication == 2
        for video_id in ids:
            assert len(reopened.holders_of(video_id)) == 2
        reopened.close()

    def test_cluster_scrub_heals_injected_rot(self, tmp_path, capsys):
        root = tmp_path / "c"
        cluster = ClusterCoordinator.create(root, 2, replication=2)
        ids = populate(cluster, 3)
        sick_id = cluster.holders_of(ids[0])[0]
        cluster.close()
        inject_bit_rot(
            shard_dir(root, sick_id), logical=f"{RECORD_PREFIX}{ids[0]}"
        )
        rc = cli.main(["cluster", "scrub", "--root", str(root), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0  # healed from the replica -> clean
        assert payload["corruption_found"] == 1
        assert payload["videos_repaired"] == 1
        assert payload["clean"] is True

    def test_a_stray_only_video_converges_in_one_pass(self, tmp_path, capsys):
        """R=1, the only copy on a shard outside the video's expected
        set: one pass copies it home and drops the stray."""
        root = tmp_path / "c"
        cluster = ClusterCoordinator.create(root, 2, replication=1)
        ids = populate(cluster, 4)
        victim = ids[0]
        home = cluster.router.shard_for(victim)
        source, stray = cluster.shards[home], cluster.shards[1 - home]
        stray.db.adopt(source.db.export_video(victim))
        source.db.remove(victim)
        cluster.close()
        rc = cli.main(["cluster", "repair", "--root", str(root), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0 and payload["converged"] is True
        assert payload["copies_added"] == payload["strays_removed"] == 1
        reopened = ClusterCoordinator.open(root)
        assert reopened.holders_of(victim) == (home,)
        assert Rebalancer(reopened).plan() == []
        reopened.close()

    def test_fsck_points_at_cluster_repair(self, tmp_path, capsys):
        root = tmp_path / "c"
        cluster = ClusterCoordinator.create(root, 2, replication=2)
        ids = populate(cluster, 3)
        sick_id = cluster.holders_of(ids[0])[0]
        cluster.close()
        inject_bit_rot(
            shard_dir(root, sick_id), logical=f"{RECORD_PREFIX}{ids[0]}"
        )
        rc = cli.main(["fsck", str(root), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert payload["repairable_from_replica"] == [ids[0]]
        assert "repro cluster repair" in payload["hint"]

    def test_cluster_repair_heals_the_rot_fsck_reported(self, tmp_path, capsys):
        """The full hint round-trip: fsck flags rot, repair heals it.

        Regression: the recover-mode open drops the rotted copy and
        repair re-adopts identical content from the replica, so the
        tree's digest matches the stale manifest record — the publish
        carry-over fast path must not skip the rewrite and leave the
        rotted bytes on disk.
        """
        root = tmp_path / "c"
        cluster = ClusterCoordinator.create(root, 2, replication=2)
        ids = populate(cluster, 3)
        sick_id = cluster.holders_of(ids[0])[0]
        cluster.close()
        rotted = inject_bit_rot(
            shard_dir(root, sick_id), logical=f"{RECORD_PREFIX}{ids[0]}"
        )
        rotted_bytes = rotted.read_bytes()
        assert cli.main(["fsck", str(root), "--json"]) == 1
        capsys.readouterr()
        assert cli.main(["cluster", "repair", "--root", str(root)]) == 0
        capsys.readouterr()
        assert cli.main(["fsck", str(root), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert all(shard["clean"] for shard in report["shards"])
        # The rotted file was actually replaced, not carried over.
        assert not rotted.exists() or rotted.read_bytes() != rotted_bytes


class TestLostVideoCLI:
    """A 2-shard R=1 cluster whose four videos all land on shard 0."""

    @staticmethod
    def _cluster(root):
        cluster = ClusterCoordinator.create(root, 2, replication=1)
        for k in range(4):
            cluster.adopt(make_record(f"v{k}", k))
        assert [len(shard.db.catalog) for shard in cluster.shards] == [4, 0]
        cluster.close()

    def test_an_empty_shard_is_clean_to_fsck(self, tmp_path, capsys):
        root = tmp_path / "c"
        self._cluster(root)
        assert cli.main(["fsck", str(root)]) == 0
        assert "cluster: 2 shards, replication x1, clean" in capsys.readouterr().out
        # A single database with nothing in it is still an error.
        assert cli.main(["fsck", str(shard_dir(root, 1))]) == 1

    def test_status_names_unreadable_records(self, tmp_path, capsys):
        root = tmp_path / "c"
        self._cluster(root)
        inject_bit_rot(shard_dir(root, 0), logical=RECORD_PREFIX + "v1")
        assert cli.main(["cluster", "status", "--root", str(root), "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["videos"] == 3
        assert status["unreadable"] == [{"video_id": "v1", "shard": "shard-0"}]
        assert cli.main(["cluster", "status", "--root", str(root)]) == 0
        assert "unreadable: 'v1' on shard-0" in capsys.readouterr().out

    def test_a_lost_video_stays_reported_until_fsck_repair(self, tmp_path, capsys):
        root = tmp_path / "c"
        self._cluster(root)
        inject_bit_rot(shard_dir(root, 0), logical=RECORD_PREFIX + "v1")

        def run(*argv):
            code = cli.main(list(argv))
            out = capsys.readouterr().out
            return code, json.loads(out) if "--json" in argv else out

        code, scrub = run("cluster", "scrub", "--root", str(root), "--json")
        assert code == 1 and scrub["videos_lost"] == 1
        assert run("fsck", str(root))[0] == 1
        # The scrub published nothing: a second one finds the loss again.
        code, scrub = run("cluster", "scrub", "--root", str(root), "--json")
        assert code == 1 and scrub["videos_lost"] == 1
        code, status = run("cluster", "status", "--root", str(root), "--json")
        assert status["unreadable"] == [{"video_id": "v1", "shard": "shard-0"}]
        with pytest.raises(StorageError, match=repr(RECORD_PREFIX + "v1")):
            ClusterCoordinator.open(root)
        code, repaired = run("fsck", str(root), "--repair", "--json")
        assert code == 0
        [shard0] = [r for r in repaired["shards"] if r["shard"] == "shard-0"]
        assert shard0["report"]["dropped_videos"] == ["v1"]
        assert run("fsck", str(root))[0] == 0
        reopened = ClusterCoordinator.open(root)
        assert reopened.video_ids() == ["v0", "v2", "v3"]
        reopened.close()
