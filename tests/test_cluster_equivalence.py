"""Property: a K-shard cluster is decision-identical to one database.

For seeded synthetic corpora and K in {1, 2, 4}, every impression
query must return exactly the same ranked matches (ids, order, and
browsing routes) from the sharded cluster as from a single
:class:`VideoDatabase` holding the same corpus — including while a
rebalance is relocating videos and after it finishes.  This is the
correctness bar that makes sharding an *implementation detail* rather
than a semantics change.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.cluster import ClusterCoordinator, ConsistentHashRouter, Rebalancer
from repro.testing.synth import add_synth_video
from repro.vdbms.database import VideoDatabase
from repro.workloads.taxonomy import VideoCategory

pytestmark = pytest.mark.cluster


def build_corpus(seed: int, n_videos: int):
    """Seeded records shared by the single db and every cluster size."""
    records = []
    rng = np.random.default_rng(seed)
    for k in range(n_videos):
        video_id = f"corpus-{seed}-{k:03d}"
        scratch = VideoDatabase()
        add_synth_video(scratch, video_id, rng)
        records.append(scratch.export_video(video_id))
    return records


def load(records, cluster_sizes, replication=1):
    single = VideoDatabase()
    clusters = {
        k: ClusterCoordinator.ephemeral(k, replication=replication)
        for k in cluster_sizes
    }
    for record in records:
        single.adopt(record)
        for cluster in clusters.values():
            cluster.adopt(record)
    return single, clusters


def decisions(answer):
    """The client-visible decision: ranked shot identities + routes."""
    return [
        (m.video_id, m.shot_number, r.suggestion)
        for m, r in zip(answer.matches, answer.routes)
    ]


def probe_points(single, stride=5):
    return [
        (e.features.var_ba, e.features.var_oa)
        for e in single.index.entries[::stride]
    ]


class TestDecisionIdentity:
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_every_probe_matches_single_database(self, k):
        records = build_corpus(seed=10, n_videos=24)
        single, clusters = load(records, [k])
        cluster = clusters[k]
        for var_ba, var_oa in probe_points(single):
            for limit in (None, 1, 5):
                expected = single.query(var_ba, var_oa, limit=limit)
                got = cluster.query(var_ba, var_oa, limit=limit)
                assert decisions(got) == decisions(expected)
                assert not got.partial

    def test_category_scoped_queries_match(self):
        records = build_corpus(seed=11, n_videos=20)
        single, clusters = load(records, [2, 4])
        category = VideoCategory(genres=("adventure",), forms=("feature",))
        for var_ba, var_oa in probe_points(single, stride=8):
            expected = single.query(var_ba, var_oa, category=category, limit=10)
            for cluster in clusters.values():
                got = cluster.query(var_ba, var_oa, category=category, limit=10)
                assert decisions(got) == decisions(expected)

    def test_query_by_shot_matches(self):
        records = build_corpus(seed=12, n_videos=16)
        single, clusters = load(records, [1, 2, 4])
        probes = single.index.entries[::6]
        for probe in probes:
            expected = single.query_by_shot(
                probe.video_id, probe.shot_number, limit=8
            )
            for cluster in clusters.values():
                got = cluster.query_by_shot(
                    probe.video_id, probe.shot_number, limit=8
                )
                assert decisions(got) == decisions(expected)

    def test_limit_pushdown_agrees_with_full_ranking(self):
        """Per-shard top-k + merge == global ranking truncated to k."""
        records = build_corpus(seed=13, n_videos=24)
        single, clusters = load(records, [4])
        cluster = clusters[4]
        for var_ba, var_oa in probe_points(single, stride=4):
            full = cluster.query(var_ba, var_oa)
            for limit in (1, 2, 7):
                capped = cluster.query(var_ba, var_oa, limit=limit)
                assert decisions(capped) == decisions(full)[:limit]


class TestEquivalenceAcrossRebalance:
    def test_identical_after_resharding(self):
        records = build_corpus(seed=20, n_videos=18)
        single, clusters = load(records, [2])
        cluster = clusters[2]
        points = probe_points(single)
        before = [decisions(cluster.query(b, o, limit=10)) for b, o in points]
        Rebalancer(cluster).reshard(4)
        assert cluster.n_shards == 4
        for (var_ba, var_oa), expected_before in zip(points, before):
            expected = single.query(var_ba, var_oa, limit=10)
            got = cluster.query(var_ba, var_oa, limit=10)
            assert decisions(got) == decisions(expected) == expected_before

    @pytest.mark.parametrize("replication", [1, 2])
    def test_identical_during_reshards(self, replication):
        """Queries racing the mover never see a wrong or torn answer;
        at R=2 the plans copy and drop instead of moving."""
        records = build_corpus(seed=21, n_videos=20)
        single, clusters = load(records, [4], replication=replication)
        cluster = clusters[4]
        points = probe_points(single, stride=3)
        expected = {
            point: decisions(single.query(*point, limit=10)) for point in points
        }

        failures: list[str] = []
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                for point in points:
                    got = cluster.query(*point, limit=10)
                    if got.partial:
                        failures.append(f"partial answer at {point}")
                    if decisions(got) != expected[point]:
                        failures.append(f"divergence at {point}")

        thread = threading.Thread(target=hammer)
        thread.start()
        try:
            rebalancer = Rebalancer(cluster)
            # Shuffle the whole corpus twice while queries hammer away.
            rebalancer.reshard(2)
            rebalancer.reshard(4)
        finally:
            stop.set()
            thread.join(timeout=60)
        assert not failures, failures[:5]
        assert not Rebalancer(cluster).plan()

    def test_dual_presence_window_is_deduplicated(self):
        """Mid-move state (video on two shards) must not double-count."""
        records = build_corpus(seed=22, n_videos=10)
        single, clusters = load(records, [2])
        cluster = clusters[2]
        victim = cluster.video_ids()[0]
        source = cluster.locate(victim)
        dest = cluster.shards[1 - source.shard_id]
        # Reproduce exactly the moment after the rebalancer's durable
        # copy, before the source delete.
        dest.db.adopt(source.db.export_video(victim))
        for var_ba, var_oa in probe_points(single):
            expected = single.query(var_ba, var_oa)
            got = cluster.query(var_ba, var_oa)
            assert decisions(got) == decisions(expected)
            keys = [(m.video_id, m.shot_number) for m in got.matches]
            assert len(keys) == len(set(keys))
