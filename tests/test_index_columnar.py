"""Property: the columnar engine is decision-identical to the legacy
searcher, the linear scan.

For 50 seeded corpora — tie-heavy by construction (variances drawn
from a small discrete grid, so many shots share exact ``D^v`` and
``sqrt(Var^BA)`` coordinates and the ``rank_key`` tie-break decides) —
every query must return exactly the same ranked entries from the
columnar engine (:class:`ColumnarVarianceIndex`) as from the linear
scan (:func:`repro.index.query.search`, the ground truth), for every
limit and exclusion variant, and a batch of B queries must equal B
sequential singles.  The same bar holds through the cluster:
batched scatter-gather answers match the single database during and
after a rebalance.
"""

from __future__ import annotations

import gc
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro.config import QueryConfig
from repro.errors import IndexError_
from repro.features.vector import FeatureVector
from repro.index import ColumnarVarianceIndex, IndexEntry, VarianceQuery, columnar
from repro.index.query import search as scan_search
from repro.cluster import ClusterCoordinator, Rebalancer
from repro.testing.synth import add_synth_video
from repro.vdbms.database import VideoDatabase

#: A small discrete variance grid — adjacent queries land exactly on
#: band edges, and repeated values force rank ties that only the
#: rank_key tie-break (d_v, sqrt_ba, video_id, shot) resolves.
_GRID = [0.0, 1.0, 4.0, 9.0, 16.0, 25.0, 100.0, 144.0, 225.0]

#: Video ids whose lexicographic order differs from insertion order
#: (the columnar engine tie-breaks via an interned rank table, which
#: must reproduce *string* order, not intern order).
_VIDEOS = ["v-10", "v-2", "zz", "a b", "a/b", "a_b", "Movie", "movie"]


def _corpus(seed: int, n: int = 160) -> list[IndexEntry]:
    rng = np.random.default_rng(seed)
    entries = []
    for k in range(n):
        var_ba = float(rng.choice(_GRID))
        var_oa = float(rng.choice(_GRID))
        if rng.random() < 0.1:  # NaN-adjacent but legal: tiny/denormal
            var_ba = float(rng.choice([1e-300, 5e-324, 0.0]))
        entries.append(
            IndexEntry(
                video_id=str(rng.choice(_VIDEOS)),
                shot_number=k,
                start_frame=k * 10,
                end_frame=k * 10 + 9,
                features=FeatureVector(var_ba=var_ba, var_oa=var_oa),
                archetype=None if k % 3 else "closeup",
            )
        )
    return entries


def _queries(seed: int, entries: list[IndexEntry]) -> list[VarianceQuery]:
    rng = np.random.default_rng(seed + 1_000_003)
    queries = [
        VarianceQuery(
            var_ba=float(rng.choice(_GRID)), var_oa=float(rng.choice(_GRID))
        )
        for _ in range(4)
    ]
    # Probes placed exactly on entry coordinates: the distance-0 match
    # plus band edges that land exactly on other grid points.
    for entry in entries[:: max(1, len(entries) // 3)]:
        queries.append(VarianceQuery.from_features(entry.features))
    return queries


def _ids(entries: list[IndexEntry]) -> list[tuple[str, int]]:
    return [(e.video_id, e.shot_number) for e in entries]


@pytest.mark.parametrize("seed", range(50))
def test_columnar_matches_legacy_searchers(seed):
    entries = _corpus(seed)
    columnar = ColumnarVarianceIndex(entries)
    config = QueryConfig()
    for query in _queries(seed, entries):
        expected = scan_search(entries, query, config)
        assert _ids(columnar.search(query, config)) == _ids(expected)
        for limit in (1, 3, 10):
            assert _ids(columnar.search(query, config, limit=limit)) == _ids(
                scan_search(entries, query, config, limit=limit)
            )
        exclude = (entries[seed % len(entries)].video_id, seed % len(entries))
        assert _ids(columnar.search(query, config, exclude_shot=exclude)) == _ids(
            scan_search(entries, query, config, exclude_shot=exclude)
        )


@pytest.mark.parametrize("seed", range(0, 50, 7))
def test_tight_and_wide_tolerances_match(seed):
    entries = _corpus(seed)
    columnar = ColumnarVarianceIndex(entries)
    for config in (
        QueryConfig(alpha=0.0, beta=0.0),  # exact-coordinate matches only
        QueryConfig(alpha=0.5, beta=2.0),
        QueryConfig(alpha=50.0, beta=50.0),  # whole-corpus band
    ):
        for query in _queries(seed, entries)[:5]:
            assert _ids(columnar.search(query, config)) == _ids(
                scan_search(entries, query, config)
            )


@pytest.mark.parametrize("seed", range(50))
def test_batch_equals_sequential_singles(seed):
    entries = _corpus(seed)
    columnar = ColumnarVarianceIndex(entries)
    config = QueryConfig()
    queries = _queries(seed, entries)
    for limit in (None, 5):
        batched = columnar.search_batch(queries, config, limit=limit)
        singles = [columnar.search(q, config, limit=limit) for q in queries]
        assert [_ids(b) for b in batched] == [_ids(s) for s in singles]
    # Per-query exclusions (the query-by-example path).
    excludes = [
        (entries[k % len(entries)].video_id, entries[k % len(entries)].shot_number)
        if k % 2
        else None
        for k in range(len(queries))
    ]
    batched = columnar.search_batch(queries, config, limit=5, exclude_shots=excludes)
    singles = [
        columnar.search(q, config, limit=5, exclude_shot=ex)
        for q, ex in zip(queries, excludes)
    ]
    assert [_ids(b) for b in batched] == [_ids(s) for s in singles]


class TestPendingBuffer:
    def test_inserts_merge_at_threshold_and_on_read(self, monkeypatch):
        monkeypatch.setattr(columnar, "_MERGE_THRESHOLD", 8)
        index = ColumnarVarianceIndex()
        mirror: list[IndexEntry] = []
        rng = np.random.default_rng(3)
        for k in range(30):
            entry = IndexEntry(
                video_id=f"v{k % 4}",
                shot_number=k,
                start_frame=0,
                end_frame=1,
                features=FeatureVector(
                    var_ba=float(rng.choice(_GRID)), var_oa=float(rng.choice(_GRID))
                ),
            )
            index.insert(entry)
            mirror.append(entry)
            # Every read sees all pending inserts, merged or not.
            assert len(index) == k + 1
            query = VarianceQuery.from_features(entry.features)
            assert _ids(index.search(query)) == _ids(scan_search(mirror, query))
        # Physical order within equal D^v is not part of the contract —
        # the row *sets* and the sort invariant are.
        key = lambda row: (row["d_v"], row["shot"])
        assert sorted((e.to_row() for e in index.entries), key=key) == sorted(
            (e.to_row() for e in mirror), key=key
        )
        d_vs = [e.d_v for e in index.entries]
        assert d_vs == sorted(d_vs)
        # Inserts alone merge once the buffer reaches the threshold.
        for k in range(8):
            index.insert(entry)
            assert index.stats()["pending"] == (k + 1) % 8

    def test_remove_video_covers_pending_rows(self):
        index = ColumnarVarianceIndex()
        for k in range(10):
            index.insert(
                IndexEntry(
                    video_id="keep" if k % 2 else "drop",
                    shot_number=k,
                    start_frame=0,
                    end_frame=1,
                    features=FeatureVector(var_ba=float(k), var_oa=0.0),
                )
            )
        assert index.remove_video("drop") == 5
        assert index.remove_video("drop") == 0
        assert len(index) == 5
        assert all(e.video_id == "keep" for e in index.entries)


class TestContracts:
    def test_nan_entries_rejected_like_legacy(self):
        bad = IndexEntry(
            video_id="v",
            shot_number=1,
            start_frame=0,
            end_frame=1,
            features=FeatureVector(var_ba=math.inf, var_oa=math.inf),
        )
        with pytest.raises(IndexError_, match="NaN D\\^v"):
            ColumnarVarianceIndex([bad])
        with pytest.raises(IndexError_, match="NaN D\\^v"):
            ColumnarVarianceIndex().insert(bad)

    def test_range_scan_errors_match_legacy(self):
        columnar = ColumnarVarianceIndex()
        for low, high in ((math.nan, 1.0), (1.0, math.nan)):
            with pytest.raises(IndexError_, match="must not be NaN"):
                columnar.range_scan(low, high)
        with pytest.raises(IndexError_, match="empty range"):
            columnar.range_scan(2.0, 1.0)

    def test_range_scan_band_matches_legacy(self):
        """The Eq. 7 band is the entries filtered by ``D^v``, in the
        stable ``D^v`` order of the corpus."""
        entries = _corpus(9)
        columnar = ColumnarVarianceIndex(entries)
        by_d_v = sorted(entries, key=lambda e: e.d_v)
        for low, high in ((-5.0, 5.0), (0.0, 0.0), (2.0, 3.0), (100.0, 200.0)):
            assert [e.to_row() for e in columnar.range_scan(low, high)] == [
                e.to_row() for e in by_d_v if low <= e.d_v <= high
            ]

    def test_int32_overflow_rejected(self):
        with pytest.raises(IndexError_, match="int32"):
            ColumnarVarianceIndex().insert(
                IndexEntry(
                    video_id="v",
                    shot_number=2**31,
                    start_frame=0,
                    end_frame=1,
                    features=FeatureVector(var_ba=1.0, var_oa=0.0),
                )
            )

    def test_empty_index_and_empty_batch(self):
        index = ColumnarVarianceIndex()
        assert index.search(VarianceQuery(var_ba=1.0, var_oa=0.0)) == []
        assert index.search_batch([]) == []
        assert index.search_batch([VarianceQuery(var_ba=1.0, var_oa=0.0)]) == [[]]
        assert index.entries == ()

    def test_entries_is_an_immutable_tuple(self):
        columnar = ColumnarVarianceIndex(_corpus(5, n=20))
        assert columnar.entries == columnar.entries
        assert isinstance(columnar.entries, tuple)

    def test_queries_leave_no_rows_behind(self):
        """Rows are built per call from the columns, so the memory an
        index holds does not grow with the queries it has answered."""
        index = ColumnarVarianceIndex(_corpus(9, n=2000))
        config = QueryConfig(alpha=50.0, beta=50.0)
        points = np.random.default_rng(9).uniform(0.0, 225.0, size=(500, 2))
        tracemalloc.start()
        try:
            index.search(VarianceQuery(1.0, 1.0), config, limit=10)  # tie ranks
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            for var_ba, var_oa in points.tolist():
                query = VarianceQuery(var_ba, var_oa)
                assert len(index.search(query, config, limit=10)) == 10
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown <= 64 * 1024, f"{grown} bytes held after 500 queries"

    def test_concurrent_searches_decide_as_serial_ones(self):
        """Threads searching one index at once (more than there are
        cores, switching often) get the serial answers: the search lock
        orders searches, it decides nothing."""
        index = ColumnarVarianceIndex(_corpus(11, n=2000))
        config = QueryConfig(alpha=30.0, beta=30.0)
        rng = np.random.default_rng(11)
        streams = [
            [VarianceQuery(ba, oa) for ba, oa in rng.uniform(0.0, 225.0, (50, 2)).tolist()]
            for _ in range(3)
        ]
        serial = [[_ids(index.search(q, config, limit=10)) for q in s] for s in streams]
        got: list[list | None] = [None] * len(streams)
        start = threading.Barrier(len(streams))

        def run(k):
            start.wait()
            got[k] = [_ids(index.search(q, config, limit=10)) for q in streams[k]]

        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(streams))]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert got == serial

    def test_one_search_at_a_time(self):
        """A search waits while another holds the process-wide lock."""
        from repro.index import columnar

        index = ColumnarVarianceIndex(_corpus(12))
        answers: list = []
        thread = threading.Thread(
            target=lambda: answers.append(index.search(VarianceQuery(4.0, 1.0)))
        )
        with columnar._SEARCH_LOCK:
            thread.start()
            thread.join(0.1)
            assert thread.is_alive() and not answers
        thread.join(10.0)
        assert answers == [index.search(VarianceQuery(4.0, 1.0))]

    def test_stats_match_the_reloaded_copy(self):
        """``stats()`` counts the videos and archetypes the rows use, so
        a removed video stops counting before any reload compacts the
        intern tables."""

        def entry(video, shot, archetype):
            return IndexEntry(
                video_id=video,
                shot_number=shot,
                start_frame=0,
                end_frame=1,
                features=FeatureVector(var_ba=float(shot), var_oa=0.0),
                archetype=archetype,
            )

        index = ColumnarVarianceIndex([entry("a", 1, "closeup"), entry("b", 2, None)])
        index.remove_video("a")
        reloaded = ColumnarVarianceIndex.from_parts(index.video_rows())
        assert index.stats() == reloaded.stats()
        assert (index.stats()["videos"], index.stats()["archetypes"]) == (1, 0)
        # Pending rows count without forcing a merge.
        index.insert(entry("c", 3, "wide"))
        stats = index.stats()
        assert (stats["pending"], stats["videos"], stats["archetypes"]) == (1, 2, 1)

    def test_lookup_and_entries_for(self):
        entries = _corpus(6, n=40)
        columnar = ColumnarVarianceIndex(entries)
        probe = entries[7]
        found = columnar.lookup(probe.video_id, probe.shot_number)
        assert found is not None and found.to_row() == probe.to_row()
        assert columnar.lookup("no-such-video", 1) is None
        per_video = columnar.entries_for(probe.video_id)
        assert all(e.video_id == probe.video_id for e in per_video)
        assert len(per_video) == sum(
            1 for e in entries if e.video_id == probe.video_id
        )
        assert columnar.entries_for("no-such-video") == []


class TestQueryCaching:
    def test_cached_sqrt_fields_match_math(self):
        query = VarianceQuery(var_ba=144.0, var_oa=64.0)
        assert query.sqrt_var_ba == math.sqrt(144.0)
        assert query.d_v == math.sqrt(144.0) - math.sqrt(64.0)

    def test_equality_and_hash_ignore_cached_fields(self):
        assert VarianceQuery(var_ba=2.0, var_oa=1.0) == VarianceQuery(
            var_ba=2.0, var_oa=1.0
        )
        assert hash(VarianceQuery(var_ba=2.0, var_oa=1.0)) == hash(
            VarianceQuery(var_ba=2.0, var_oa=1.0)
        )


@pytest.mark.cluster
class TestBatchThroughCluster:
    def _corpus_records(self, seed, n_videos):
        records = []
        rng = np.random.default_rng(seed)
        for k in range(n_videos):
            video_id = f"corpus-{seed}-{k:03d}"
            scratch = VideoDatabase()
            add_synth_video(scratch, video_id, rng)
            records.append(scratch.export_video(video_id))
        return records

    def _decisions(self, answer):
        return [
            (m.video_id, m.shot_number, r.suggestion)
            for m, r in zip(answer.matches, answer.routes)
        ]

    def test_cluster_batch_matches_single_database(self):
        records = self._corpus_records(seed=31, n_videos=18)
        single = VideoDatabase()
        cluster = ClusterCoordinator.ephemeral(3)
        for record in records:
            single.adopt(record)
            cluster.adopt(record)
        points = [
            (e.features.var_ba, e.features.var_oa)
            for e in single.index.entries[::5]
        ]
        expected = [self._decisions(a) for a in single.query_batch(points, limit=8)]
        got = cluster.query_batch(points, limit=8)
        assert [self._decisions(a) for a in got] == expected
        assert all(not a.partial for a in got)
        # Batch-of-B ≡ B sequential cluster singles too.
        sequential = [
            self._decisions(cluster.query(b, o, limit=8)) for b, o in points
        ]
        assert [self._decisions(a) for a in got] == sequential

    @pytest.mark.rebalance
    def test_cluster_batch_identical_during_and_after_rebalance(self):
        records = self._corpus_records(seed=32, n_videos=16)
        single = VideoDatabase()
        cluster = ClusterCoordinator.ephemeral(4)
        for record in records:
            single.adopt(record)
            cluster.adopt(record)
        points = [
            (e.features.var_ba, e.features.var_oa)
            for e in single.index.entries[::6]
        ]
        expected = [self._decisions(a) for a in single.query_batch(points, limit=10)]

        failures: list[str] = []
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                answers = cluster.query_batch(points, limit=10)
                if [self._decisions(a) for a in answers] != expected:
                    failures.append("divergence during rebalance")
                if any(a.partial for a in answers):
                    failures.append("partial answer during rebalance")

        thread = threading.Thread(target=hammer)
        thread.start()
        try:
            rebalancer = Rebalancer(cluster)
            rebalancer.reshard(2)
            rebalancer.reshard(4)
        finally:
            stop.set()
            thread.join(timeout=60)
        assert not failures, failures[:5]
        after = cluster.query_batch(points, limit=10)
        assert [self._decisions(a) for a in after] == expected
