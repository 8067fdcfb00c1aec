"""Unit tests for repro.service (cache, metrics, lock, engine)."""

import threading
import time

import pytest

from repro.errors import ReproError, WorkloadError
from repro.service.cache import QueryResultCache
from repro.service.engine import (
    JobStatus,
    ReadWriteLock,
    ServiceEngine,
    clip_from_spec,
)
from repro.service.metrics import LatencyHistogram, MetricsRegistry


class TestQueryResultCache:
    def test_miss_then_hit(self):
        cache = QueryResultCache(capacity=4)
        key = cache.make_key(1.0, 2.0, 1.0, 1.0, 5)
        assert cache.get(key) is None
        cache.put(key, {"count": 0})
        assert cache.get(key) == {"count": 0}
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5

    def test_lru_eviction_order(self):
        cache = QueryResultCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"; "b" is now LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats()["evictions"] == 1

    def test_invalidate_clears_and_bumps_generation(self):
        cache = QueryResultCache(capacity=4)
        cache.put("a", 1)
        before = cache.generation
        assert cache.invalidate() == 1
        assert cache.get("a") is None
        assert cache.generation == before + 1
        assert cache.stats()["invalidations"] == 1

    def test_stale_generation_fill_rejected(self):
        """A fill computed before an invalidation must not land after it."""
        cache = QueryResultCache(capacity=4)
        generation = cache.generation
        cache.invalidate()  # ingest committed while the query computed
        assert cache.put("a", "stale", generation=generation) is False
        assert cache.get("a") is None
        assert cache.put("a", "fresh", generation=cache.generation) is True
        assert cache.get("a") == "fresh"

    def test_distinct_tolerances_never_alias(self):
        k1 = QueryResultCache.make_key(1.0, 2.0, 1.0, 1.0, None)
        k2 = QueryResultCache.make_key(1.0, 2.0, 2.0, 1.0, None)
        k3 = QueryResultCache.make_key(1.0, 2.0, 1.0, 1.0, 3)
        assert len({k1, k2, k3}) == 3

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            QueryResultCache(capacity=0)


class TestLatencyHistogram:
    def test_counts_and_sum(self):
        histogram = LatencyHistogram()
        for ms in (1.0, 2.0, 100.0):
            histogram.observe(ms / 1_000.0)
        snap = histogram.snapshot()
        assert snap["count"] == 3
        assert snap["mean_ms"] == pytest.approx(34.333, abs=0.01)
        assert snap["min_ms"] == pytest.approx(1.0)
        assert snap["max_ms"] == pytest.approx(100.0)

    def test_percentiles_are_monotonic_upper_bounds(self):
        histogram = LatencyHistogram()
        stream = [1.0 + 99.0 * k / 10_000 for k in range(10_001)]  # 1..100 ms
        for ms in stream:
            histogram.observe(ms / 1_000.0)
        p50, p90, p99 = (histogram.percentile(p) for p in (50, 90, 99))
        assert histogram.min_ms <= p50 <= p90 <= p99 <= histogram.max_ms
        for p, estimate in ((50, p50), (90, p90), (99, p99)):
            true = stream[round(p / 100 * (len(stream) - 1))]
            assert estimate == pytest.approx(true, rel=0.1), p  # interpolated

    def test_resolves_tens_of_microseconds(self):
        histogram = LatencyHistogram()
        for _ in range(1_000):
            histogram.observe(40e-6)
        histogram.observe(0.2)  # one slow request sets the max
        snap = histogram.snapshot()
        assert snap["p50_ms"] == pytest.approx(0.040, rel=0.1)
        assert snap["p99_ms"] == pytest.approx(0.040, rel=0.1)

    def test_bucket_index_matches_a_scan_of_the_bounds(self):
        from repro.service.metrics import _BUCKET_BOUNDS_MS, _bucket

        def scanned(us):
            ms = us / 1_000.0
            for k, bound in enumerate(_BUCKET_BOUNDS_MS):
                if ms <= bound:
                    return k
            return len(_BUCKET_BOUNDS_MS)

        edges = [bound * 1_000.0 for bound in _BUCKET_BOUNDS_MS]
        samples = [0.0, 0.3, 1.0, 1.1, 40.0, 7e10]
        samples += edges + [edge * 1.0001 for edge in edges]
        samples += [10 ** (k / 97) for k in range(-100, 1_000)]
        assert [_bucket(us) for us in samples] == [scanned(us) for us in samples]

    def test_empty_histogram(self):
        snap = LatencyHistogram().snapshot()
        assert snap["count"] == 0
        assert snap["p99_ms"] == 0.0

    def test_bucket_overflow_goes_to_inf(self):
        histogram = LatencyHistogram()
        histogram.observe(120.0)  # 2 minutes, beyond the last bound
        assert histogram.snapshot()["buckets"] == {"le_inf": 1}


class TestMetricsRegistry:
    def test_counters(self):
        metrics = MetricsRegistry()
        metrics.increment("ingest_completed")
        metrics.increment("ingest_completed", 2)
        assert metrics.counter("ingest_completed") == 3
        assert metrics.counter("never_bumped") == 0

    def test_requests_aggregate_by_endpoint(self):
        metrics = MetricsRegistry()
        metrics.observe_request("GET /videos", 200, 0.002)
        metrics.observe_request("GET /videos", 404, 0.001)
        metrics.observe_request("POST /query", 200, 0.004)
        snap = metrics.snapshot()
        videos = snap["requests"]["GET /videos"]
        assert videos["count"] == 2
        assert videos["errors"] == 1
        assert videos["latency"]["count"] == 2
        assert snap["requests"]["POST /query"]["errors"] == 0


class TestReadWriteLock:
    def test_readers_share(self):
        lock = ReadWriteLock()
        barrier = threading.Barrier(2, timeout=5)

        def reader():
            with lock.read_locked():
                barrier.wait()  # both readers inside simultaneously

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert not any(t.is_alive() for t in threads)

    def test_writer_excludes_readers(self):
        lock = ReadWriteLock()
        order = []
        lock.acquire_write()

        def reader():
            with lock.read_locked():
                order.append("read")

        t = threading.Thread(target=reader)
        t.start()
        time.sleep(0.05)
        assert order == []  # reader blocked behind the writer
        order.append("write-done")
        lock.release_write()
        t.join(timeout=5)
        assert order == ["write-done", "read"]

    def test_waiting_writer_blocks_new_readers(self):
        lock = ReadWriteLock()
        lock.acquire_read()
        writer_started = threading.Event()
        results = []

        def writer():
            writer_started.set()
            with lock.write_locked():
                results.append("write")

        def late_reader():
            with lock.read_locked():
                results.append("read")

        w = threading.Thread(target=writer)
        w.start()
        writer_started.wait(timeout=5)
        time.sleep(0.05)  # let the writer reach its wait loop
        r = threading.Thread(target=late_reader)
        r.start()
        time.sleep(0.05)
        assert results == []  # reader queued behind the waiting writer
        lock.release_read()
        w.join(timeout=5)
        r.join(timeout=5)
        assert results == ["write", "read"]


class TestClipFromSpec:
    def test_synthetic_is_deterministic(self):
        spec = {"source": "synthetic", "video_id": "s", "n_shots": 2, "seed": 3}
        clip_a, _ = clip_from_spec(spec)
        clip_b, _ = clip_from_spec(spec)
        assert (clip_a.frames == clip_b.frames).all()
        assert clip_a.name == "s"

    def test_synthetic_requires_video_id(self):
        with pytest.raises(WorkloadError):
            clip_from_spec({"source": "synthetic"})

    def test_unknown_source_rejected(self):
        with pytest.raises(WorkloadError):
            clip_from_spec({"source": "webcam"})

    def test_category_parsed(self):
        _, category = clip_from_spec(
            {
                "source": "synthetic",
                "video_id": "s",
                "category": {"genres": ["comedy"], "forms": ["feature"]},
            }
        )
        assert category is not None and "comedy" in category.genres


@pytest.fixture()
def engine():
    engine = ServiceEngine(n_workers=2, cache_capacity=32)
    yield engine
    engine.shutdown()


def _synthetic_spec(video_id, seed=0, n_shots=3):
    return {
        "source": "synthetic",
        "video_id": video_id,
        "n_shots": n_shots,
        "frames_per_shot": 6,
        "seed": seed,
    }


class TestServiceEngine:
    def test_job_lifecycle_done(self, engine):
        job = engine.submit_spec(_synthetic_spec("clip-1"))
        assert job.status in (JobStatus.QUEUED, JobStatus.RUNNING, JobStatus.DONE)
        finished = engine.wait_for(job.job_id, timeout=60)
        assert finished.status is JobStatus.DONE
        assert finished.report["n_shots"] == 3
        assert finished.finished_at >= finished.started_at >= finished.submitted_at
        payload = finished.to_dict()
        assert payload["status"] == "done" and "error" not in payload

    def test_job_failure_is_recorded_not_raised(self, engine):
        job = engine.submit_spec(
            {"source": "file", "path": "/nonexistent/clip.rvid"}
        )
        finished = engine.wait_for(job.job_id, timeout=60)
        assert finished.status is JobStatus.FAILED
        assert "clip.rvid" in finished.error or "Errno" in finished.error

    def test_duplicate_ingest_fails_cleanly(self, engine):
        engine.wait_for(engine.submit_spec(_synthetic_spec("dup")).job_id, 60)
        job = engine.wait_for(engine.submit_spec(_synthetic_spec("dup")).job_id, 60)
        assert job.status is JobStatus.FAILED
        assert "already" in job.error

    def test_malformed_spec_rejected_at_submission(self, engine):
        with pytest.raises(WorkloadError):
            engine.submit_spec({"source": "synthetic"})  # no video_id
        with pytest.raises(WorkloadError):
            engine.submit_spec({"source": "nope"})

    def test_unknown_job_raises(self, engine):
        with pytest.raises(ReproError):
            engine.job("job-999")

    def test_query_caches_and_ingest_invalidates(self, engine):
        engine.wait_for(engine.submit_spec(_synthetic_spec("base", seed=1)).job_id, 60)
        # Wide tolerances: matches every indexed shot.
        first, cached = engine.query(0.0, 0.0, alpha=1e6, beta=1e6)
        assert not cached
        again, cached = engine.query(0.0, 0.0, alpha=1e6, beta=1e6)
        assert cached and again == first
        engine.wait_for(engine.submit_spec(_synthetic_spec("more", seed=2)).job_id, 60)
        after, cached = engine.query(0.0, 0.0, alpha=1e6, beta=1e6)
        assert not cached  # ingest invalidated the cache
        assert after["count"] == first["count"] + 3  # new shots visible
        assert engine.cache.stats()["invalidations"] >= 2

    def test_per_request_tolerances_do_not_alias(self, engine):
        engine.wait_for(engine.submit_spec(_synthetic_spec("tol", seed=3)).job_id, 60)
        wide, _ = engine.query(0.0, 0.0, alpha=1e6, beta=1e6)
        narrow, cached = engine.query(0.0, 0.0, alpha=1e-9, beta=1e-9)
        assert not cached
        assert narrow["count"] <= wide["count"]

    def test_health_and_metrics_payloads(self, engine):
        engine.wait_for(engine.submit_spec(_synthetic_spec("h", seed=4)).job_id, 60)
        health = engine.health_payload()
        assert health["status"] == "ok"
        assert health["videos"] == 1
        assert health["jobs"] == {"done": 1}
        engine.query(1.0, 1.0)
        metrics = engine.metrics_payload()
        assert metrics["counters"]["ingest_completed"] == 1
        assert metrics["query_cache"]["misses"] >= 1


class TestConcurrentIngest:
    def test_two_ingests_derive_at_once_and_both_commit(self, tmp_path):
        """Derive is pure and runs with no shard lock held: two ingest
        workers analyse clips at the same time (a barrier that only
        both can pass), queries keep reading meanwhile, and both
        ingests commit durably."""
        import numpy as np

        from repro.vdbms.database import VideoDatabase
        from repro.video.clip import VideoClip

        db = VideoDatabase.open(tmp_path / "db")
        engine = ServiceEngine(db, n_workers=2, watchdog_interval=0)
        shard = engine.cluster.shards[0]
        barrier = threading.Barrier(2, timeout=20)
        readable = []
        derive = db.derive

        def both_at_once(*args, **kwargs):
            barrier.wait()
            # No writer holds the shard while a clip is analysed.
            readable.append(shard.lock.acquire_read(timeout=5))
            shard.lock.release_read()
            return derive(*args, **kwargs)

        db.derive = both_at_once
        clips = []
        for k, level in enumerate((40, 200)):
            frames = np.zeros((12, 32, 32, 3), dtype=np.uint8)
            frames[:6] = level
            frames[6:] = 255 - level
            clips.append(VideoClip(f"parallel-{k}", frames, fps=3.0))
        try:
            jobs = [engine.submit_clip(clip) for clip in clips]
            for job in jobs:
                done = engine.wait_for(job.job_id, timeout=60)
                assert done.status is JobStatus.DONE, done.error
        finally:
            engine.shutdown(timeout=10)
        assert readable == [True, True]
        reloaded = VideoDatabase.load(tmp_path / "db")
        assert sorted(reloaded.catalog.ids()) == ["parallel-0", "parallel-1"]
