"""Overload contract over HTTP: backpressure (429), deadlines (503),
body caps (413), and readiness — the server sheds load, never breaks.

Marked ``overload``; run in the CI overload job alongside the chaos
and drain suites."""

import contextlib
import json
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.cluster import ClusterCoordinator
from repro.errors import ServiceOverloadError, ServiceTimeout
from repro.service.engine import JobStatus, ServiceEngine
from repro.service.resilience import Deadline
from repro.service.server import create_server
from repro.testing.chaos import StallingHook, run_overload_burst
from repro.testing.synth import add_synth_video
from repro.vdbms.database import VideoDatabase

pytestmark = pytest.mark.overload


def _request(base_url, method, path, body=None, headers=None, timeout=30.0):
    """Returns (status, payload, headers) without raising on 4xx/5xx."""
    data = json.dumps(body).encode("utf-8") if body is not None else None
    all_headers = {"Content-Type": "application/json"} if data else {}
    all_headers.update(headers or {})
    request = urllib.request.Request(
        base_url + path, data=data, method=method, headers=all_headers
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return (
                response.status,
                json.loads(response.read().decode("utf-8")),
                dict(response.headers),
            )
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8")), dict(error.headers)


@contextlib.contextmanager
def _serve(engine, **server_kwargs):
    server = create_server(engine, **server_kwargs)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        engine.shutdown()


def _spec(video_id, seed=0):
    return {
        "source": "synthetic",
        "video_id": video_id,
        "n_shots": 2,
        "frames_per_shot": 4,
        "rows": 16,
        "cols": 16,
        "seed": seed,
    }


class TestBackpressure:
    def test_burst_sheds_with_429_and_never_5xx(self):
        engine = ServiceEngine(
            n_workers=1,
            max_queue=3,
            watchdog_interval=0,
            ingest_hook=lambda clip: time.sleep(0.05),
        )
        with _serve(engine) as base_url:
            capacity = 3 + 1  # queue bound + one in-flight slot
            burst = run_overload_burst(
                base_url, 2 * capacity, workers=capacity, seed=3
            )
            assert burst["server_errors"] == 0, burst
            assert burst["transport_errors"] == 0, burst
            assert burst["rejected_429"] >= 1, burst
            assert burst["retry_after_max_s"] >= 1.0
            # The queue-depth gauge never exceeded the configured bound.
            status, metrics, _ = _request(base_url, "GET", "/metrics")
            assert status == 200
            assert metrics["gauges"]["ingest_queue_depth_peak"] <= 3
            assert metrics["counters"]["ingest_rejected_overload"] >= 1
            assert metrics["overload"]["queue_capacity"] == 3
            # After the burst every accepted job completes.
            engine.drain(timeout=60)
            for job_id in burst["accepted_job_ids"]:
                assert engine.job(job_id).status is JobStatus.DONE

    def test_429_body_names_the_reason_and_retry_after(self):
        gate = threading.Event()
        engine = ServiceEngine(
            n_workers=1,
            max_queue=1,
            watchdog_interval=0,
            ingest_hook=lambda clip: gate.wait(30),
        )
        with _serve(engine) as base_url:
            try:
                # First job occupies the worker, second fills the
                # queue; the third must be rejected deterministically.
                _request(base_url, "POST", "/ingest", _spec("held-0"))
                deadline = time.monotonic() + 5
                while engine.overload_payload()["workers_busy"] < 1:
                    assert time.monotonic() < deadline, "worker never started"
                    time.sleep(0.01)
                _request(base_url, "POST", "/ingest", _spec("held-1"))
                status, payload, headers = _request(
                    base_url, "POST", "/ingest", _spec("held-2")
                )
                assert status == 429
                assert payload["reason"] == "overloaded"
                assert payload["retry_after_s"] > 0
                assert int(headers["Retry-After"]) >= 1
            finally:
                gate.set()
            engine.drain(timeout=60)

    @staticmethod
    def _wedged_three_shards(max_queue):
        """A 3-shard engine whose one worker per shard queue is stuck in
        a job, plus spare video ids grouped by home shard."""
        cluster = ClusterCoordinator.ephemeral(3)
        hook = StallingHook()
        engine = ServiceEngine(
            cluster,
            n_workers=3,
            max_queue=max_queue,
            watchdog_interval=0,
            ingest_hook=hook,
        )
        by_shard: dict[int, list[str]] = {0: [], 1: [], 2: []}
        for k in range(300):
            by_shard[cluster.router.shard_for(f"q-{k}")].append(f"q-{k}")
        for shard_id in range(3):
            engine.submit_spec(_spec(by_shard[shard_id].pop()))
        deadline = time.monotonic() + 10
        while engine.overload_payload()["workers_busy"] < 3:
            assert time.monotonic() < deadline, "workers never started"
            time.sleep(0.01)
        return engine, hook, by_shard

    def test_the_bound_spans_every_shard_queue(self):
        """On K shards ``max_queue`` bounds the sum of the per-shard
        queues: jobs that share one home shard may fill all of it, and
        no job past it is queued on any shard."""
        engine, hook, by_shard = self._wedged_three_shards(max_queue=4)
        with _serve(engine) as base_url:
            try:
                for video_id in by_shard[0][:4]:
                    status, _, _ = _request(base_url, "POST", "/ingest", _spec(video_id))
                    assert status == 202
                for video_id in (by_shard[0][4], by_shard[1][0]):
                    status, payload, _ = _request(
                        base_url, "POST", "/ingest", _spec(video_id)
                    )
                    assert status == 429
                    assert "4 jobs deep" in payload["error"]
                status, metrics, _ = _request(base_url, "GET", "/metrics")
                assert metrics["gauges"]["ingest_queue_depth_peak"] == 4
                assert metrics["overload"]["queue_capacity"] == 4
                assert metrics["overload"]["queue_depth_per_shard"] == [4, 0, 0]
            finally:
                hook.release()
            engine.drain(timeout=60)

    def test_concurrent_submits_never_pass_the_bound(self):
        """Eight threads race to submit across all three shards with a
        tiny switch interval: exactly ``max_queue`` jobs get in."""
        engine, hook, by_shard = self._wedged_three_shards(max_queue=5)
        ids = [video_id for shard_ids in by_shard.values() for video_id in shard_ids]
        accepted: list[str] = []
        rejected: list[str] = []
        start = threading.Barrier(8)

        def submit(mine):
            start.wait(timeout=10)
            for video_id in mine:
                try:
                    engine.submit_spec(_spec(video_id))
                    accepted.append(video_id)
                except ServiceOverloadError:
                    rejected.append(video_id)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=submit, args=(ids[k::8],)) for k in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            hook.release()
        assert len(accepted) == 5
        assert len(rejected) == len(ids) - 5
        assert engine.metrics.gauge("ingest_queue_depth_peak") == 5
        engine.drain(timeout=60)
        engine.shutdown()

    def test_unbounded_queue_never_429s(self):
        engine = ServiceEngine(n_workers=1, watchdog_interval=0)
        with _serve(engine) as base_url:
            burst = run_overload_burst(base_url, 8, workers=4, seed=5)
            assert burst["rejected_429"] == 0
            assert len(burst["accepted_job_ids"]) == 8
            engine.drain(timeout=120)


class TestDeadlines:
    def test_expired_deadline_is_a_structured_503(self):
        engine = ServiceEngine(n_workers=1, watchdog_interval=0)
        with _serve(engine) as base_url:
            # Wedge the read path: a writer holds the shard lock, so any
            # deadline-carrying read must give up within its budget.
            [shard] = engine.cluster.shards
            shard.lock.acquire_write()
            try:
                started = time.perf_counter()
                status, payload, _ = _request(
                    base_url, "GET", "/videos", headers={"X-Deadline-Ms": "100"}
                )
                elapsed = time.perf_counter() - started
            finally:
                shard.lock.release_write()
            assert status == 503
            assert payload["reason"] == "deadline_exceeded"
            assert elapsed < 5.0, "deadline did not bound the wait"
            _, metrics, _ = _request(base_url, "GET", "/metrics")
            assert metrics["counters"]["deadline_exceeded"] >= 1

    def test_expired_deadline_on_a_cluster_browse_is_a_structured_503(self):
        cluster = ClusterCoordinator.ephemeral(2)
        scratch = VideoDatabase()
        add_synth_video(scratch, "held", np.random.default_rng(3))
        cluster.adopt(scratch.export_video("held"))
        shard = cluster.locate("held")
        engine = ServiceEngine(cluster, n_workers=2, watchdog_interval=0)
        with _serve(engine) as base_url:
            # An ingest holds its primary shard's write lock through the
            # whole pipeline and publish.  The timer bounds the hold, so
            # a read that ignores its deadline waits, then fails below.
            released = threading.Lock()

            def release():
                if released.acquire(blocking=False):
                    shard.lock.release_write()

            shard.lock.acquire_write()
            timer = threading.Timer(2.0, release)
            timer.start()
            try:
                for path in ("/videos/held/tree", "/videos/held/shots", "/videos"):
                    started = time.perf_counter()
                    status, payload, _ = _request(
                        base_url, "GET", path, headers={"X-Deadline-Ms": "100"}
                    )
                    elapsed = time.perf_counter() - started
                    assert status == 503, path
                    assert payload["reason"] == "deadline_exceeded"
                    assert elapsed < 1.5, f"{path} waited out the held lock"
            finally:
                timer.cancel()
                release()
            status, _, _ = _request(base_url, "GET", "/videos/held/tree")
            assert status == 200

    @pytest.mark.parametrize("replication", [1, 2])
    def test_a_busy_shard_is_not_benched(self, replication):
        """A shard whose reads queue behind a writer past their deadline
        is busy, not sick: its failures are reported as ``busy`` (the
        answer partial, or failed over to the replica) and the
        supervisor benches no one, however many queries it takes."""
        cluster = ClusterCoordinator.ephemeral(2, replication=replication)
        for k in range(6):
            scratch = VideoDatabase()
            add_synth_video(scratch, f"busy-{k}", np.random.default_rng(k))
            cluster.adopt(scratch.export_video(f"busy-{k}"))
        engine = ServiceEngine(cluster, n_workers=1, watchdog_interval=0)
        wide = {"alpha": 1e6, "beta": 1e6}
        busy = cluster.shards[1]
        try:
            busy.lock.acquire_write()
            try:
                for k in range(engine.supervisor.threshold + 2):
                    payload, cached = engine.query(
                        1.0 + k, 1.0, deadline=Deadline(0.1), **wide
                    )
                    assert not cached
                    assert [f["reason"] for f in payload["shards_failed"]] == ["busy"]
                    if replication == 1:
                        assert payload["partial"] is True
                    else:
                        assert payload["partial"] is False
                        assert payload["shards_recovered"] == [busy.name]
            finally:
                busy.lock.release_write()
            assert not any(shard.down for shard in cluster.shards)
            assert engine.supervisor.trips == 0
            payload, _ = engine.query(9.0, 9.0, deadline=Deadline(5.0), **wide)
            assert payload["partial"] is False and payload["shards_failed"] == []
        finally:
            engine.shutdown(timeout=10)

    def test_an_untried_shard_is_busy_inline(self):
        """The scatter runs on the request's thread.  A shard queued
        behind a writer is deferred, so the shards after it still
        answer and only the held one is ``busy``; and the shards an
        earlier sub-query's overrun kept the scatter from reaching are
        ``busy`` (not tried) too.  The supervisor benches none."""
        cluster = ClusterCoordinator.ephemeral(3)
        for k in range(6):
            scratch = VideoDatabase()
            add_synth_video(scratch, f"inline-{k}", np.random.default_rng(k))
            cluster.adopt(scratch.export_video(f"inline-{k}"))
        engine = ServiceEngine(cluster, n_workers=1, watchdog_interval=0)
        first, held, last = cluster.shards
        try:
            with held.lock.write_locked():
                for k in range(engine.supervisor.threshold + 1):
                    payload, _ = engine.query(
                        1.0 + k, 1.0, deadline=Deadline(0.1), alpha=1e6, beta=1e6
                    )
                    assert payload["partial"] is True
                    assert payload["shards_queried"] == 2
                    reasons = {f["shard"]: f["reason"] for f in payload["shards_failed"]}
                    assert reasons == {held.name: "busy"}
            assert not any(shard.down for shard in cluster.shards)
            assert engine.supervisor.trips == 0

            query_batch = first.db.query_batch

            def late_scan(*args, **kwargs):
                time.sleep(0.15)
                return query_batch(*args, **kwargs)

            first.db.query_batch = late_scan
            answer = cluster.query(1.0, 1.0, deadline=Deadline(0.1))
            failed = {f["shard"]: f for f in answer.shards_failed}
            assert {name: f["reason"] for name, f in failed.items()} == {
                first.name: "deadline",
                held.name: "busy",
                last.name: "busy",
            }
            assert "not tried" in failed[last.name]["error"]
            assert answer.shards_queried == 0
        finally:
            engine.shutdown(timeout=10)

    def test_a_slow_shard_is_not_busy(self):
        """The other side of the busy rule: a sub-query that held its
        shard's read lock and still ran past the budget is a slow shard
        (reason ``deadline``, counted toward benching; its late answer
        is dropped) — even while another reader queues on that shard
        behind a writer."""
        cluster = ClusterCoordinator.ephemeral(2)
        for k in range(4):
            scratch = VideoDatabase()
            add_synth_video(scratch, f"slow-{k}", np.random.default_rng(k))
            cluster.adopt(scratch.export_video(f"slow-{k}"))
        slow = cluster.shards[1]
        scanning = threading.Event()
        query_batch = slow.db.query_batch

        def late_scan(*args, **kwargs):
            scanning.set()
            time.sleep(0.5)  # past the 0.3 s budget
            return query_batch(*args, **kwargs)

        def writer():
            with slow.lock.write_locked(10.0):
                pass

        def queued_reader():
            scanning.wait(10.0)
            thread = threading.Thread(target=writer)
            thread.start()
            while not slow.lock._writers_waiting:
                time.sleep(0.001)
            with slow.traced_read(10.0):  # queued behind the writer
                pass
            thread.join(10.0)

        slow.db.query_batch = late_scan
        reader = threading.Thread(target=queued_reader)
        reader.start()
        try:
            answer = cluster.query(1.0, 1.0, deadline=Deadline(0.3))
            assert [f["reason"] for f in answer.shards_failed] == ["deadline"]
            assert answer.partial
            assert answer.shards_queried == 1
        finally:
            reader.join(10.0)
            cluster.close()
        assert not reader.is_alive()

    def test_a_late_answer_on_a_plain_database_is_a_timeout(self):
        """A one-shard scatter drops a sub-query that ends past the
        deadline like any other, so a plain database answers 503
        instead of returning the late answer."""
        db = VideoDatabase()
        add_synth_video(db, "late", np.random.default_rng(0))
        engine = ServiceEngine(db, n_workers=1, watchdog_interval=0)
        query_batch = db.query_batch

        def late_scan(*args, **kwargs):
            time.sleep(0.2)  # past the 0.1 s budget
            return query_batch(*args, **kwargs)

        db.query_batch = late_scan
        try:
            with pytest.raises(ServiceTimeout):
                engine.query(1.0, 1.0, deadline=Deadline(0.1))
        finally:
            engine.shutdown(timeout=10)

    @pytest.mark.parametrize("layout", ["plain", "cluster"])
    def test_no_shard_answering_by_the_deadline_is_a_timeout(self, layout):
        """Every shard's write lock is held: a deadline query fails with
        ServiceTimeout instead of an empty partial answer, and no shard
        is benched for a lock it does not control."""
        records = []
        for k in range(4):
            scratch = VideoDatabase()
            add_synth_video(scratch, f"held-{k}", np.random.default_rng(k))
            records.append(scratch.export_video(f"held-{k}"))
        if layout == "plain":
            db = VideoDatabase()
            for record in records:
                db.adopt(record)
        else:
            db = ClusterCoordinator.ephemeral(2)
            for record in records:
                db.adopt(record)
        engine = ServiceEngine(db, n_workers=1, watchdog_interval=0)
        wide = {"alpha": 1e6, "beta": 1e6}  # every shot matches
        try:
            shards = engine.cluster.shards
            for shard in shards:
                shard.lock.acquire_write()
            try:
                for _ in range(4):
                    started = time.perf_counter()
                    with pytest.raises(ServiceTimeout):
                        engine.query(1.0, 1.0, deadline=Deadline(0.1), **wide)
                    assert time.perf_counter() - started < 1.0
            finally:
                for shard in shards:
                    shard.lock.release_write()
            assert not any(shard.down for shard in shards)
            payload, cached = engine.query(1.0, 1.0, deadline=Deadline(5.0), **wide)
            assert not cached
            assert payload["partial"] is False
            assert payload["shards_queried"] == len(shards)
            assert payload["count"] == sum(len(r.index_entries) for r in records)
        finally:
            engine.shutdown(timeout=10)

    def test_default_deadline_applies_without_header(self):
        engine = ServiceEngine(
            n_workers=1, watchdog_interval=0, default_deadline_ms=100
        )
        with _serve(engine) as base_url:
            [shard] = engine.cluster.shards
            shard.lock.acquire_write()
            try:
                status, payload, _ = _request(base_url, "GET", "/videos")
            finally:
                shard.lock.release_write()
            assert status == 503
            assert payload["reason"] == "deadline_exceeded"

    def test_request_within_deadline_succeeds(self):
        engine = ServiceEngine(n_workers=1, watchdog_interval=0)
        with _serve(engine) as base_url:
            status, payload, _ = _request(
                base_url,
                "GET",
                "/query?var_ba=1&var_oa=1",
                headers={"X-Deadline-Ms": "5000"},
            )
            assert status == 200
            assert payload["count"] == 0

    def test_malformed_deadline_header_is_a_400(self):
        engine = ServiceEngine(n_workers=1, watchdog_interval=0)
        with _serve(engine) as base_url:
            status, payload, _ = _request(
                base_url, "GET", "/videos", headers={"X-Deadline-Ms": "soon"}
            )
            assert status == 400
            status, _, _ = _request(
                base_url, "GET", "/videos", headers={"X-Deadline-Ms": "-50"}
            )
            assert status == 400


class TestBodyCap:
    def test_oversized_body_is_a_413(self):
        engine = ServiceEngine(n_workers=1, watchdog_interval=0)
        with _serve(engine, max_body_bytes=256) as base_url:
            big = _spec("big")
            big["padding"] = "x" * 1024
            status, payload, _ = _request(base_url, "POST", "/ingest", big)
            assert status == 413
            assert payload["reason"] == "body_too_large"
            assert payload["max_body_bytes"] == 256

    def test_body_within_cap_is_accepted(self):
        engine = ServiceEngine(n_workers=1, watchdog_interval=0)
        with _serve(engine, max_body_bytes=4096) as base_url:
            status, payload, _ = _request(base_url, "POST", "/ingest", _spec("ok"))
            assert status == 202
            engine.wait_for(payload["job_id"], timeout=60)


class TestReadiness:
    def test_ready_flips_to_503_on_drain(self):
        engine = ServiceEngine(n_workers=1, watchdog_interval=0)
        with _serve(engine) as base_url:
            status, payload, _ = _request(base_url, "GET", "/ready")
            assert status == 200 and payload["ready"]
            engine.begin_drain()
            status, payload, _ = _request(base_url, "GET", "/ready")
            assert status == 503 and not payload["ready"]
            # Liveness stays up while readiness is down.
            status, health, _ = _request(base_url, "GET", "/health")
            assert status == 200
            assert health["status"] == "draining"
            # New ingests are refused as draining, with Retry-After.
            status, payload, headers = _request(
                base_url, "POST", "/ingest", _spec("late")
            )
            assert status == 503
            assert payload["reason"] == "draining"
            assert "Retry-After" in headers
