"""Integration tests for the HTTP service: endpoints, concurrency,
cache invalidation under live traffic, and the loadgen round trip."""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.service.engine import ServiceEngine
from repro.service.loadgen import LoadgenConfig, run_loadgen
from repro.service.server import create_server
from repro.testing.synth import add_synth_video
from repro.vdbms.database import VideoDatabase


def _request(base_url, method, path, body=None, timeout=30.0):
    """Returns (status, payload) without raising on 4xx/5xx."""
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(
        base_url + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


def _synthetic_spec(video_id, seed=0, n_shots=3):
    return {
        "source": "synthetic",
        "video_id": video_id,
        "n_shots": n_shots,
        "frames_per_shot": 6,
        "seed": seed,
    }


@pytest.fixture(scope="module")
def service():
    """A live server seeded with one synthetic clip."""
    engine = ServiceEngine(n_workers=2, cache_capacity=128)
    engine.wait_for(engine.submit_spec(_synthetic_spec("seed-clip", seed=9)).job_id, 60)
    server = create_server(engine)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield engine, f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    engine.shutdown()


class TestEndpoints:
    def test_health(self, service):
        _, base_url = service
        status, payload = _request(base_url, "GET", "/health")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["videos"] >= 1
        assert payload["indexed_shots"] >= 3

    def test_catalog_and_shots_and_tree(self, service):
        _, base_url = service
        status, catalog = _request(base_url, "GET", "/videos")
        assert status == 200
        assert any(v["video_id"] == "seed-clip" for v in catalog["videos"])
        status, shots = _request(base_url, "GET", "/videos/seed-clip/shots")
        assert status == 200
        assert shots["count"] == 3
        assert shots["shots"][0]["shot"].startswith("#1@")
        status, tree = _request(base_url, "GET", "/videos/seed-clip/tree")
        assert status == 200
        assert tree["n_shots"] == 3 and tree["height"] >= 1

    def test_query_get_and_post_agree(self, service):
        _, base_url = service
        status, via_post = _request(
            base_url, "POST", "/query",
            {"var_ba": 0.0, "var_oa": 0.0, "alpha": 1e6, "beta": 1e6},
        )
        assert status == 200
        status, via_get = _request(
            base_url, "GET", "/query?var_ba=0&var_oa=0&alpha=1e6&beta=1e6"
        )
        assert status == 200
        assert via_get["matches"] == via_post["matches"]
        assert via_post["count"] == len(via_post["matches"])

    def test_unknown_video_is_404(self, service):
        _, base_url = service
        for leaf in ("shots", "tree"):
            status, payload = _request(base_url, "GET", f"/videos/nope/{leaf}")
            assert status == 404
            assert "nope" in payload["error"]

    def test_unknown_route_is_404(self, service):
        _, base_url = service
        status, _ = _request(base_url, "GET", "/frobnicate")
        assert status == 404

    def test_bad_query_is_400(self, service):
        _, base_url = service
        status, payload = _request(base_url, "POST", "/query", {"var_ba": 1.0})
        assert status == 400 and "var_oa" in payload["error"]
        status, _ = _request(base_url, "GET", "/query?var_ba=x&var_oa=1")
        assert status == 400
        status, _ = _request(base_url, "POST", "/query", {"var_ba": -1, "var_oa": 0})
        assert status == 400  # QueryError from the model layer

    def test_bad_ingest_is_400_and_unknown_job_404(self, service):
        _, base_url = service
        status, _ = _request(base_url, "POST", "/ingest", {"source": "webcam"})
        assert status == 400
        status, _ = _request(base_url, "GET", "/jobs/job-12345")
        assert status == 404

    def test_metrics_structure(self, service):
        _, base_url = service
        _request(base_url, "GET", "/health")
        status, metrics = _request(base_url, "GET", "/metrics")
        assert status == 200
        health = metrics["requests"]["GET /health"]
        assert health["count"] >= 1
        assert health["latency"]["count"] == health["count"]
        assert health["latency"]["p50_ms"] <= health["latency"]["p99_ms"]
        assert set(metrics["query_cache"]) >= {"hits", "misses", "hit_rate"}


@pytest.fixture
def lone_shard_service():
    """A fresh server over one plain database: its only shard, benched,
    would leave every later query partial."""
    db = VideoDatabase()
    add_synth_video(db, "only", np.random.default_rng(2))
    engine = ServiceEngine(db, n_workers=1, watchdog_interval=0)
    server = create_server(engine)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield engine, f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    engine.shutdown()


class TestMalformedQueryInput:
    """Malformed input is the client's error (400) and never reaches a
    shard, so it cannot count toward benching one."""

    @pytest.mark.parametrize(
        "params",
        ["var_ba=nan&var_oa=1", "var_ba=1&var_oa=nan", "var_ba=1&var_oa=1&alpha=nan"],
    )
    def test_nan_is_a_400_and_benches_no_shard(self, lone_shard_service, params):
        engine, base_url = lone_shard_service
        for _ in range(engine.supervisor.threshold):
            status, payload = _request(base_url, "GET", f"/query?{params}")
            assert status == 400, payload
        status, payload = _request(
            base_url, "GET", "/query?var_ba=1&var_oa=1&alpha=50&beta=50"
        )
        assert status == 200
        assert payload["partial"] is False and payload["shards_failed"] == []
        assert payload["count"] > 0
        assert engine.supervisor.trips == 0
        assert not any(shard.down for shard in engine.cluster.shards)

    @pytest.mark.parametrize("limit", [-1, 0])
    def test_limit_below_one_is_a_400(self, lone_shard_service, limit):
        _, base_url = lone_shard_service
        status, payload = _request(
            base_url, "GET", f"/query?var_ba=1&var_oa=1&limit={limit}"
        )
        assert status == 400
        assert "limit must be a positive integer" in payload["error"]
        status, _ = _request(
            base_url, "POST", "/query", {"var_ba": 1, "var_oa": 1, "limit": limit}
        )
        assert status == 400
        status, _ = _request(
            base_url,
            "POST",
            "/query/batch",
            {"queries": [{"var_ba": 1, "var_oa": 1}], "limit": limit},
        )
        assert status == 400


class TestMalformedBatch:
    """``POST /query/batch`` and ``repro query --batch-file`` parse a
    batch with one function, so each malformed batch gets one message."""

    @pytest.mark.parametrize(
        "queries",
        [
            None,
            [],
            "x",
            [1.0],
            [{"var_ba": 1.0}],
            [{"var_ba": 1.0, "var_oa": 1.0}, {"var_ba": "x", "var_oa": 1.0}],
            [{"var_ba": None, "var_oa": 1.0}],
        ],
    )
    def test_same_message_from_cli_and_http(
        self, lone_shard_service, tmp_path, capsys, queries
    ):
        from repro.cli import main

        _, base_url = lone_shard_service
        status, payload = _request(
            base_url, "POST", "/query/batch", {"queries": queries}
        )
        assert status == 400
        db = VideoDatabase()
        add_synth_video(db, "only", np.random.default_rng(2))
        db.save(tmp_path / "db")
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps({"queries": queries}))
        args = ["query", "--db", str(tmp_path / "db"), "--batch-file", str(batch)]
        assert main(args) == 2
        assert capsys.readouterr().err.strip() == f"error: {payload['error']}"


class TestConcurrentIngestAndQuery:
    def test_queries_stay_consistent_while_ingest_commits(self, service):
        """Readers under live ingest see either the old or the new corpus,
        never a torn in-between, and the cache refreshes post-ingest."""
        engine, base_url = service
        query = {"var_ba": 0.0, "var_oa": 0.0, "alpha": 1e9, "beta": 1e9}
        status, before = _request(base_url, "POST", "/query", query)
        assert status == 200
        base_count = before["count"]
        new_shots = 4

        results = []
        errors = []
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                try:
                    status, payload = _request(base_url, "POST", "/query", query)
                except Exception as exc:  # noqa: BLE001 - collected for assert
                    errors.append(repr(exc))
                    return
                if status != 200:
                    errors.append(f"status {status}: {payload}")
                    return
                results.append(payload)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        status, submitted = _request(
            base_url, "POST", "/ingest",
            _synthetic_spec("concurrent-clip", seed=11, n_shots=new_shots),
        )
        assert status == 202
        job_id = submitted["job_id"]
        deadline_payload = None
        for _ in range(600):
            _, deadline_payload = _request(base_url, "GET", f"/jobs/{job_id}")
            if deadline_payload["status"] in ("done", "failed"):
                break
            threading.Event().wait(0.02)
        stop.set()
        for t in threads:
            t.join(timeout=30)
        assert deadline_payload["status"] == "done", deadline_payload

        assert not errors, errors
        assert results
        observed_counts = {payload["count"] for payload in results}
        # Atomic publish: only the pre- and post-ingest corpus sizes are
        # ever observable, never a partially-registered video.
        assert observed_counts <= {base_count, base_count + new_shots}
        for payload in results:
            assert payload["count"] == len(payload["matches"]) == len(payload["routes"])

        # The cache was invalidated by the commit: the same query now
        # reports the new shots (served fresh, then cached again).
        status, after = _request(base_url, "POST", "/query", query)
        assert status == 200
        assert after["count"] == base_count + new_shots
        assert any(
            match["video_id"] == "concurrent-clip" for match in after["matches"]
        )
        assert engine.cache.stats()["invalidations"] >= 1


class TestLoadgenRoundTrip:
    def test_mixed_workload_zero_failures(self, service):
        _, base_url = service
        report = run_loadgen(
            LoadgenConfig(
                base_url=base_url,
                n_requests=80,
                workers=3,
                ingests=1,
                query_pool=6,
                seed=21,
            )
        )
        assert report["failed_requests"] == 0
        assert report["ingest_failures"] == []
        assert report["total_requests"] >= 80
        assert report["throughput_rps"] > 0
        ops = report["operations"]
        assert {"query", "catalog", "ingest_submit", "job_poll"} <= set(ops)
        for stats in ops.values():
            assert stats["p50_ms"] <= stats["p90_ms"] <= stats["p99_ms"] <= stats["max_ms"]
        cache = report["server_metrics"]["query_cache"]
        assert cache["hits"] > 0  # the pooled query points repeated
        assert report["server_metrics"]["requests"]["POST /query"]["count"] > 0
