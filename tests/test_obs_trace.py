"""Unit and concurrency tests for the tracing layer itself.

Covers the span/context mechanics (nesting, idempotent end, forced
settlement of stragglers), the bounded collector under an 8-thread
recording storm (no lost or torn records, memory stays bounded), and
the HTTP surface under concurrent load (distinct trace ids per
request, ``/debug/traces`` stays well-formed JSON).
"""

from __future__ import annotations

import json
import threading
import urllib.request

import pytest

from repro.obs import (
    MAX_TRACE_ID_LEN,
    NOOP_SPAN,
    TraceCollector,
    TraceContext,
    current_trace,
    iter_spans,
    span,
    tracing,
    unsettled_spans,
)
from repro.service.engine import ServiceEngine
from repro.service.server import create_server
from repro.testing.synth import synth_database

pytestmark = pytest.mark.obs


class TestTraceContext:
    def test_nested_spans_build_a_tree(self):
        ctx = TraceContext(trace_id="t-1", name="root")
        with tracing(ctx):
            with span("outer", flavor="a"):
                with span("inner"):
                    pass
            with span("sibling"):
                pass
        doc = ctx.finish()
        names = [(depth, node["name"]) for depth, node in iter_spans(doc)]
        assert names == [
            (0, "root"),
            (1, "outer"),
            (2, "inner"),
            (1, "sibling"),
        ]
        assert doc["trace_id"] == "t-1"
        assert doc["n_spans"] == 4
        assert unsettled_spans(doc) == []

    def test_span_outside_a_trace_is_the_noop(self):
        assert current_trace() is None
        with span("anything", key="value") as s:
            assert s is NOOP_SPAN
            s.annotate(more=1)  # must not raise

    def test_end_is_idempotent(self):
        ctx = TraceContext()
        s = ctx.begin("once")
        s.end()
        first = s.duration_ms
        s.end()
        assert s.duration_ms == first

    def test_finish_settles_stragglers(self):
        ctx = TraceContext()
        ctx.begin("left-open")
        doc = ctx.finish()
        assert unsettled_spans(doc) == ["left-open"]
        # finish() is idempotent: same doc again.
        assert ctx.finish() is doc

    def test_trace_id_is_sanitized(self):
        assert TraceContext(trace_id="  padded  ").trace_id == "padded"
        long = "x" * (MAX_TRACE_ID_LEN + 50)
        assert len(TraceContext(trace_id=long).trace_id) == MAX_TRACE_ID_LEN
        generated = TraceContext(trace_id="   ").trace_id
        assert generated  # blank ids fall back to a generated one


def _make_doc(k: int) -> dict:
    ctx = TraceContext(trace_id=f"doc-{k}", name="request")
    with tracing(ctx):
        with span("stage", k=k):
            pass
    return ctx.finish()


class TestTraceCollector:
    def test_validation(self):
        with pytest.raises(ValueError):
            TraceCollector(capacity=0)
        with pytest.raises(ValueError):
            TraceCollector(slow_ms=-1.0)
        with pytest.raises(ValueError):
            TraceCollector(slow_capacity=0)

    def test_slow_ring_and_find(self):
        collector = TraceCollector(capacity=4, slow_ms=0.0, slow_capacity=2)
        docs = [_make_doc(k) for k in range(6)]
        slow_flags = [collector.record(d) for d in docs]
        assert all(slow_flags)  # threshold 0ms: everything is slow
        stats = collector.stats()
        assert stats["recorded"] == 6
        assert stats["retained"] == 4
        assert stats["evicted"] == 2
        assert stats["slow_seen"] == 6
        assert stats["slow_retained"] == 2
        assert collector.find("doc-5")["trace_id"] == "doc-5"
        assert collector.find("doc-0") is None  # evicted
        assert [d["trace_id"] for d in collector.slow_snapshot()] == [
            "doc-4",
            "doc-5",
        ]

    def test_concurrent_recording_loses_nothing_and_stays_bounded(self):
        """8 threads x 200 traces: every record counted, none torn."""
        collector = TraceCollector(capacity=64)
        n_threads, per_thread = 8, 200

        def pump(tid: int) -> None:
            for k in range(per_thread):
                ctx = TraceContext(trace_id=f"t{tid}-{k}", name="request")
                with tracing(ctx):
                    with span("stage", tid=tid, k=k):
                        pass
                collector.record(ctx.finish())

        threads = [
            threading.Thread(target=pump, args=(tid,)) for tid in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        stats = collector.stats()
        assert stats["recorded"] == n_threads * per_thread
        assert stats["retained"] == 64  # bounded: ring capacity, not 1600
        assert stats["evicted"] == n_threads * per_thread - 64
        # No torn records: every retained doc is complete and settled.
        snapshot = collector.snapshot()
        assert len(snapshot) == 64
        for doc in snapshot:
            assert doc["trace_id"].startswith("t")
            assert doc["duration_ms"] >= 0.0
            assert doc["n_spans"] == sum(1 for _ in iter_spans(doc))
            assert unsettled_spans(doc) == []


@pytest.fixture(scope="module")
def traced_service():
    engine = ServiceEngine(
        synth_database(3, n_videos=2),
        n_workers=1,
        watchdog_interval=0,
        trace_capacity=256,
    )
    server = create_server(engine)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield engine, f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    engine.shutdown()


def _get(url: str, headers: dict | None = None) -> tuple[int, dict]:
    request = urllib.request.Request(url, headers=headers or {})
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


class TestHTTPTracing:
    def test_concurrent_requests_get_distinct_trace_ids(self, traced_service):
        engine, base = traced_service
        n_threads, per_thread = 8, 10
        echoed: list[list[str]] = [[] for _ in range(n_threads)]
        errors: list[Exception] = []

        def pump(tid: int) -> None:
            try:
                for k in range(per_thread):
                    trace_id = f"http-{tid}-{k}"
                    status, payload = _get(
                        f"{base}/query?var_ba={50 + tid}&var_oa={20 + k}&limit=3",
                        headers={"X-Trace-Id": trace_id},
                    )
                    assert status == 200
                    echoed[tid].append(payload["trace_id"])
                    # Interleave debug reads with the query load.
                    status, debug = _get(f"{base}/debug/traces")
                    assert status == 200
                    assert debug["enabled"] is True
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=pump, args=(tid,)) for tid in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors[0]

        # Every response echoed exactly the id its client sent.
        for tid in range(n_threads):
            assert echoed[tid] == [f"http-{tid}-{k}" for k in range(per_thread)]

        # The debug endpoint retains them, well-formed and settled.
        status, debug = _get(f"{base}/debug/traces")
        assert status == 200
        retained = {doc["trace_id"] for doc in debug["traces"]}
        assert len(debug["traces"]) == len(retained)  # no duplicates
        assert any(t.startswith("http-") for t in retained)
        for doc in debug["traces"]:
            assert doc["n_spans"] >= 1
            assert doc["root"]["name"] == "request"
            assert unsettled_spans(doc) == []

    def test_untraced_routes_and_unheadered_requests(self, traced_service):
        engine, base = traced_service
        before = engine.traces.stats()["recorded"]
        status, payload = _get(f"{base}/health")
        assert status == 200 and "trace_id" not in payload
        status, payload = _get(f"{base}/metrics")
        assert status == 200
        assert "tracing" in payload and "stages" in payload
        # Observability routes don't trace themselves.
        assert engine.traces.stats()["recorded"] == before
        # A query without the header is traced but not echoed.
        status, payload = _get(f"{base}/query?var_ba=80&var_oa=30&limit=2")
        assert status == 200 and "trace_id" not in payload
        assert engine.traces.stats()["recorded"] == before + 1


class TestBatchSpans:
    def test_a_batch_is_one_index_span_per_shard(self):
        """A traced cluster batch records one ``index.search_batch`` span
        per shard, the queries' counts summed, and no per-query
        ``index.search``; a batch of one keeps its ``index.search``."""
        from repro.cluster import ClusterCoordinator
        from repro.config import QueryConfig

        cluster = ClusterCoordinator.ephemeral(4, replication=2)
        source = synth_database(3, n_videos=8)
        for video_id in source.catalog.ids():
            cluster.adopt(source.export_video(video_id))
        points = [(20.0 * k, 390.0 - 20.0 * k) for k in range(16)]
        config = QueryConfig(alpha=30.0, beta=30.0)

        ctx = TraceContext(name="batch")
        with tracing(ctx):
            cluster.query_batch(points, limit=5, config=config)
        spans = [node for _, node in iter_spans(ctx.finish())]
        names = [node["name"] for node in spans]
        assert names.count("index.search_batch") == 4
        assert "index.search" not in names
        batch_spans = [node for node in spans if node["name"] == "index.search_batch"]
        shard_spans = [node for node in spans if node["name"] == "shard.query_batch"]
        for ann in (node["annotations"] for node in batch_spans):
            assert ann["n_queries"] == 16
            assert ann["band_rows"] == ann["candidates"] + ann["pruned"] > 0
        assert sorted(node["annotations"]["returned"] for node in batch_spans) == sorted(
            node["annotations"]["matches"] for node in shard_spans
        )

        ctx = TraceContext(name="single")
        with tracing(ctx):
            cluster.query(*points[3], limit=5, config=config)
        names = [node["name"] for _, node in iter_spans(ctx.finish())]
        assert names.count("index.search") == 4
        assert "index.search_batch" not in names
