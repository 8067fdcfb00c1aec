"""The traced in-process run: per-layer timing from the outside in.

The workload's generated inputs are fed through each layer's public
calls in one process.  Spans are recorded by the benchmark, never by the
program: every timed call is wrapped, and the calls a layer makes into
the layer below are wrapped too (by swapping the bound method or module
function for a timing wrapper while the section runs), so each span
knows its parent.  Spans stay in memory and are written out at the end.

A span name belongs to one section: the calls a section wraps below its
own boundary carry that section's prefix (``vdbms.index_search``,
``service.db_query``, ``http.engine_query``), so no metric pools calls
made on different inputs or in different sections.

From the spans the run reports, per span name, p50 and p99, the
marginal (self) cost over the wrapped layer below, and the share of
each parent boundary that its children do not account for.

Every section runs until its share of ``--seconds`` is spent (and at
least a minimum number of calls), except that the engine replays the
workload's query stream exactly once, so its cache hit ratio is the
workload's.  The sections and their layers:

* ``index``   ``ColumnarVarianceIndex.search`` / ``search_batch`` / ``range_scan``
* ``vdbms``   ``VideoDatabase.open`` / ``query`` / ``query_batch``
* ``cluster`` ``ClusterCoordinator.query`` / ``query_batch`` (in memory,
  4 shards x 2 copies of the same corpus)
* ``service`` ``ServiceEngine.query`` (the workload's Pareto stream) and
  ``tree_payload`` / ``shots_payload``
* ``ingest``  ``clip_from_spec``, ``CameraTrackingDetector.detect``,
  ``SceneTreeBuilder.build_from_detection``,
  ``IndexTable.add_detection_result``, ``VideoDatabase.ingest`` and
  ``adopt`` on the durable database, ``ServiceEngine.submit_spec`` to
  ``wait_for``
* ``http``    ``POST /query`` over one keep-alive connection to an
  in-process ``create_server``
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

import repro.vdbms.database as vdbms_database
from check import oracle_key, served_key
from corpus import (
    BATCH_SIZE,
    CLUSTER_REPLICATION,
    CLUSTER_SHARDS,
    LIMIT,
    IngestStream,
    QueryStream,
    Workload,
    build_records,
    fresh_points,
    memory_database,
)
from load import Client
from repro.cluster import ClusterCoordinator
from repro.index.query import VarianceQuery
from repro.index.table import IndexTable
from repro.sbd.detector import CameraTrackingDetector
from repro.scenetree.builder import SceneTreeBuilder
from repro.service.engine import ServiceEngine, clip_from_spec
from repro.scenetree.nodes import SceneTree
from repro.service.server import create_server
from repro.vdbms.database import VideoDatabase, VideoRecord

#: Share of ``--seconds`` each section may spend, and its minimum calls.
BUDGET = {"index": 0.1, "vdbms": 0.15, "cluster": 0.15, "service": 0.1,
          "ingest": 0.3, "http": 0.2}
MIN_CALLS = 3
OPEN_REPEATS = 3
BAND_SAMPLE = 8
CHECK_SAMPLE = 16


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder with per-thread parent stacks.

    A span opened with ``ambient=True`` also parents spans that start on
    threads with no open span of their own (server handler threads,
    scatter-gather pool threads, ingest workers), which is exact here
    because the traced run has one call in flight at a time.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._ambient: int | None = None

    @contextmanager
    def span(self, name: str, ambient: bool = False) -> Iterator[int]:
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else self._ambient
        span_id = next(self._ids)
        stack.append(span_id)
        if ambient:
            self._ambient = span_id
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            if ambient:
                self._ambient = None
            self.spans.append(Span(span_id, parent, name, start, end))

    def wrap(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def around(self, *targets: tuple[Any, str, str]) -> Iterator[None]:
        """Wrap ``getattr(obj, attr)`` as span ``name`` for each
        ``(obj, attr, name)`` while the block runs, then restore it."""
        saved = []
        for obj, attr, name in targets:
            own = attr in vars(obj)
            saved.append((obj, attr, own, vars(obj).get(attr)))
            setattr(obj, attr, self.wrap(getattr(obj, attr), name))
        try:
            yield
        finally:
            for obj, attr, own, old in reversed(saved):
                if own:
                    setattr(obj, attr, old)
                else:
                    delattr(obj, attr)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per name: count, p50/p99 (us), median self time (us), and, for
        spans with children, the unaccounted share: self time over
        duration, summed over the spans.  Self time is the duration minus
        the union of the children's intervals, so children running in
        parallel (scatter-gather) are not counted twice."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)

        def self_time(span: Span) -> float:
            covered, reach = 0.0, span.start
            for child in sorted(children.get(span.span_id, ()), key=lambda c: c.start):
                lo, hi = max(child.start, reach), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            return span.duration - covered

        out: dict[str, dict[str, float]] = {}
        for name in dict.fromkeys(s.name for s in self.spans):
            spans = [s for s in self.spans if s.name == name]
            dur = np.array([s.duration for s in spans])
            own = np.array([self_time(s) for s in spans])
            row = {
                "count": len(spans),
                "p50_us": float(np.percentile(dur, 50) * 1e6),
                "p99_us": float(np.percentile(dur, 99) * 1e6),
                "self_p50_us": float(np.percentile(own, 50) * 1e6),
            }
            parents = [k for k, s in enumerate(spans) if s.span_id in children]
            if parents:
                row["unaccounted_share"] = float(own[parents].sum() / dur[parents].sum())
            out[name] = row
        return out


def _cycle(budget_s: float, items: list[Any], call: Callable[[Any], None]) -> int:
    """Call ``call`` on ``items`` in turn until the budget is spent and at
    least ``MIN_CALLS`` calls were made; returns the number of calls."""
    deadline = time.perf_counter() + budget_s
    calls = 0
    for item in itertools.cycle(items):
        if calls >= MIN_CALLS and time.perf_counter() >= deadline:
            break
        call(item)
        calls += 1
    return calls


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _wchar() -> int:
    for line in Path("/proc/self/io").read_text().splitlines():
        if line.startswith("wchar:"):
            return int(line.split()[1])
    return 0


def _stream_inputs(seed: int, n_videos: int, n: int = 600) -> dict[str, list]:
    """The workload's query/batch/browse inputs (connection 0's stream)."""
    stream = QueryStream(seed, 0, n_videos)
    points, batches, browse = [], [], []
    while len(points) < n:
        req = stream.next()
        if req.op == "query":
            points.append((req.body["var_ba"], req.body["var_oa"]))
        elif req.op == "batch":
            batches.append([(q["var_ba"], q["var_oa"]) for q in req.body["queries"]])
        else:
            browse.append((req.op, req.path.split("/")[2]))
    return {"points": points, "batches": batches, "browse": browse}


def _publish_records(seed: int) -> Iterator[VideoRecord]:
    """Endless pre-derived records with fresh ids, for ``adopt``."""
    templates = build_records(seed, 8, prefix="publish")
    for k in itertools.count():
        record = templates[k % len(templates)]
        video_id = f"publish-{k:05d}"
        yield VideoRecord(
            entry=replace(record.entry, video_id=video_id),
            tree=SceneTree(record.tree.root, record.tree.leaves, clip_name=video_id),
            index_entries=tuple(replace(e, video_id=video_id) for e in record.index_entries),
        )


def run_traced(
    wl: Workload, seed: int, seconds: float, work: Path, smoke: bool = False
) -> dict[str, Any]:
    """One traced run; returns the run record (per-layer metrics included)."""
    tr = Tracer()
    budget = {name: share * seconds for name, share in BUDGET.items()}
    records = build_records(seed, wl.n_videos)
    inputs = _stream_inputs(seed, wl.n_videos, n=60 if smoke else 600)
    points, batches, browse = inputs["points"], inputs["batches"], inputs["browse"]
    rng = np.random.default_rng([seed, 7])
    errors: list[str] = []
    calls = 0

    # -- vdbms.open: the durable database every later section uses ----
    root = work / "db"
    memory_database(records).save(root)
    for _ in range(OPEN_REPEATS):
        with tr.span("vdbms.open"):
            db = VideoDatabase.open(root)

    # -- index -------------------------------------------------------
    index = db.index
    alpha = db.config.query.alpha
    # The Eq. 7 band materializes ~10k entries per point at 100k shots,
    # so it is scanned on a fixed sample, apart from the timed searches.
    band_rows = returned = 0
    for point in points[:BAND_SAMPLE]:
        q = VarianceQuery(*point)
        with tr.span("index.range_scan"):
            band_rows += len(index.range_scan(q.d_v - alpha, q.d_v + alpha))
        returned += len(index.search(q, limit=LIMIT))

    def index_call(point: tuple[float, float]) -> None:
        with tr.span("index.search"):
            index.search(VarianceQuery(*point), limit=LIMIT)

    def index_batch(batch: list[tuple[float, float]]) -> None:
        qs = [VarianceQuery(*p) for p in batch]
        with tr.span("index.search_batch"):
            index.search_batch(qs, limit=LIMIT)
        with tr.span("index.search_x64"):
            for q in qs:
                index.search(q, limit=LIMIT)

    calls += _cycle(budget["index"] * 0.6, points, index_call)
    calls += _cycle(budget["index"] * 0.4, batches, index_batch)

    # -- vdbms -------------------------------------------------------
    def vdbms_call(point: tuple[float, float]) -> None:
        with tr.span("vdbms.query"):
            db.query(*point, limit=LIMIT)
        with tr.span("vdbms.query_no_routes"):
            db.query(*point, limit=LIMIT, with_routes=False)

    def vdbms_batch(batch: list[tuple[float, float]]) -> None:
        with tr.span("vdbms.query_batch"):
            db.query_batch(batch, limit=LIMIT)

    with tr.around(
        (index, "search", "vdbms.index_search"),
        (index, "search_batch", "vdbms.index_search_batch"),
        (vdbms_database, "route_to_scene_nodes", "vdbms.routes"),
    ):
        calls += _cycle(budget["vdbms"] * 0.7, points, vdbms_call)
        calls += _cycle(budget["vdbms"] * 0.3, batches, vdbms_batch)

    # -- cluster: the same corpus on 4 shards x 2 copies, in memory --
    cluster = ClusterCoordinator.ephemeral(CLUSTER_SHARDS, replication=CLUSTER_REPLICATION)
    try:
        for record in records:
            cluster.adopt(record)
        for point in points[:CHECK_SAMPLE]:
            got = cluster.query(*point, limit=LIMIT)
            if oracle_key(got) != oracle_key(db.query(*point, limit=LIMIT)) or got.partial:
                errors.append(f"cluster answer for {point} differs from one database")
        partial = total = 0

        def cluster_call(point: tuple[float, float]) -> None:
            nonlocal partial, total
            with tr.span("cluster.query", ambient=True):
                answer = cluster.query(*point, limit=LIMIT)
            partial += answer.partial
            total += 1

        def cluster_batch(batch: list[tuple[float, float]]) -> None:
            nonlocal partial, total
            with tr.span("cluster.query_batch", ambient=True):
                answers = cluster.query_batch(batch, limit=LIMIT)
            partial += sum(a.partial for a in answers)
            total += len(answers)

        shard_dbs = [(shard.db, "query", "cluster.shard_query") for shard in cluster.shards]
        shard_dbs += [
            (shard.db, "query_batch", "cluster.shard_query_batch") for shard in cluster.shards
        ]
        with tr.around(*shard_dbs):
            calls += _cycle(budget["cluster"] * 0.7, points, cluster_call)
            calls += _cycle(budget["cluster"] * 0.3, batches, cluster_batch)
    finally:
        cluster.close()
    del records

    # -- service: the Pareto stream through a fresh engine -----------
    engine = ServiceEngine(db)
    try:
        hit_flags: list[bool] = []
        engine_spans: list[Span] = []

        def engine_call(point: tuple[float, float]) -> None:
            with tr.span("service.engine.query"):
                _payload, cached = engine.query(*point, limit=LIMIT)
            hit_flags.append(cached)
            engine_spans.append(tr.spans[-1])

        def browse_call(item: tuple[str, str]) -> None:
            view, video_id = item
            with tr.span("service.browse"):
                if view == "tree":
                    engine.tree_payload(video_id)
                else:
                    engine.shots_payload(video_id)

        for point in points[:CHECK_SAMPLE]:
            payload, _ = engine.query(*point, limit=LIMIT)
            if served_key(payload) != oracle_key(db.query(*point, limit=LIMIT)):
                errors.append(f"engine answer for {point} differs from the database")
        engine.cache.invalidate()
        with tr.around(
            (engine.cache, "get", "service.cache_get"),
            (db, "query", "service.db_query"),
            (index, "search", "service.index_search"),
            (vdbms_database, "route_to_scene_nodes", "service.routes"),
        ):
            # One pass of the stream, so the hit ratio is the workload's.
            for point in points:
                engine_call(point)
        calls += len(points) + _cycle(budget["service"], browse, browse_call)
        miss_us = [s.duration * 1e6 for s, hit in zip(engine_spans, hit_flags) if not hit]
        hit_us = [s.duration * 1e6 for s, hit in zip(engine_spans, hit_flags) if hit]

        # -- ingest: the pipeline, the durable publish, the engine ----
        specs = IngestStream(seed, 0)
        detector = CameraTrackingDetector(
            config=db.config.sbd,
            region_config=db.config.region,
            extraction=db.config.extraction,
        )
        detector.detect(clip_from_spec(specs.next())[0])  # warm the extractor caches
        write_kb: list[float] = []
        publish = _publish_records(seed)

        def pipeline_call(_: Any) -> None:
            with tr.span("service.clip"):
                clip, _category = clip_from_spec(specs.next())
            with tr.span("sbd.detect"):
                detection = detector.detect(clip)
            with tr.span("scenetree.build"):
                SceneTreeBuilder(config=db.config.scene_tree).build_from_detection(detection)
            with tr.span("index.table"):
                IndexTable().add_detection_result(detection, video_id=clip.name)
            with tr.around(
                (CameraTrackingDetector, "detect", "sbd.detect"),
                (SceneTreeBuilder, "build_from_detection", "scenetree.build"),
                (IndexTable, "add_detection_result", "index.table"),
            ):
                with tr.span("vdbms.ingest"):
                    db.ingest(clip_from_spec(specs.next())[0])

        def publish_call(_: Any) -> None:
            record = next(publish)
            before = _wchar()
            with tr.span("vdbms.publish"):
                db.adopt(record)
            write_kb.append((_wchar() - before) / 1024.0)

        def engine_ingest(_: Any) -> None:
            with tr.span("service.ingest", ambient=True):
                job = engine.submit_spec(specs.next())
                engine.wait_for(job.job_id, timeout=60)
            if job.status.value != "done":
                errors.append(f"engine ingest {job.job_id} ended {job.status.value}")

        calls += _cycle(budget["ingest"] * 0.4, [None], pipeline_call)
        calls += _cycle(budget["ingest"] * 0.3, [None], publish_call)
        with tr.around((db, "ingest", "service.db_ingest")):
            calls += _cycle(budget["ingest"] * 0.3, [None], engine_ingest)

        # -- http: keep-alive POST /query on fresh (cache-miss) points --
        server = create_server(engine)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = Client(server.server_address[1])
        try:
            def http_call(point: tuple[float, float]) -> None:
                body = {"var_ba": point[0], "var_oa": point[1], "limit": LIMIT}
                with tr.span("http.query", ambient=True):
                    status, _payload, _ = client.request("POST", "/query", body)
                if status != 200:
                    errors.append(f"POST /query answered {status}")

            with tr.around(
                (engine, "query", "http.engine_query"),
                (db, "query", "http.db_query"),
                (index, "search", "http.index_search"),
            ):
                calls += _cycle(budget["http"], fresh_points(rng, 200), http_call)
        finally:
            client.close()
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
    finally:
        engine.shutdown()

    summary = tr.summary()

    def p50(name: str) -> float:
        return summary[name]["p50_us"] if name in summary else 0.0

    def share(name: str) -> float:
        return summary.get(name, {}).get("unaccounted_share", 0.0)

    vdbms_query_us = p50("vdbms.query")
    engine_miss_us = _median(miss_us)

    def metric(value: float, unit: str) -> dict[str, Any]:
        return {"value": value, "unit": unit}

    metrics = {
        "index.search_us": metric(p50("index.search"), "us"),
        "index.search_batch_us_per_query": metric(p50("index.search_batch") / BATCH_SIZE, "us"),
        "index.batch_vs_single_ratio": metric(
            p50("index.search_batch") / p50("index.search_x64"), "ratio"
        ),
        "index.band_rows_per_result": metric(band_rows / max(returned, 1), "rows"),
        "vdbms.query_us": metric(vdbms_query_us, "us"),
        "vdbms.routes_us": metric(vdbms_query_us - p50("vdbms.query_no_routes"), "us"),
        "vdbms.query_batch_us_per_query": metric(p50("vdbms.query_batch") / BATCH_SIZE, "us"),
        "vdbms.open_s": metric(p50("vdbms.open") / 1e6, "s"),
        "vdbms.ingest_ms": metric(p50("vdbms.ingest") / 1e3, "ms"),
        "vdbms.publish_ms": metric(p50("vdbms.publish") / 1e3, "ms"),
        "vdbms.publish_write_kb": metric(_median(write_kb), "KB"),
        "service.clip_ms": metric(p50("service.clip") / 1e3, "ms"),
        "sbd.detect_ms": metric(p50("sbd.detect") / 1e3, "ms"),
        "scenetree.build_ms": metric(p50("scenetree.build") / 1e3, "ms"),
        "index.table_ms": metric(p50("index.table") / 1e3, "ms"),
        "cluster.query_us": metric(p50("cluster.query"), "us"),
        "cluster.query_batch_us_per_query": metric(p50("cluster.query_batch") / BATCH_SIZE, "us"),
        "cluster.overhead_us": metric(p50("cluster.query") - vdbms_query_us, "us"),
        "cluster.partial_ratio": metric(partial / max(total, 1), "ratio"),
        "service.engine_miss_us": metric(engine_miss_us, "us"),
        "service.engine_hit_us": metric(_median(hit_us), "us"),
        "service.cache_hit_ratio": metric(sum(hit_flags) / len(hit_flags), "ratio"),
        "service.browse_us": metric(p50("service.browse"), "us"),
        "service.ingest_ms": metric(
            (p50("service.ingest") - p50("service.db_ingest")) / 1e3, "ms"
        ),
        "service.http_ms": metric((p50("http.query") - p50("http.engine_query")) / 1e3, "ms"),
        "http.query_unaccounted_share": metric(share("http.query"), "ratio"),
        "service.engine_unaccounted_share": metric(share("service.engine.query"), "ratio"),
        "vdbms.query_unaccounted_share": metric(share("vdbms.query"), "ratio"),
        "vdbms.ingest_unaccounted_share": metric(share("vdbms.ingest"), "ratio"),
        "cluster.query_unaccounted_share": metric(share("cluster.query"), "ratio"),
    }
    return {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "correct": not errors,
        "errors": errors[:20],
        "attempted": calls,
        "failed": len(errors),
        "layers": summary,
        "spans": [[s.span_id, s.parent, s.name, s.start, s.end] for s in tr.spans],
        "metrics": metrics,
    }
