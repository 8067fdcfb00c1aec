"""The untraced end-to-end run against a ``repro serve`` child.

Phases, in order:

1. set-up: build the seeded corpus once (the benchmark's own input, not
   timed), then persist it through the program and start the server
   until ``/ready``, repeated as ``SETUP_REPEATS`` says; ``setup_s`` is
   the median;
2. correctness: a seeded sample of answers against the in-process
   oracle (:mod:`check`); any mismatch fails the run;
3. a short warm-up on separate request streams, so caches fill;
4. the timed window: two connections in a closed loop for ``seconds``;
   the child's CPU, VmHWM and ``wchar`` are sampled from ``/proc`` at
   its start, every second, and at its end;
5. search workloads only: a write phase after the window, two
   connections ingesting closed-loop, so ingest cost is measured on
   every corpus without writes disturbing the read window.
"""

from __future__ import annotations

import shutil
import statistics
import time
from pathlib import Path
from typing import Any, Callable

from check import check_served
from child import ProcSample, ServerChild
from corpus import (
    CONNECTIONS,
    IngestStream,
    QueryStream,
    Workload,
    build_records,
    memory_database,
    persist,
)
from load import (
    TAILS,
    Client,
    Recorder,
    epochs,
    ingest_loop,
    op_summary,
    query_loop,
    run_closed_loop,
)

#: Set-up runs at least ``min`` times and until ``seconds`` are spent (at
#: most ``max`` times), so a sub-second set-up, whose single readings
#: vary by ~20%, still reports a median of many.
SETUP_REPEATS = {"min": 3, "max": 9, "seconds": 5.0}
WARMUP_S = 1.5
#: Ingests in the write phase of the search workloads (both connections).
WRITE_PHASE_INGESTS = 32
FLUSH_POLICY = "shipped default: every publish writes, fsyncs and swaps the manifest"


def _stream_loops(wl: Workload, seed: int, clients: list[Client], base: int) -> list[Callable]:
    loops: list[Callable] = []
    for k, client in enumerate(clients):
        if k < wl.query_streams:
            stream = QueryStream(seed, base + k, wl.n_videos)
            loops.append(lambda stop, rec, c=client, s=stream: query_loop(c, s, stop, rec))
        else:
            stream = IngestStream(seed, base + k)
            loops.append(lambda stop, rec, c=client, s=stream: ingest_loop(c, s, stop, rec))
    return loops


def _cache_counts(client: Client) -> tuple[int, int]:
    cache = client.json("GET", "/metrics")["query_cache"]
    return cache["hits"], cache["misses"]


def run_end_to_end(
    wl: Workload,
    seed: int,
    seconds: float,
    work: Path,
    src: Path,
    smoke: bool = False,
) -> dict[str, Any]:
    """One full run; returns the run record (metrics included).

    ``smoke`` shortens every phase, for the benchmark's own tests."""
    repeats = {"min": 1, "max": 1, "seconds": 0.0} if smoke else SETUP_REPEATS
    warmup_s = 0.3 if smoke else WARMUP_S
    write_phase_ingests = 4 if smoke else WRITE_PHASE_INGESTS
    setup_s: list[float] = []
    server: ServerChild | None = None
    clients: list[Client] = []
    started = time.perf_counter()
    records = build_records(seed, wl.n_videos)
    corpus_build_s = time.perf_counter() - started
    try:
        for rep in range(repeats["max"]):
            if rep >= repeats["min"] and sum(setup_s) >= repeats["seconds"]:
                break
            if server is not None:
                server.stop()
                shutil.rmtree(server.db_dir)
            db_dir = work / f"db-{rep}"
            started = time.perf_counter()
            oracle = persist(records, db_dir, wl.cluster)
            server = ServerChild(src, db_dir, work / f"server-{rep}.log")
            server.start()
            setup_s.append(time.perf_counter() - started)
        assert server is not None
        clients = [Client(server.port) for _ in range(CONNECTIONS)]
        # The cluster's oracle is one database holding all of its shots.
        if oracle is None:
            oracle = memory_database(records)
        errors = check_served(clients[0], oracle, seed, wl.n_videos)
        del oracle, records

        warm = [Recorder() for _ in clients]
        warm_end = time.perf_counter() + warmup_s
        run_closed_loop(
            _stream_loops(wl, seed, clients, base=100), warm,
            stop=lambda: time.perf_counter() >= warm_end,
        )

        hits0, misses0 = _cache_counts(clients[0])
        samples: list[ProcSample] = [server.sample()]
        recs = [Recorder() for _ in clients]
        t0 = samples[0].at
        deadline = t0 + seconds
        run_closed_loop(
            _stream_loops(wl, seed, clients, base=0), recs,
            stop=lambda: time.perf_counter() >= deadline,
            on_tick=lambda: samples.append(server.sample()),
        )
        samples.append(server.sample())
        hits1, misses1 = _cache_counts(clients[0])
        window = samples[-1].at - t0

        ingest_recs = recs[wl.query_streams :]
        write_recs: list[Recorder] = []
        write_window, write_wchar = window, samples[-1].wchar - samples[0].wchar
        if not ingest_recs:
            before = server.sample()
            write_recs = ingest_recs = [Recorder() for _ in clients]
            run_closed_loop(
                [
                    lambda stop, rec, c=c, s=IngestStream(seed, 200 + k): ingest_loop(
                        c, s, stop, rec
                    )
                    for k, c in enumerate(clients)
                ],
                write_recs,
                stop=lambda: sum(
                    s.op == "ingest" for r in write_recs for s in r.samples
                ) >= write_phase_ingests,
            )
            after = server.sample()
            write_window, write_wchar = after.at - before.at, after.wchar - before.wchar
    finally:
        for client in clients:
            client.close()
        if server is not None:
            server.stop()

    window_samples = [s for rec in recs for s in rec.samples]
    ops = op_summary(window_samples + [s for rec in write_recs for s in rec.samples])
    # An operation is one query-stream request or one whole ingest; the
    # polls an ingest takes are not counted, so a faster server that
    # answers more polls per ingest does not read as more work done.
    completed = sum(s.ok for s in window_samples)
    committed = sum(rec.committed for rec in ingest_recs)
    attempted = sum(rec.attempted for rec in recs + write_recs)
    failed = sum(rec.failed for rec in recs + write_recs)
    cpu_s = samples[-1].cpu_s - samples[0].cpu_s
    lookups = (hits1 - hits0) + (misses1 - misses0)

    def metric(value: float, unit: str) -> dict[str, Any]:
        return {"value": value, "unit": unit}

    # Ingest latency and rate, and the batch tail, are printed and recorded
    # but not gated: on the search workloads ingest is bound by fsyncs of
    # multi-MB publishes on a shared disk and moved by up to 43% between
    # seeds, and the batch tail's spread over ten seeds exceeded 0.25 when
    # the host slowed down.  Ingest cost is gated through bytes written,
    # and on ingest_mixed through the reads that wait on the write lock.
    def p(op: str, q: int) -> dict[str, Any]:
        return metric(ops[op][f"p{q}_ms"], "ms")

    metrics = {
        "query_p50_ms": p("query", 50),
        f"query_p{TAILS['query']}_ms": p("query", TAILS["query"]),
        "batch_p50_ms": p("batch", 50),
        "browse_p50_ms": p("browse", 50),
        f"browse_p{TAILS['browse']}_ms": p("browse", TAILS["browse"]),
        "throughput_ops_s": metric(completed / window, "1/s"),
        "server_cpu_ms_per_op": metric(1e3 * cpu_s / max(completed, 1), "ms"),
        "server_rss_mb": metric(samples[-1].hwm_kb / 1024.0, "MB"),
        "write_kb_per_ingest": metric(write_wchar / 1024.0 / max(committed, 1), "KB"),
        "setup_s": metric(statistics.median(setup_s), "s"),
    }
    return {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "flush_policy": FLUSH_POLICY,
        "correct": not errors,
        "errors": errors[:20],
        "attempted": attempted,
        "failed": failed,
        "info": {
            "failed_ratio": metric(failed / attempted if attempted else 0.0, "ratio"),
            f"batch_p{TAILS['batch']}_ms": p("batch", TAILS["batch"]),
            "ingest_p50_ms": p("ingest", 50),
            f"ingest_p{TAILS['ingest']}_ms": p("ingest", TAILS["ingest"]),
            "ingest_videos_per_s": metric(committed / write_window, "1/s"),
        },
        "request_errors": [e for rec in recs + write_recs for e in rec.errors][:20],
        "setup_s_runs": setup_s,
        "corpus_build_s": corpus_build_s,
        "window_s": window,
        "write_phase": {
            "separate": bool(write_recs),
            "seconds": write_window,
            "ingests_committed": committed,
            "wchar_bytes": write_wchar,
        },
        "shares": {
            "cache_hit_share": (hits1 - hits0) / lookups if lookups else 0.0,
            "cache_lookups": lookups,
            "op_counts": {op: row["count"] for op, row in ops.items()},
            "ingests_committed": committed,
            "job_polls": sum(rec.polls for rec in recs + write_recs),
        },
        "ops": ops,
        "epochs": epochs(window_samples, t0),
        "server_samples": [
            {"t": s.at - t0, "cpu_s": s.cpu_s, "hwm_kb": s.hwm_kb, "wchar": s.wchar}
            for s in samples
        ],
        "metrics": metrics,
    }
