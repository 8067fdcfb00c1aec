"""Closed-loop load over persistent HTTP/1.1 connections.

Each connection is one ``http.client.HTTPConnection`` kept alive for the
whole run and driven by one thread: it sends its next request only
after the previous response body has been read.  Latency is timed from
the send to the last body byte, exactly as the server delivers it; the
client sets no socket options and never opens a connection per request.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from corpus import IngestStream, QueryStream

#: Tail percentile reported per operation, fixed so that runs compare
#: like with like; perfbench/README.md lists how many samples each keeps
#: beyond it at the stalled baseline.
TAILS = {"query": 95, "batch": 75, "browse": 75, "ingest": 90}
#: Ingest jobs poll ``/jobs/<id>`` until one of these.
SETTLED = ("done", "failed", "quarantined")
JOB_TIMEOUT_S = 60.0
#: Pause before each ``/jobs/<id>`` poll, so the ingest connection asks
#: at a bounded rate however fast the server answers, and does not take
#: the CPU from the ingest worker it is waiting for.
POLL_INTERVAL_S = 0.02


@dataclass
class Sample:
    """One completed request, or one whole ingest (submit to commit)."""

    op: str
    start: float
    latency_s: float
    ok: bool


@dataclass
class Recorder:
    """Samples of one connection.

    ``attempted`` and ``failed`` count operations: one per query, batch
    or browse request, and one per ingest however many polls it took.
    ``polls`` counts the ``GET /jobs/<id>`` requests on their own."""

    samples: list[Sample] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    committed: int = 0
    polls: int = 0
    errors: list[str] = field(default_factory=list)


class Client:
    """One persistent connection; reconnects only after a transport error."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def request(
        self, method: str, path: str, body: dict[str, Any] | None = None
    ) -> tuple[int, bytes, float]:
        """``(status, body, seconds)``; status 0 means a transport failure."""
        data = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if data is not None else {}
        started = time.perf_counter()
        try:
            self.conn.request(method, path, body=data, headers=headers)
            response = self.conn.getresponse()
            payload = response.read()
            return response.status, payload, time.perf_counter() - started
        except (OSError, http.client.HTTPException) as exc:
            self.conn.close()
            return 0, str(exc).encode(), time.perf_counter() - started

    def json(self, method: str, path: str, body: dict[str, Any] | None = None) -> Any:
        status, payload, _ = self.request(method, path, body)
        if status != 200:
            raise RuntimeError(f"{method} {path} answered {status}: {payload[:200]!r}")
        return json.loads(payload)

    def close(self) -> None:
        self.conn.close()


def query_loop(
    client: Client, stream: QueryStream, stop: Callable[[], bool], rec: Recorder
) -> None:
    """Send the stream's requests back to back until ``stop()``."""
    while not stop():
        req = stream.next()
        started = time.perf_counter()
        status, payload, latency = client.request(req.method, req.path, req.body)
        ok = 200 <= status < 300
        rec.attempted += 1
        if not ok:
            rec.failed += 1
            rec.errors.append(f"{req.method} {req.path}: {status} {payload[:120]!r}")
        op = "browse" if req.op in ("tree", "shots") else req.op
        rec.samples.append(Sample(op, started, latency, ok))


def ingest_loop(
    client: Client, stream: IngestStream, stop: Callable[[], bool], rec: Recorder
) -> None:
    """Submit one ingest, poll its job until settled, repeat until ``stop()``.

    The ingest's latency runs from the client sending the submit to the
    commit time (``finished_at``) in the job record the poll returns;
    both are readings of the host's wall clock.  Timing to the poll that
    sees ``done`` instead would count whole poll round trips, which the
    stalled connection quantizes to ~44 ms: a 5% slower job would read
    either unchanged or 50% slower.
    """
    while not stop():
        spec = stream.next()
        started, sent_wall = time.perf_counter(), time.time()
        status, payload, _ = client.request("POST", "/ingest", spec)
        rec.attempted += 1
        settled, job = None, {}
        if status == 202:
            job_path = f"/jobs/{json.loads(payload)['job_id']}"
            while settled is None and time.perf_counter() - started < JOB_TIMEOUT_S:
                time.sleep(POLL_INTERVAL_S)
                status, payload, _ = client.request("GET", job_path)
                rec.polls += 1
                if status != 200:
                    break
                job = json.loads(payload)
                if job["status"] in SETTLED:
                    settled = job["status"]
        if status not in (200, 202):
            rec.failed += 1
            rec.errors.append(f"ingest {spec['video_id']}: {status} {payload[:120]!r}")
        elif settled != "done":
            rec.failed += 1
            rec.errors.append(f"ingest {spec['video_id']}: job {settled or 'timed out'}")
        else:
            rec.committed += 1
        done = settled == "done"
        latency = job["finished_at"] - sent_wall if done else time.perf_counter() - started
        rec.samples.append(Sample("ingest", started, latency, done))


def run_closed_loop(
    loops: list[Callable[[Callable[[], bool], Recorder], None]],
    recorders: list[Recorder],
    stop: Callable[[], bool],
    on_tick: Callable[[], None] | None = None,
    tick_s: float = 1.0,
) -> None:
    """Run each loop on its own thread, recording into the matching
    recorder, until ``stop()``; ``on_tick`` fires on the calling thread
    every ``tick_s`` while they run."""
    threads = [
        threading.Thread(target=loop, args=(stop, rec), daemon=True)
        for loop, rec in zip(loops, recorders)
    ]
    for thread in threads:
        thread.start()
    next_tick = time.perf_counter() + tick_s
    while any(thread.is_alive() for thread in threads):
        for thread in threads:
            thread.join(timeout=max(0.0, next_tick - time.perf_counter()))
        if on_tick is not None and time.perf_counter() >= next_tick:
            on_tick()
            next_tick += tick_s


def percentile_ms(latencies: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(latencies) * 1e3, q)) if latencies else 0.0


def op_summary(samples: list[Sample]) -> dict[str, dict[str, Any]]:
    """Per op: count, p50, the op's tail percentile, and every latency (ms)."""
    out: dict[str, dict[str, Any]] = {}
    for op, tail in TAILS.items():
        lat = [s.latency_s for s in samples if s.op == op and s.ok]
        out[op] = {
            "count": len(lat),
            "p50_ms": percentile_ms(lat, 50),
            f"p{tail}_ms": percentile_ms(lat, tail),
            "beyond_tail": int(round(len(lat) * (100 - tail) / 100)),
            "latencies_ms": [round(x * 1e3, 3) for x in lat],
        }
    return out


def epochs(samples: list[Sample], t0: float, epoch_s: float = 1.0) -> list[dict[str, Any]]:
    """Per-epoch completed counts and p50 latency per op, by completion time."""
    if not samples:
        return []
    n = int(max(s.start + s.latency_s - t0 for s in samples) // epoch_s) + 1
    rows: list[dict[str, Any]] = []
    for k in range(n):
        lo, hi = t0 + k * epoch_s, t0 + (k + 1) * epoch_s
        done = [s for s in samples if s.op in TAILS and lo <= s.start + s.latency_s < hi]
        row: dict[str, Any] = {"epoch": k, "completed": sum(s.ok for s in done)}
        for op in TAILS:
            lat = [s.latency_s for s in done if s.op == op and s.ok]
            if lat:
                row[op] = {"count": len(lat), "p50_ms": round(percentile_ms(lat, 50), 3)}
        rows.append(row)
    return rows
