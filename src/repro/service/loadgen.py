"""A mixed ingest/query workload driver for the service.

Simulates the serving pattern the ROADMAP targets: many clients firing
impression queries (drawn from a small pool of query points, the way
real users revisit the same impressions — which is what makes the
result cache earn its keep), interleaved with catalog/browse reads and
a few ingest jobs submitted mid-run and polled to completion.

Stdlib-only (``urllib.request`` + threads).  The report carries
per-operation latency percentiles, aggregate throughput, and the
server's own ``/metrics`` snapshot so a single run substantiates the
cache hit rate and histogram claims end-to-end.
"""

from __future__ import annotations

import json
import math
import random
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from urllib.parse import quote
from typing import Any

__all__ = ["LoadgenConfig", "run_loadgen"]


@dataclass(frozen=True, slots=True)
class LoadgenConfig:
    """Parameters of one load-generation run.

    Attributes:
        base_url: server root, e.g. ``http://127.0.0.1:8080``.
        n_requests: total client requests across all workers (ingest
            submission/polling requests are counted on top).
        workers: concurrent client threads.
        ingests: synthetic ingest jobs submitted while queries run.
        query_pool: number of distinct query points clients draw from
            (smaller pool -> higher cache hit rate).
        batch: when > 0, query requests carry ``batch`` points each to
            ``POST /query/batch`` (one scatter round server-side)
            instead of one point to ``/query``.
        browse_every: every k-th request per worker is a catalog /
            shots / tree read instead of a query.
        seed: RNG seed for query points and browse choices.
        timeout: per-request socket timeout in seconds.
        job_timeout: max seconds to wait for each ingest job to finish.
        deadline_ms: when set, every request carries an
            ``X-Deadline-Ms`` header with this budget (the server
            answers 503 ``deadline_exceeded`` past it).
        kill_shard: when set, POST ``/admin/shards/{N}/kill`` mid-run —
            the replication failover drill.  The report then separates
            shed vs. failed vs. *failover* answers (complete answers
            served around the dead shard), and the shard is revived
            when the run ends.
        kill_at_s: seconds after the run starts to kill the shard.
    """

    base_url: str
    n_requests: int = 200
    workers: int = 4
    ingests: int = 2
    query_pool: int = 8
    batch: int = 0
    browse_every: int = 10
    seed: int = 0
    timeout: float = 30.0
    job_timeout: float = 120.0
    deadline_ms: float | None = None
    kill_shard: int | None = None
    kill_at_s: float = 1.0

    def __post_init__(self) -> None:
        if self.n_requests < 1 or self.workers < 1:
            raise ValueError("n_requests and workers must be >= 1")
        if self.query_pool < 1 or self.browse_every < 2:
            raise ValueError("query_pool must be >= 1 and browse_every >= 2")
        if self.batch < 0:
            raise ValueError("batch must be >= 0")
        if self.kill_shard is not None and self.kill_shard < 0:
            raise ValueError(f"kill_shard must be >= 0, got {self.kill_shard}")
        if self.kill_at_s < 0:
            raise ValueError(f"kill_at_s must be >= 0, got {self.kill_at_s}")


def _percentile(sorted_values: list[float], p: float) -> float:
    """p-th percentile (nearest-rank) of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


class _Client:
    """Thread-safe HTTP client collecting per-operation latencies.

    Each sample records the HTTP status (0 for a transport failure),
    so the report can tell deliberate load shedding (429/503, the
    overload contract working) apart from genuine failures (5xx).
    """

    def __init__(
        self, base_url: str, timeout: float, deadline_ms: float | None = None
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.deadline_ms = deadline_ms
        self._lock = threading.Lock()
        self.samples: list[tuple[str, float, int]] = []
        # Cluster degradation accounting (query answers only): partial
        # answers are missing a shard's data; failover answers are
        # complete despite a failed shard (replicas covered it).
        self.partial_answers = 0
        self.failover_answers = 0

    def note_answer(self, payload: dict[str, Any] | None) -> None:
        """Fold one query answer's degradation flags into the tallies."""
        if payload is None:
            return
        results = payload.get("results", [payload])
        partial = any(r.get("partial") for r in results)
        failover = not partial and any(r.get("shards_failed") for r in results)
        if not (partial or failover):
            return
        with self._lock:
            if partial:
                self.partial_answers += 1
            else:
                self.failover_answers += 1

    def request(
        self, op: str, method: str, path: str, body: dict[str, Any] | None = None
    ) -> dict[str, Any] | None:
        """Issue one request; records (op, seconds, status); None unless 2xx."""
        data = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if data else {}
        if self.deadline_ms is not None:
            headers["X-Deadline-Ms"] = f"{self.deadline_ms:g}"
        request = urllib.request.Request(
            self.base_url + path, data=data, method=method, headers=headers
        )
        started = time.perf_counter()
        payload: dict[str, Any] | None = None
        status = 0
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                status = response.status
                payload = json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            status = exc.code
        except (urllib.error.URLError, OSError, json.JSONDecodeError):
            status = 0
        elapsed = time.perf_counter() - started
        with self._lock:
            self.samples.append((op, elapsed, status))
        return payload if 200 <= status < 300 else None


def _worker(
    client: _Client, config: LoadgenConfig, worker_id: int, n_requests: int
) -> None:
    rng = random.Random(config.seed * 10_007 + worker_id)
    # The shared query-point pool: every worker derives the same points
    # from config.seed, so cross-worker repeats hit the cache too.
    pool_rng = random.Random(config.seed)
    # Half the pool probes the low-variance corner (where near-static
    # shots live, so matches are nonempty), half sweeps the full range.
    points = [
        (round(pool_rng.uniform(0, high), 2), round(pool_rng.uniform(0, high), 2))
        for k in range(config.query_pool)
        for high in ((4.0,) if k % 2 == 0 else (400.0,))
    ]
    known_videos: list[str] = []
    for k in range(n_requests):
        if k % config.browse_every == 1:
            listing = client.request("catalog", "GET", "/videos")
            if listing:
                known_videos = [v["video_id"] for v in listing["videos"]]
        elif k % config.browse_every == 2 and known_videos:
            video_id = rng.choice(known_videos)
            leaf = rng.choice(("shots", "tree"))
            client.request(
                "browse",
                "GET",
                f"/videos/{quote(video_id, safe='')}/{leaf}",
            )
        elif config.batch > 0:
            batch = [rng.choice(points) for _ in range(config.batch)]
            answer = client.request(
                "query_batch",
                "POST",
                "/query/batch",
                {
                    "queries": [
                        {"var_ba": var_ba, "var_oa": var_oa}
                        for var_ba, var_oa in batch
                    ],
                    "limit": 5,
                },
            )
            client.note_answer(answer)
        else:
            var_ba, var_oa = rng.choice(points)
            answer = client.request(
                "query",
                "POST",
                "/query",
                {"var_ba": var_ba, "var_oa": var_oa, "limit": 5},
            )
            client.note_answer(answer)


def _drive_ingests(client: _Client, config: LoadgenConfig, failures: list[str]) -> None:
    """Submit synthetic ingest jobs and poll each to completion."""
    for k in range(config.ingests):
        submitted = client.request(
            "ingest_submit",
            "POST",
            "/ingest",
            {
                "source": "synthetic",
                "video_id": f"loadgen-clip-{config.seed}-{k}",
                "n_shots": 3,
                "frames_per_shot": 6,
                "seed": config.seed + k,
            },
        )
        if not submitted:
            failures.append(f"ingest submission {k} failed")
            continue
        job_id = submitted["job_id"]
        deadline = time.time() + config.job_timeout
        while time.time() < deadline:
            job = client.request("job_poll", "GET", f"/jobs/{job_id}")
            if job is None:
                failures.append(f"poll of {job_id} failed")
                break
            if job["status"] == "done":
                break
            if job["status"] == "failed":
                failures.append(f"{job_id} failed: {job.get('error')}")
                break
            time.sleep(0.05)
        else:
            failures.append(f"{job_id} did not finish within {config.job_timeout}s")


def run_loadgen(config: LoadgenConfig) -> dict[str, Any]:
    """Run the mixed workload and return the throughput/latency report."""
    client = _Client(config.base_url, config.timeout, config.deadline_ms)
    ingest_failures: list[str] = []
    share, leftover = divmod(config.n_requests, config.workers)
    threads = [
        threading.Thread(
            target=_worker,
            args=(client, config, worker_id, share + (1 if worker_id < leftover else 0)),
            name=f"loadgen-{worker_id}",
        )
        for worker_id in range(config.workers)
    ]
    ingest_thread = threading.Thread(
        target=_drive_ingests,
        args=(client, config, ingest_failures),
        name="loadgen-ingest",
    )
    outage: dict[str, Any] | None = None
    done = threading.Event()
    killer: threading.Thread | None = None
    if config.kill_shard is not None:
        outage = {
            "shard": config.kill_shard,
            "at_s": config.kill_at_s,
            "killed": False,
            "revived": False,
        }

        def _kill(report: dict[str, Any] = outage) -> None:
            if done.wait(config.kill_at_s):
                return  # the run ended before the outage was due
            answer = client.request(
                "admin_kill",
                "POST",
                f"/admin/shards/{config.kill_shard}/kill",
            )
            report["killed"] = answer is not None

        killer = threading.Thread(target=_kill, name="loadgen-killer")
    started = time.perf_counter()
    ingest_thread.start()
    if killer is not None:
        killer.start()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    ingest_thread.join()
    done.set()
    if killer is not None:
        killer.join()
        if outage is not None and outage["killed"]:
            answer = client.request(
                "admin_revive",
                "POST",
                f"/admin/shards/{config.kill_shard}/revive",
            )
            outage["revived"] = answer is not None
    wall_s = time.perf_counter() - started

    by_op: dict[str, list[float]] = {}
    status_counts: dict[str, int] = {}
    failed = 0
    shed = 0
    for op, elapsed, status in client.samples:
        by_op.setdefault(op, []).append(elapsed)
        status_counts[str(status)] = status_counts.get(str(status), 0) + 1
        if status in (429, 503):
            # The overload contract shedding load on purpose — tallied
            # separately so a burst run can assert "no failures" while
            # still expecting rejections.
            shed += 1
        elif not 200 <= status < 300:
            failed += 1
    operations = {}
    for op, latencies in sorted(by_op.items()):
        latencies.sort()
        operations[op] = {
            "count": len(latencies),
            "mean_ms": round(sum(latencies) / len(latencies) * 1_000, 3),
            "p50_ms": round(_percentile(latencies, 50) * 1_000, 3),
            "p90_ms": round(_percentile(latencies, 90) * 1_000, 3),
            "p99_ms": round(_percentile(latencies, 99) * 1_000, 3),
            "max_ms": round(latencies[-1] * 1_000, 3),
        }
    total = len(client.samples)
    report: dict[str, Any] = {
        "config": {
            "base_url": config.base_url,
            "n_requests": config.n_requests,
            "workers": config.workers,
            "ingests": config.ingests,
            "query_pool": config.query_pool,
            "batch": config.batch,
            "seed": config.seed,
            "deadline_ms": config.deadline_ms,
            "kill_shard": config.kill_shard,
            "kill_at_s": config.kill_at_s,
        },
        "total_requests": total,
        "failed_requests": failed,
        "shed_requests": shed,
        "partial_answers": client.partial_answers,
        "failover_answers": client.failover_answers,
        "status_counts": dict(sorted(status_counts.items())),
        "ingest_failures": ingest_failures,
        "wall_s": round(wall_s, 3),
        "throughput_rps": round(total / wall_s, 2) if wall_s > 0 else 0.0,
        "operations": operations,
    }
    if outage is not None:
        report["shard_outage"] = outage
    server_metrics = client.request("metrics", "GET", "/metrics")
    if server_metrics is not None:
        report["server_metrics"] = server_metrics
    return report
