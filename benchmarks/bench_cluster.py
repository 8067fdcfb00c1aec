"""Cluster bench: ingest scaling and scatter-gather query latency.

Measures the sharded database at 1, 2, and 4 shards over the same
seeded corpus:

* **Durable ingest throughput** — registering pre-derived videos
  through each shard's checksummed publish path (record write ->
  fsync -> delta rename), one feeder thread per shard.  This
  deliberately benchmarks the *database/commit* side of ingest.  A
  publish writes one video's record and one small manifest delta, so
  its cost does not grow with the shard's corpus: the 1-shard run
  ingests its last quarter about as fast as its first, and sharding
  adds only overlapped fsyncs (publishes to different shards), not the
  relief from a smaller per-shard rewrite it once gave.  (The
  CPU-bound Step 1-2-3 pipeline is benchmarked separately in
  ``bench_perf_pipeline.py`` and is embarrassingly parallel across
  processes.)
* **Query latency** — p50/p99 of impression queries through the
  scatter-gather coordinator, against the K=1 cluster as the
  single-shard baseline (same code path, no fan-out).  The asserted
  metric uses the coordinator's default full-ranking workload
  (``limit=None``), where total scan/route work is identical at every
  shard count; a top-20 pushdown workload is reported alongside.
* **Replication** — durable ingest at R=2 (4 shards) vs R=1
  (2 shards): the shard count scales with R so the *per-shard corpus
  is identical* (512 videos each at the default sizes), isolating the
  cost of the extra committed copy.  The write-amplification ceiling
  is the 2 checksummed commits per video, i.e. ~2x.  Alongside it:
  query p50/p99 with one shard of an R=2 cluster killed mid-corpus —
  every answer must stay complete (failover from replicas, zero
  partial).

Acceptance bars (asserted by ``main()``, relaxed under ``--smoke``):
the 1-shard run ingests the last quarter of its corpus at >= 0.5x the
rate of its first quarter (commit cost does not grow with the shard;
on a 2-vCPU host 0.62-1.38, against 0.24-0.41 when every publish
rewrote the shard's index and manifest), a 4-shard run ingests at
least as fast as a 1-shard run (>= 1.0x; read 1.03-2.18x there),
4-shard query p99 within 1.5x of single-shard, and R=2 ingest overhead
<= 2.2x the R=1 run.

Run as a bench:

    PYTHONPATH=src pytest benchmarks/bench_cluster.py --benchmark-only

or standalone, writing ``BENCH_cluster.json``:

    PYTHONPATH=src python benchmarks/bench_cluster.py [--smoke]
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any

import numpy as np

from repro.cluster import ClusterCoordinator
from repro.testing.synth import add_synth_video
from repro.vdbms.database import VideoDatabase, VideoRecord

SHARD_COUNTS = (1, 2, 4)


def build_records(n_videos: int, seed: int = 404) -> list[VideoRecord]:
    """Pre-derive ``n_videos`` synthetic videos (shared by every run)."""
    rng = np.random.default_rng(seed)
    records = []
    for k in range(n_videos):
        video_id = f"bench-{k:04d}"
        scratch = VideoDatabase()
        add_synth_video(scratch, video_id, rng)
        records.append(scratch.export_video(video_id))
    return records


def run_ingest_round(
    records: list[VideoRecord],
    n_shards: int,
    root: Path,
    replication: int = 1,
) -> dict[str, Any]:
    """Durably commit every record, one feeder thread per shard."""
    cluster = ClusterCoordinator.create(root, n_shards, replication=replication)
    try:
        groups = cluster.router.assignment([r.video_id for r in records])
        by_id = {r.video_id: r for r in records}
        errors: list[str] = []
        done_at: list[float] = []  # commit times, all feeders

        def feed(shard_id: int) -> None:
            try:
                for video_id in groups[shard_id]:
                    cluster.adopt(by_id[video_id])
                    done_at.append(time.perf_counter())
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(f"shard {shard_id}: {exc}")

        threads = [
            threading.Thread(target=feed, args=(shard,), name=f"feeder-{shard}")
            for shard in range(n_shards)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall_s = time.perf_counter() - started
        assert not errors, errors
        assert cluster.catalog_size() == len(records)
        # Rate of the first and of the last quarter of the commits: a
        # publish whose cost grows with the shard slows down as it fills.
        done_at.sort()
        quarter = len(done_at) // 4
        first_s = done_at[quarter - 1] - started
        last_s = done_at[-1] - done_at[-quarter - 1]
        return {
            "n_shards": n_shards,
            "replication": replication,
            "videos": len(records),
            "wall_s": round(wall_s, 4),
            "ingest_per_s": round(len(records) / wall_s, 2),
            "first_quarter_per_s": round(quarter / first_s, 2),
            "last_quarter_per_s": round(quarter / last_s, 2),
            "last_vs_first_quarter": round(first_s / last_s, 3),
            "videos_per_shard": [len(groups[s]) for s in range(n_shards)],
        }
    finally:
        cluster.close()


def run_failover_query_round(
    records: list[VideoRecord], n_shards: int, n_queries: int
) -> dict[str, Any]:
    """Query p50/p99 with one shard of an R=2 cluster killed.

    The replication acceptance scenario: scatters keep reporting the
    dead shard in ``shards_failed`` but every answer is recovered from
    the surviving replicas — the round asserts zero partial answers.
    """
    previous_switch = sys.getswitchinterval()
    sys.setswitchinterval(0.001)
    cluster = ClusterCoordinator.ephemeral(n_shards, replication=2)
    try:
        for record in records:
            cluster.adopt(record)
        probes = [
            (e.features.var_ba, e.features.var_oa)
            for r in records[:: max(1, len(records) // 64)]
            for e in r.index_entries[:1]
        ]
        cluster.shards[0].mark_down("bench: kill-one-shard scenario")
        for var_ba, var_oa in probes[:8]:
            cluster.query(var_ba, var_oa)
        latencies = []
        for k in range(n_queries):
            var_ba, var_oa = probes[k % len(probes)]
            started = time.perf_counter()
            answer = cluster.query(var_ba, var_oa)
            latencies.append((time.perf_counter() - started) * 1000.0)
            assert not answer.partial, "failover must keep answers complete"
            assert answer.shards_failed, "the outage must be reported"
        latencies.sort()
        return {
            "n_shards": n_shards,
            "replication": 2,
            "shards_killed": 1,
            "queries": n_queries,
            "p50_ms": round(statistics.median(latencies), 4),
            "p99_ms": round(latencies[int(0.99 * (len(latencies) - 1))], 4),
            "mean_ms": round(statistics.fmean(latencies), 4),
        }
    finally:
        cluster.close()
        sys.setswitchinterval(previous_switch)


def run_query_round(
    records: list[VideoRecord],
    n_shards: int,
    n_queries: int,
    limit: int | None = None,
) -> dict[str, Any]:
    """p50/p99 of scatter-gather queries over an in-memory cluster.

    ``limit=None`` is the full-ranking workload (the coordinator's
    default query shape) — every shard contributes its whole band, so
    the total scan and routing work is identical at every shard count
    and the measured gap is pure coordination overhead.  A top-k
    ``limit`` additionally exercises the per-shard pushdown.

    The scatter runs on the calling thread (no pool), so the K-shard
    time is the K sub-queries one after another plus the merge.  Runs
    with a 1 ms interpreter switch interval (restored after): the
    default 5 ms lets any other thread of the process hold the GIL
    that long, which is pure tail noise at ~0.1 ms sub-query sizes —
    and the setting any latency-sensitive deployment of the service
    would choose.
    """
    previous_switch = sys.getswitchinterval()
    sys.setswitchinterval(0.001)
    cluster = ClusterCoordinator.ephemeral(n_shards)
    try:
        for record in records:
            cluster.adopt(record)
        probes = [
            (e.features.var_ba, e.features.var_oa)
            for r in records[:: max(1, len(records) // 64)]
            for e in r.index_entries[:1]
        ]
        # Warm up the caches (tie ranks, route maps) outside the timed
        # region.
        for var_ba, var_oa in probes[:8]:
            cluster.query(var_ba, var_oa, limit=limit)
        latencies = []
        returned = 0
        for k in range(n_queries):
            var_ba, var_oa = probes[k % len(probes)]
            started = time.perf_counter()
            answer = cluster.query(var_ba, var_oa, limit=limit)
            latencies.append((time.perf_counter() - started) * 1000.0)
            assert not answer.partial
            returned += len(answer)
        latencies.sort()
        return {
            "n_shards": n_shards,
            "queries": n_queries,
            "limit": limit,
            "matches_returned": returned,
            "p50_ms": round(statistics.median(latencies), 4),
            "p99_ms": round(latencies[int(0.99 * (len(latencies) - 1))], 4),
            "mean_ms": round(statistics.fmean(latencies), 4),
        }
    finally:
        cluster.close()
        sys.setswitchinterval(previous_switch)


def run_cluster_bench(
    n_videos: int = 1024,
    n_queries: int = 1200,
    seed: int = 404,
    rounds: int = 2,
) -> dict[str, Any]:
    """The full 1/2/4-shard sweep; returns the BENCH_cluster document.

    Ingest and query rounds run ``rounds`` times per shard count and
    keep the best (highest throughput / lowest p99) — single-round
    numbers on a shared box swing with background I/O.  The corpus
    must be large enough that a commit cost growing with the shard
    would show between its first and last quarter; 1024 videos is
    comfortably past that.
    """
    records = build_records(n_videos, seed=seed)
    ingest = []
    for k in SHARD_COUNTS:
        best: dict[str, Any] | None = None
        for round_no in range(rounds):
            scratch = Path(tempfile.mkdtemp(prefix="bench_cluster_"))
            try:
                row = run_ingest_round(records, k, scratch / "cluster")
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
            if best is None or row["ingest_per_s"] > best["ingest_per_s"]:
                best = row
        ingest.append(best)
    queries = []
    queries_topk = []
    for k in SHARD_COUNTS:
        rows = [run_query_round(records, k, n_queries) for _ in range(rounds)]
        queries.append(min(rows, key=lambda row: row["p99_ms"]))
        queries_topk.append(run_query_round(records, k, n_queries, limit=20))
    replicated_ingest = []
    # Equal per-shard load: K scales with R so each shard commits the
    # same number of videos either way — the measured delta is the
    # extra copy's commit, not a bigger manifest rewrite.
    for k, r in ((2, 1), (4, 2)):
        best = None
        for _ in range(rounds):
            scratch = Path(tempfile.mkdtemp(prefix="bench_cluster_"))
            try:
                row = run_ingest_round(
                    records, k, scratch / "cluster", replication=r
                )
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
            if best is None or row["ingest_per_s"] > best["ingest_per_s"]:
                best = row
        replicated_ingest.append(best)
    failover = min(
        (run_failover_query_round(records, 2, n_queries) for _ in range(rounds)),
        key=lambda row: row["p99_ms"],
    )
    base_ingest = ingest[0]["ingest_per_s"]
    base_p99 = queries[0]["p99_ms"]
    return {
        "config": {
            "n_videos": n_videos,
            "n_queries": n_queries,
            "seed": seed,
            "rounds": rounds,
            "shard_counts": list(SHARD_COUNTS),
        },
        "ingest": ingest,
        "queries": queries,
        "queries_topk": queries_topk,
        "ingest_speedup_vs_single": {
            str(row["n_shards"]): round(row["ingest_per_s"] / base_ingest, 3)
            for row in ingest
        },
        "query_p99_ratio_vs_single": {
            str(row["n_shards"]): round(row["p99_ms"] / base_p99, 3)
            for row in queries
        },
        "replication": {
            "ingest": replicated_ingest,
            "ingest_overhead_r2_vs_r1": round(
                replicated_ingest[0]["ingest_per_s"]
                / replicated_ingest[1]["ingest_per_s"],
                3,
            ),
            "failover_query": failover,
            "failover_p99_ratio_vs_healthy": round(
                failover["p99_ms"] / queries[1]["p99_ms"], 3
            ),
        },
    }


def check_acceptance(report: dict[str, Any], smoke: bool = False) -> None:
    """The PR's acceptance bars (looser under --smoke: tiny samples on
    shared CI boxes are too noisy for the strict thresholds)."""
    speedup4 = report["ingest_speedup_vs_single"]["4"]
    quarters1 = report["ingest"][0]["last_vs_first_quarter"]
    p99_ratio4 = report["query_p99_ratio_vs_single"]["4"]
    overhead_r2 = report["replication"]["ingest_overhead_r2_vs_r1"]
    # A publish writes one record and one delta, so neither the shard
    # size nor the shard count should change its cost much: the bars
    # are "no slowdown as the shard fills" and "sharding does not
    # hurt".  (Before, each publish rewrote the shard's whole index
    # and manifest: the 1-shard run slowed to a fraction of its first
    # quarter's rate, and 4 shards ingested ~3x faster than 1.)
    # At the smoke size (32 videos, 8 per quarter, one round) the
    # quarter ratio read 0.59-1.84 and 4 vs 1 shard 0.93-1.46x on a
    # 2-vCPU host, and the whole-database publish read alike (it is
    # cheap on 32 videos): there the bars only catch a gross slowdown.
    min_quarters = 0.25 if smoke else 0.5
    min_speedup = 0.5 if smoke else 1.0
    max_ratio = 3.0 if smoke else 1.5
    max_overhead = 4.0 if smoke else 2.2
    assert quarters1 >= min_quarters, (
        f"1-shard ingest ran its last quarter at {quarters1}x its first "
        f"quarter's rate (bar: {min_quarters}x)"
    )
    assert speedup4 >= min_speedup, (
        f"4-shard ingest speedup {speedup4}x below {min_speedup}x"
    )
    assert p99_ratio4 <= max_ratio, (
        f"4-shard query p99 is {p99_ratio4}x single-shard (bar: {max_ratio}x)"
    )
    assert overhead_r2 <= max_overhead, (
        f"R=2 ingest overhead {overhead_r2}x vs R=1 (bar: {max_overhead}x — "
        f"two commits per video should cost ~2x, not more)"
    )


def bench_cluster_sweep(benchmark):
    """1/2/4-shard ingest+query sweep (reduced sizes for the harness)."""
    report = benchmark.pedantic(
        run_cluster_bench,
        kwargs={"n_videos": 32, "n_queries": 100, "rounds": 1},
        rounds=1,
        iterations=1,
    )
    check_acceptance(report, smoke=True)
    benchmark.extra_info["ingest_speedup"] = report["ingest_speedup_vs_single"]
    benchmark.extra_info["query_p99_ratio"] = report["query_p99_ratio_vs_single"]
    benchmark.extra_info["r2_ingest_overhead"] = report["replication"][
        "ingest_overhead_r2_vs_r1"
    ]


def main(argv: list[str] | None = None) -> None:
    args = argv if argv is not None else sys.argv[1:]
    smoke = "--smoke" in args
    if smoke:
        report = run_cluster_bench(n_videos=32, n_queries=100, rounds=1)
    else:
        report = run_cluster_bench()
    for row in report["ingest"]:
        print(
            f"ingest  {row['n_shards']} shard(s): {row['ingest_per_s']:8.1f}/s "
            f"({row['wall_s']}s for {row['videos']} videos; last quarter "
            f"{row['last_vs_first_quarter']}x the first's rate)"
        )
    for row in report["queries"]:
        print(
            f"query   {row['n_shards']} shard(s): p50={row['p50_ms']:.3f}ms "
            f"p99={row['p99_ms']:.3f}ms"
        )
    for row in report["queries_topk"]:
        print(
            f"query/top{row['limit']} {row['n_shards']} shard(s): "
            f"p50={row['p50_ms']:.3f}ms p99={row['p99_ms']:.3f}ms"
        )
    replication = report["replication"]
    for row in replication["ingest"]:
        print(
            f"ingest  {row['n_shards']} shard(s) R={row['replication']}: "
            f"{row['ingest_per_s']:8.1f}/s"
        )
    failover = replication["failover_query"]
    print(
        f"failover query (2 shards R=2, one killed): "
        f"p50={failover['p50_ms']:.3f}ms p99={failover['p99_ms']:.3f}ms "
        f"({replication['failover_p99_ratio_vs_healthy']}x healthy p99)"
    )
    print(
        f"4-shard ingest speedup: "
        f"{report['ingest_speedup_vs_single']['4']}x, "
        f"query p99 ratio: {report['query_p99_ratio_vs_single']['4']}x, "
        f"R=2 ingest overhead: {replication['ingest_overhead_r2_vs_r1']}x"
    )
    if not smoke:
        # Write the artifact before asserting: a run that misses a bar
        # should still leave its evidence behind.
        out = Path(__file__).resolve().parent.parent / "BENCH_cluster.json"
        out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print(f"-> {out}")
    check_acceptance(report, smoke=smoke)


if __name__ == "__main__":
    main()
