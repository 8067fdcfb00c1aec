"""Query-engine bench: columnar vs entry-list search, batching, open().

Measures the three claims the columnar engine makes, on seeded
synthetic corpora of 10k and 100k shots:

* **Single-query throughput** — top-10 impression queries against the
  packed column arrays (two ``searchsorted`` probes + one vectorized
  rank) vs the legacy ``SortedVarianceIndex`` entry-list path
  (bisect + per-entry Python ranking).  The asserted bar is at the
  100k corpus, where the per-candidate Python cost dominates.
* **Batched execution** — one ``search_batch`` of 64 queries vs 64
  sequential singles on the same index.  Batching amortizes the
  per-call fixed cost (argument checks, array dispatch, result
  splitting), so the bar is asserted at the smallest corpus where that
  fixed cost is the larger share; at 10k/100k both paths are
  candidate-bandwidth-bound (``search_batch`` switches to its
  per-query kernel) and the ratio is reported unasserted.
* **open() latency** — deserializing the checksummed binary column
  format vs parsing the JSON document of the same index.

A fourth section bounds the cost of the tracing layer
(docs/OBSERVABILITY.md): with tracing disabled, the instrumented read
path pays one thread-local ``current_trace()`` read per stage, and the
bench asserts that bound stays under 3% of query cost.  ``--overhead``
runs just that gate (fast, for CI).

Acceptance bars (asserted by ``main()``, relaxed under ``--smoke``):
single-query >= 10x at 100k shots, batch-of-64 >= 3x sequential at
2k shots, binary open() faster than JSON, disabled-tracing overhead
bound <= 3%.

Run as a bench:

    PYTHONPATH=src pytest benchmarks/bench_query.py --benchmark-only

or standalone, writing ``BENCH_query.json``:

    PYTHONPATH=src python benchmarks/bench_query.py [--smoke]
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np

from repro.features.vector import FeatureVector
from repro.index import ColumnarVarianceIndex, IndexEntry, SortedVarianceIndex
from repro.index.query import VarianceQuery

LIMIT = 10
BATCH = 64


def build_entries(n_shots: int, seed: int = 42) -> list[IndexEntry]:
    """A seeded corpus with variances spanning the paper's full range."""
    rng = np.random.default_rng(seed)
    var_ba = rng.uniform(0.0, 500.0, size=n_shots)
    var_oa = rng.uniform(0.0, 500.0, size=n_shots)
    return [
        IndexEntry(
            video_id=f"movie-{k % 997}",
            shot_number=k,
            start_frame=k * 24,
            end_frame=k * 24 + 23,
            features=FeatureVector(var_ba=float(var_ba[k]), var_oa=float(var_oa[k])),
        )
        for k in range(n_shots)
    ]


def build_queries(n_queries: int, seed: int = 7) -> list[VarianceQuery]:
    rng = np.random.default_rng(seed)
    return [
        VarianceQuery(
            var_ba=float(rng.uniform(0.0, 500.0)),
            var_oa=float(rng.uniform(0.0, 500.0)),
        )
        for _ in range(n_queries)
    ]


def _best_of(fn, rounds: int) -> float:
    """Wall seconds of the fastest round (discards warm-up noise)."""
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def run_single_query_bench(
    entries: list[IndexEntry], n_queries: int, rounds: int = 3
) -> dict[str, Any]:
    """Top-10 query throughput: columnar vs the entry-list index."""
    columnar = ColumnarVarianceIndex(entries)
    legacy = SortedVarianceIndex(entries)
    queries = build_queries(n_queries)
    # Decision identity first — a fast wrong answer is no speedup.
    for query in queries[:10]:
        expect = [(e.video_id, e.shot_number) for e in legacy.search(query, limit=LIMIT)]
        got = [(e.video_id, e.shot_number) for e in columnar.search(query, limit=LIMIT)]
        assert got == expect, f"columnar diverged from legacy on {query}"

    legacy_s = _best_of(
        lambda: [legacy.search(q, limit=LIMIT) for q in queries], rounds
    )
    columnar_s = _best_of(
        lambda: [columnar.search(q, limit=LIMIT) for q in queries], rounds
    )
    return {
        "n_shots": len(entries),
        "n_queries": n_queries,
        "limit": LIMIT,
        "legacy_qps": round(n_queries / legacy_s, 1),
        "columnar_qps": round(n_queries / columnar_s, 1),
        "speedup": round(legacy_s / columnar_s, 2),
    }


def run_batch_bench(
    entries: list[IndexEntry], batch: int = BATCH, rounds: int = 5
) -> dict[str, Any]:
    """One vectorized batch of B queries vs B sequential singles."""
    columnar = ColumnarVarianceIndex(entries)
    queries = build_queries(batch, seed=11)
    batched = columnar.search_batch(queries, limit=LIMIT)
    singles = [columnar.search(q, limit=LIMIT) for q in queries]
    assert [
        [(e.video_id, e.shot_number) for e in answer] for answer in batched
    ] == [
        [(e.video_id, e.shot_number) for e in answer] for answer in singles
    ], "batch diverged from sequential singles"

    sequential_s = _best_of(
        lambda: [columnar.search(q, limit=LIMIT) for q in queries], rounds
    )
    batch_s = _best_of(lambda: columnar.search_batch(queries, limit=LIMIT), rounds)
    return {
        "n_shots": len(entries),
        "batch": batch,
        "limit": LIMIT,
        "sequential_ms": round(sequential_s * 1_000, 3),
        "batch_ms": round(batch_s * 1_000, 3),
        "speedup": round(sequential_s / batch_s, 2),
    }


def run_open_bench(entries: list[IndexEntry], rounds: int = 5) -> dict[str, Any]:
    """Deserialization latency: binary columns vs the JSON document."""
    index = ColumnarVarianceIndex(entries)
    binary = index.to_bytes()
    document = json.dumps(index.to_dict()).encode("utf-8")
    assert len(ColumnarVarianceIndex.from_payload_bytes(binary)) == len(entries)
    assert len(ColumnarVarianceIndex.from_payload_bytes(document)) == len(entries)

    json_s = _best_of(lambda: ColumnarVarianceIndex.from_payload_bytes(document), rounds)
    binary_s = _best_of(lambda: ColumnarVarianceIndex.from_payload_bytes(binary), rounds)
    return {
        "n_shots": len(entries),
        "json_bytes": len(document),
        "binary_bytes": len(binary),
        "json_open_ms": round(json_s * 1_000, 3),
        "binary_open_ms": round(binary_s * 1_000, 3),
        "speedup": round(json_s / binary_s, 2),
    }


# Guard sites one traced request crosses when a plain database answers a
# /query (it is served as a one-shard cluster, whose shard routes its own
# matches, so there is no cluster.merge): request, cache.get,
# cluster.scatter, shard.query, shard.lock_wait, db.query, index.search,
# db.routes — the disabled-overhead bound charges this many thread-local
# reads per query.
GUARD_SITES = 8

MAX_DISABLED_OVERHEAD_PCT = 3.0


def run_overhead_bench(
    n_shots: int = 20_000, n_queries: int = 200, rounds: int = 5
) -> dict[str, Any]:
    """Cost of the tracing layer (docs/OBSERVABILITY.md).

    Two numbers:

    * ``disabled_overhead_pct`` — the asserted bar.  With tracing off,
      every instrumented stage pays exactly one ``current_trace()``
      thread-local read (the span guard); the bound times that read in
      isolation and charges :data:`GUARD_SITES` reads per query against
      the measured untraced query cost.  This is an *upper* bound: real
      queries cross fewer guard sites than the constant assumes.
    * ``traced_overhead_pct`` — informational: full span bookkeeping
      (begin/end, annotations, tree assembly) on the index search loop,
      the worst case because the traced work is tiny.
    """
    from repro.obs import TraceContext, current_trace, tracing

    columnar = ColumnarVarianceIndex(build_entries(n_shots))
    queries = build_queries(n_queries, seed=23)

    untraced_s = _best_of(
        lambda: [columnar.search(q, limit=LIMIT) for q in queries], rounds
    )

    def traced() -> None:
        ctx = TraceContext(name="bench")
        with tracing(ctx):
            for q in queries:
                columnar.search(q, limit=LIMIT)
        ctx.finish()

    traced_s = _best_of(traced, rounds)

    guard_calls = 100_000

    def guard_loop() -> None:
        for _ in range(guard_calls):
            current_trace()

    guard_s = _best_of(guard_loop, rounds)
    guard_per_call_s = guard_s / guard_calls
    per_query_s = untraced_s / n_queries
    disabled_pct = 100.0 * (GUARD_SITES * guard_per_call_s) / per_query_s
    return {
        "n_shots": n_shots,
        "n_queries": n_queries,
        "guard_sites": GUARD_SITES,
        "guard_ns": round(guard_per_call_s * 1e9, 1),
        "untraced_query_us": round(per_query_s * 1e6, 2),
        "disabled_overhead_pct": round(disabled_pct, 3),
        "traced_overhead_pct": round(
            100.0 * (traced_s - untraced_s) / untraced_s, 1
        ),
        "max_disabled_overhead_pct": MAX_DISABLED_OVERHEAD_PCT,
    }


def run_query_bench(
    corpus_sizes: tuple[int, ...] = (2_000, 10_000, 100_000),
    n_queries: int = 100,
    rounds: int = 3,
) -> dict[str, Any]:
    """The full sweep; the largest corpus carries the asserted bars."""
    corpora = {n: build_entries(n) for n in corpus_sizes}
    largest = corpus_sizes[-1]
    smallest = corpus_sizes[0]
    return {
        "single": [
            run_single_query_bench(corpora[n], n_queries, rounds) for n in corpus_sizes
        ],
        "batch": [
            run_batch_bench(corpora[n], rounds=max(rounds, 5)) for n in corpus_sizes
        ],
        "open": [run_open_bench(corpora[n]) for n in corpus_sizes],
        "overhead": run_overhead_bench(rounds=rounds),
        "asserted_corpora": {"single": largest, "batch": smallest, "open": largest},
    }


def _bar(report: dict[str, Any], section: str) -> float:
    target = report["asserted_corpora"][section]
    for row in report[section]:
        if row["n_shots"] == target:
            return row["speedup"]
    raise AssertionError(f"no {section} row at {target} shots")


def check_acceptance(report: dict[str, Any], smoke: bool = False) -> None:
    """The PR's acceptance bars (looser under --smoke: tiny corpora on
    shared CI boxes are too noisy for the strict thresholds)."""
    single = _bar(report, "single")
    batch = _bar(report, "batch")
    opened = _bar(report, "open")
    min_single = 2.0 if smoke else 10.0
    min_batch = 1.2 if smoke else 3.0
    min_open = 1.2
    assert single >= min_single, (
        f"columnar single-query speedup {single}x below {min_single}x"
    )
    assert batch >= min_batch, (
        f"batch-of-{BATCH} speedup {batch}x below {min_batch}x"
    )
    assert opened >= min_open, (
        f"binary open() speedup {opened}x below {min_open}x"
    )
    overhead = report.get("overhead")
    if overhead is not None:
        disabled = overhead["disabled_overhead_pct"]
        assert disabled <= MAX_DISABLED_OVERHEAD_PCT, (
            f"disabled-tracing overhead bound {disabled}% exceeds "
            f"{MAX_DISABLED_OVERHEAD_PCT}%"
        )


def bench_query_engine(benchmark):
    """Reduced-size sweep for the pytest-benchmark harness."""
    report = benchmark.pedantic(
        run_query_bench,
        kwargs={"corpus_sizes": (2_000, 20_000), "n_queries": 50, "rounds": 2},
        rounds=1,
        iterations=1,
    )
    check_acceptance(report, smoke=True)
    benchmark.extra_info["single_speedup"] = _bar(report, "single")
    benchmark.extra_info["batch_speedup"] = _bar(report, "batch")
    benchmark.extra_info["open_speedup"] = _bar(report, "open")


def _print_overhead(row: dict[str, Any]) -> None:
    print(
        f"overhead: guard {row['guard_ns']}ns x {row['guard_sites']} sites "
        f"over {row['untraced_query_us']}us/query -> "
        f"{row['disabled_overhead_pct']}% disabled bound "
        f"(traced: +{row['traced_overhead_pct']}%)"
    )


def main(argv: list[str] | None = None) -> None:
    args = argv if argv is not None else sys.argv[1:]
    smoke = "--smoke" in args
    if "--overhead" in args:
        # Fast CI gate: just the disabled-tracing overhead bound.
        row = run_overhead_bench(n_shots=10_000, n_queries=100, rounds=3)
        _print_overhead(row)
        assert row["disabled_overhead_pct"] <= MAX_DISABLED_OVERHEAD_PCT, (
            f"disabled-tracing overhead bound {row['disabled_overhead_pct']}% "
            f"exceeds {MAX_DISABLED_OVERHEAD_PCT}%"
        )
        return
    if smoke:
        report = run_query_bench(
            corpus_sizes=(2_000, 20_000), n_queries=50, rounds=2
        )
    else:
        report = run_query_bench()
    for row in report["single"]:
        print(
            f"single {row['n_shots']:>7} shots: legacy {row['legacy_qps']:>9.1f} q/s, "
            f"columnar {row['columnar_qps']:>10.1f} q/s ({row['speedup']}x)"
        )
    for row in report["batch"]:
        print(
            f"batch  {row['n_shots']:>7} shots: {row['batch']} sequential "
            f"{row['sequential_ms']:.3f}ms vs batched {row['batch_ms']:.3f}ms "
            f"({row['speedup']}x)"
        )
    for row in report["open"]:
        print(
            f"open   {row['n_shots']:>7} shots: json {row['json_open_ms']:.3f}ms vs "
            f"binary {row['binary_open_ms']:.3f}ms ({row['speedup']}x)"
        )
    _print_overhead(report["overhead"])
    check_acceptance(report, smoke=smoke)
    if not smoke:
        out = Path(__file__).resolve().parent.parent / "BENCH_query.json"
        out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print(f"-> {out}")


if __name__ == "__main__":
    main()
