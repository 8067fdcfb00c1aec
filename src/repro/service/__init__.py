"""``repro.service`` — a concurrent video-database server.

The paper argues its techniques are "uniquely suitable for large video
databases" (Sec. 6); this package supplies the serving layer that claim
implies.  A stdlib-only JSON-over-HTTP server fronts one shared
:class:`~repro.vdbms.database.VideoDatabase` or a sharded cluster:

- :mod:`~repro.service.engine` — every database served through a
  cluster coordinator (a plain database is one shard) with a
  reader-writer lock per shard, plus a background ingest worker pool
  with job tracking (queries keep serving while clips are analyzed);
- :mod:`~repro.service.cache` — an LRU cache of query results keyed on
  ``(D_q, Var_q, alpha, beta, ...)``, invalidated on every completed
  ingest;
- :mod:`~repro.service.metrics` — per-endpoint request counters and
  latency histograms rendered at ``/metrics``;
- :mod:`~repro.service.server` — the HTTP endpoints
  (``ThreadingHTTPServer``, one thread per connection);
- :mod:`~repro.service.loadgen` — a mixed ingest/query workload driver
  reporting throughput and latency percentiles;
- :mod:`~repro.service.resilience` — request deadlines and the storage
  circuit breaker backing the overload contract (429 on a full queue,
  503 on expired deadlines / open breaker / drain).

See ``docs/SERVICE.md`` for the endpoint reference, job lifecycle, and
the overload & degradation contract.
"""

from __future__ import annotations

from .cache import QueryResultCache
from .engine import IngestJob, JobStatus, ReadWriteLock, ServiceEngine, clip_from_spec
from .loadgen import LoadgenConfig, run_loadgen
from .metrics import LatencyHistogram, MetricsRegistry
from .resilience import CircuitBreaker, Deadline
from .server import DEFAULT_MAX_BODY_BYTES, create_server

__all__ = [
    "CircuitBreaker",
    "DEFAULT_MAX_BODY_BYTES",
    "Deadline",
    "IngestJob",
    "JobStatus",
    "LatencyHistogram",
    "LoadgenConfig",
    "MetricsRegistry",
    "QueryResultCache",
    "ReadWriteLock",
    "ServiceEngine",
    "clip_from_spec",
    "create_server",
    "run_loadgen",
]
