"""Request counters and latency histograms for the ``/metrics`` endpoint.

The registry is deliberately small: named monotonic counters plus one
latency histogram per endpoint and per traced stage.  Histograms use
fixed log-linear buckets — four per power of two from 1 µs to ~67 s —
so a stage of a few microseconds and a request of seconds are both
resolved to within 25%, and percentile estimates stay O(buckets)
regardless of traffic volume: the server records millions of
observations without ever storing them individually.

Everything is thread-safe behind one lock; an observation is an O(1)
bucket index and a few additions, so the lock is never held long
enough to matter next to the request work it measures.
"""

from __future__ import annotations

import math
import threading
from typing import Any

__all__ = ["LatencyHistogram", "MetricsRegistry"]

#: Linear sub-buckets per power of two.
_SUB_BUCKETS = 4

#: Powers of two covered above the first bound: 1 µs * 2**26 ~ 67 s.
_OCTAVES = 26

# Bucket upper bounds in milliseconds: 1 µs, then 2**k * (1 + j/4) µs
# for octave k and sub-bucket j = 1..4.  The +inf bucket is implicit.
_BUCKET_BOUNDS_MS: tuple[float, ...] = (0.001,) + tuple(
    2**k * (1 + j / _SUB_BUCKETS) / 1_000.0
    for k in range(_OCTAVES)
    for j in range(1, _SUB_BUCKETS + 1)
)


def _bucket(us: float) -> int:
    """Index of the bucket holding ``us`` microseconds (``bound`` is
    inclusive), in O(1): the binary exponent picks the octave and the
    mantissa the sub-bucket.  ``len(_BUCKET_BOUNDS_MS)`` is +inf."""
    if us <= 1.0:
        return 0
    # us = mantissa * 2**exponent with mantissa in [0.5, 1): octave
    # exponent - 1, position (2 * mantissa - 1) within it.
    mantissa, exponent = math.frexp(us)
    k = _SUB_BUCKETS * (exponent - 1) + math.ceil((2 * mantissa - 1) * _SUB_BUCKETS)
    return min(k, len(_BUCKET_BOUNDS_MS))


class LatencyHistogram:
    """Log-linear latency histogram with percentile estimation.

    Observations are recorded in seconds and reported in milliseconds.
    A percentile is interpolated linearly within the bucket holding its
    rank and clamped to the observed ``[min, max]``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = [0] * (len(_BUCKET_BOUNDS_MS) + 1)
        self.count = 0
        self.sum_ms = 0.0
        self.min_ms = float("inf")
        self.max_ms = 0.0

    def observe(self, seconds: float) -> None:
        """Record one latency observation."""
        ms = seconds * 1_000.0
        k = _bucket(seconds * 1_000_000.0)
        with self._lock:
            self.count += 1
            self.sum_ms += ms
            self.min_ms = min(self.min_ms, ms)
            self.max_ms = max(self.max_ms, ms)
            self._counts[k] += 1

    def percentile(self, p: float) -> float:
        """Estimated p-th percentile in milliseconds (0 < p <= 100)."""
        with self._lock:
            if self.count == 0:
                return 0.0
            rank = p / 100.0 * self.count
            cumulative = 0
            for k, bucket_count in enumerate(self._counts):
                if bucket_count and cumulative + bucket_count >= rank:
                    low = _BUCKET_BOUNDS_MS[k - 1] if k else 0.0
                    high = (
                        _BUCKET_BOUNDS_MS[k]
                        if k < len(_BUCKET_BOUNDS_MS)
                        else self.max_ms
                    )
                    share = (rank - cumulative) / bucket_count
                    estimate = low + (high - low) * share
                    return min(max(estimate, self.min_ms), self.max_ms)
                cumulative += bucket_count
            return self.max_ms  # pragma: no cover - unreachable

    def snapshot(self) -> dict[str, Any]:
        """JSON-compatible summary (counts, mean, p50/p90/p99, buckets)."""
        with self._lock:
            count = self.count
            sum_ms = self.sum_ms
            min_ms = self.min_ms if count else 0.0
            max_ms = self.max_ms
            buckets = {
                f"le_{bound:g}ms": n
                for bound, n in zip(_BUCKET_BOUNDS_MS, self._counts)
                if n
            }
            if self._counts[-1]:
                buckets["le_inf"] = self._counts[-1]
        return {
            "count": count,
            "mean_ms": round(sum_ms / count, 3) if count else 0.0,
            "min_ms": round(min_ms, 3),
            "max_ms": round(max_ms, 3),
            "p50_ms": round(self.percentile(50), 3),
            "p90_ms": round(self.percentile(90), 3),
            "p99_ms": round(self.percentile(99), 3),
            "buckets": buckets,
        }


class MetricsRegistry:
    """Named counters and gauges plus one counter/histogram per endpoint.

    Counters are monotonic (events: requests served, jobs rejected);
    gauges are set-to-value instantaneous readings (queue depth) —
    :meth:`set_gauge_max` keeps a high-water variant so a burst's peak
    survives into the post-burst ``/metrics`` scrape.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._requests: dict[str, dict[str, Any]] = {}
        self._stages: dict[str, LatencyHistogram] = {}

    def increment(self, name: str, amount: int = 1) -> None:
        """Bump a named counter (created on first use)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def counter(self, name: str) -> int:
        """Current value of a named counter (0 when never bumped)."""
        with self._lock:
            return self._counters.get(name, 0)

    def set_gauge(self, name: str, value: float) -> None:
        """Set an instantaneous gauge reading."""
        with self._lock:
            self._gauges[name] = value

    def set_gauge_max(self, name: str, value: float) -> None:
        """Raise a high-water gauge to ``value`` if it is larger."""
        with self._lock:
            if value > self._gauges.get(name, float("-inf")):
                self._gauges[name] = value

    def gauge(self, name: str) -> float:
        """Current gauge value (0.0 when never set)."""
        with self._lock:
            return self._gauges.get(name, 0.0)

    def observe_request(self, endpoint: str, status: int, seconds: float) -> None:
        """Record one served request: count, error count, latency.

        ``endpoint`` should be the *route pattern* (``GET /videos/{id}``),
        not the concrete path, so cardinality stays bounded.
        """
        with self._lock:
            record = self._requests.get(endpoint)
            if record is None:
                record = {"count": 0, "errors": 0, "latency": LatencyHistogram()}
                self._requests[endpoint] = record
            record["count"] += 1
            if status >= 400:
                record["errors"] += 1
            histogram = record["latency"]
        histogram.observe(seconds)

    def observe_stage(self, stage: str, seconds: float) -> None:
        """Record one per-stage duration (a finished trace span).

        ``stage`` is the span name (``index.search``, ``cluster.scatter``,
        ...) — a small fixed vocabulary, so cardinality stays bounded
        like the route patterns of :meth:`observe_request`.
        """
        with self._lock:
            histogram = self._stages.get(stage)
            if histogram is None:
                histogram = self._stages[stage] = LatencyHistogram()
        histogram.observe(seconds)

    def snapshot(self) -> dict[str, Any]:
        """The full ``/metrics`` document (sans cache stats, merged by
        the engine)."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            requests = {
                endpoint: (record["count"], record["errors"], record["latency"])
                for endpoint, record in self._requests.items()
            }
            stages = dict(self._stages)
        return {
            "counters": counters,
            "gauges": gauges,
            "requests": {
                endpoint: {
                    "count": count,
                    "errors": errors,
                    "latency": histogram.snapshot(),
                }
                for endpoint, (count, errors, histogram) in sorted(requests.items())
            },
            "stages": {
                stage: histogram.snapshot()
                for stage, histogram in sorted(stages.items())
            },
        }
