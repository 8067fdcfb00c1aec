"""Observability: request tracing, trace retention, query EXPLAIN.

Public surface:

* :class:`TraceContext` / :class:`Span` — one request's span tree with
  monotonic timings and free-form annotations.
* ``current_trace()`` / ``tracing()`` / ``span()`` —
  thread-local propagation; one TLS read when tracing is off.
* :class:`TraceCollector` — bounded ring buffer of finished traces plus
  a separate slow-query ring.
* ``render_trace()`` / ``render_index_stats()`` — the human-readable
  form behind ``repro query --explain``.

Tracing is decision-neutral by construction: annotations only record
values the instrumented code already computed, and every instrumented
path behaves identically with no context installed (property-tested in
``tests/test_obs_identity.py``).
"""

from .collector import TraceCollector
from .explain import render_index_stats, render_trace
from .trace import (
    MAX_TRACE_ID_LEN,
    NOOP_SPAN,
    Span,
    TraceContext,
    current_trace,
    iter_spans,
    span,
    tracing,
    unsettled_spans,
)

__all__ = [
    "MAX_TRACE_ID_LEN",
    "NOOP_SPAN",
    "Span",
    "TraceCollector",
    "TraceContext",
    "current_trace",
    "iter_spans",
    "render_index_stats",
    "render_trace",
    "span",
    "tracing",
    "unsettled_spans",
]
