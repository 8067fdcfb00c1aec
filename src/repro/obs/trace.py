"""Request tracing: trace contexts, spans, thread-local propagation.

A :class:`TraceContext` is one request's worth of spans — a tree rooted
at the span created with the context itself.  Spans are timed with
``time.perf_counter()`` (monotonic; wall-clock steps never skew a
duration) and carry free-form annotations (band bounds, candidate
counts, ...) attached by the code that owns the numbers.

Propagation is thread-local: ``tracing(ctx)`` installs a context on
the current thread for the duration of a ``with`` block, and
instrumented code discovers it with ``current_trace()`` — one TLS
attribute read, the *entire* cost of tracing when disabled.  The whole
read path, the cluster's scatter included, runs on the request's
thread.

Instrumentation never changes decisions: every annotation records a
value the traced code already computed, and every guard is
``if span is not None``.  The property suite in
``tests/test_obs_identity.py`` holds the layer to that contract.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, ContextManager, Iterator

__all__ = [
    "Span",
    "TraceContext",
    "current_trace",
    "tracing",
    "span",
    "iter_spans",
    "unsettled_spans",
]

_tls = threading.local()

#: Cap on caller-supplied trace ids (``X-Trace-Id`` headers) so a
#: hostile client cannot balloon the collector's memory.
MAX_TRACE_ID_LEN = 128


def _new_trace_id() -> str:
    return os.urandom(8).hex()


class Span:
    """One timed stage of a request.  Created via ``TraceContext.begin``."""

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "started_s",
        "ended_s",
        "annotations",
        "_ctx",
        "_prev",
    )

    def __init__(
        self, ctx: "TraceContext", name: str, span_id: int, parent_id: int | None
    ) -> None:
        self._ctx = ctx
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.started_s = ctx._clock()
        self.ended_s: float | None = None
        self.annotations: dict[str, Any] = {}

    def annotate(self, **kv: Any) -> None:
        """Attach key/value evidence to the span (last write wins)."""
        self.annotations.update(kv)

    def end(self) -> None:
        """Settle the span.  Idempotent; restores the thread's current
        span only if this span is still the innermost one there."""
        if self.ended_s is not None:
            return
        self.ended_s = self._ctx._clock()
        tls = self._ctx._span_tls
        if getattr(tls, "current", None) is self:
            tls.current = self._prev

    @property
    def duration_ms(self) -> float | None:
        if self.ended_s is None:
            return None
        return (self.ended_s - self.started_s) * 1_000.0

    def to_dict(self, origin_s: float) -> dict[str, Any]:
        """This span as a JSON-safe node, timed relative to ``origin_s``
        (the root span's start) so the whole tree shares one origin."""
        doc: dict[str, Any] = {
            "name": self.name,
            "span_id": self.span_id,
            "start_ms": round((self.started_s - origin_s) * 1_000.0, 4),
            "duration_ms": (
                None if self.duration_ms is None else round(self.duration_ms, 4)
            ),
        }
        if self.annotations:
            doc["annotations"] = dict(self.annotations)
        return doc


class _NoopSpan:
    """Stand-in yielded by ``span(...)`` when no trace is active — its
    own context manager, so a disabled ``span()`` allocates nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None

    def annotate(self, **kv: Any) -> None:
        pass

    def end(self) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class TraceContext:
    """Trace id + span tree for one request.

    Thread-safe: spans may be begun/ended from any thread holding the
    context.  Each thread keeps its own "current span" pointer, so
    spans begun on different threads parent correctly without racing
    each other.
    """

    def __init__(self, trace_id: str | None = None, name: str = "trace") -> None:
        tid = (trace_id or "").strip()[:MAX_TRACE_ID_LEN]
        self.trace_id = tid or _new_trace_id()
        self._clock = time.perf_counter
        self._lock = threading.Lock()
        self._ids = itertools.count(2)
        self._span_tls = threading.local()
        self._spans: list[Span] = []
        self._doc: dict[str, Any] | None = None
        self.started_at = time.time()
        self.root = Span(self, name, span_id=1, parent_id=None)
        self.root._prev = None
        self._spans.append(self.root)
        self._span_tls.current = self.root

    def begin(self, name: str, parent: Span | None = None) -> Span:
        """Open a child span.  Parents under ``parent`` when given, else
        under the calling thread's current span (falling back to root)."""
        tls = self._span_tls
        prev = getattr(tls, "current", None)
        if parent is None:
            parent = prev if prev is not None else self.root
        with self._lock:
            span = Span(self, name, span_id=next(self._ids), parent_id=parent.span_id)
            self._spans.append(span)
        span._prev = prev
        tls.current = span
        return span

    def finish(self) -> dict[str, Any]:
        """Settle every span (marking stragglers ``unsettled``), close
        the root, and return the JSON-safe trace document.  Idempotent."""
        if self._doc is not None:
            return self._doc
        with self._lock:
            spans = list(self._spans)
        for span in reversed(spans):
            if span.ended_s is None and span is not self.root:
                span.annotations.setdefault("unsettled", True)
                span.end()
        self.root.end()
        self._doc = self.to_dict()
        return self._doc

    def to_dict(self) -> dict[str, Any]:
        """The trace as a JSON-safe document: header fields plus the
        nested span tree under ``root`` (see docs/OBSERVABILITY.md)."""
        with self._lock:
            spans = list(self._spans)
        origin = self.root.started_s
        nodes = {s.span_id: s.to_dict(origin) for s in spans}
        root_doc: dict[str, Any] | None = None
        for s in spans:
            node = nodes[s.span_id]
            if s.parent_id is None:
                root_doc = node
            else:
                nodes[s.parent_id].setdefault("children", []).append(node)
        return {
            "trace_id": self.trace_id,
            "started_at": round(self.started_at, 3),
            "duration_ms": nodes[self.root.span_id]["duration_ms"],
            "n_spans": len(spans),
            "root": root_doc,
        }


def current_trace() -> TraceContext | None:
    """The active trace on this thread, or None.  This one attribute
    read is the whole per-call-site cost of disabled tracing."""
    return getattr(_tls, "ctx", None)


@contextmanager
def tracing(ctx: TraceContext | None) -> Iterator[TraceContext | None]:
    """Install ``ctx`` as this thread's active trace for the block."""
    prev = getattr(_tls, "ctx", None)
    _tls.ctx = ctx
    try:
        yield ctx
    finally:
        _tls.ctx = prev


def span(name: str, **annotations: Any) -> ContextManager[Span | _NoopSpan]:
    """Open a span under the active trace; the shared :data:`NOOP_SPAN`
    when tracing is off, so call sites stay unconditional."""
    ctx = getattr(_tls, "ctx", None)
    if ctx is None:
        return NOOP_SPAN
    return _opened(ctx, name, annotations)


@contextmanager
def _opened(
    ctx: TraceContext, name: str, annotations: dict[str, Any]
) -> Iterator[Span]:
    s = ctx.begin(name)
    if annotations:
        s.annotations.update(annotations)
    try:
        yield s
    finally:
        s.end()


def iter_spans(doc: dict[str, Any]) -> Iterator[tuple[int, dict[str, Any]]]:
    """Walk a trace document depth-first, yielding (depth, span_doc)."""
    root = doc.get("root")
    if not root:
        return
    stack: list[tuple[int, dict[str, Any]]] = [(0, root)]
    while stack:
        depth, node = stack.pop()
        yield depth, node
        for child in reversed(node.get("children", ())):
            stack.append((depth + 1, child))


def unsettled_spans(doc: dict[str, Any]) -> list[str]:
    """Names of spans that were force-closed by ``finish()`` — should
    always be empty; a non-empty list is an instrumentation bug."""
    return [
        node["name"]
        for _, node in iter_spans(doc)
        if node.get("annotations", {}).get("unsettled")
        or node.get("duration_ms") is None
    ]
