"""JSON-over-HTTP endpoints for the service engine.

Built on the stdlib ``ThreadingHTTPServer`` (one thread per
connection, HTTP/1.1 keep-alive) so the server needs nothing beyond
the interpreter.  Every response is a JSON document; errors follow the
same shape: ``{"error": "<message>"}`` with a 4xx/5xx status.

    GET  /health                     liveness + corpus/job counts
    GET  /ready                      readiness (503 while draining)
    GET  /metrics                    counters, latency histograms, cache
    GET  /videos                     catalog listing
    GET  /videos/<id>/shots          one video's indexed shots
    GET  /videos/<id>/tree           one video's scene tree (JSON)
    GET  /query?var_ba=..&var_oa=..  impression query (Eqs. 7-8)
    POST /query                      same, JSON body
    POST /ingest                     submit an ingest job -> 202 + job id
    GET  /jobs                       every job and its status
    GET  /jobs/<id>                  one job's lifecycle record
    GET  /debug/traces               recent + slow request traces
    POST /admin/shards/<id>/kill     take one shard out of rotation
    POST /admin/shards/<id>/revive   return one shard to rotation

Each handled request is timed and recorded against its *route
pattern* (``GET /videos/{id}/shots``), keeping ``/metrics`` cardinality
bounded no matter how many videos exist.

Request tracing (see docs/OBSERVABILITY.md): unless the engine was
built with ``trace_capacity=0``, every non-observability request runs
under a :class:`~repro.obs.TraceContext` whose finished span tree is
retained for ``GET /debug/traces`` and folded into the per-stage
histograms on ``/metrics``.  A client-supplied ``X-Trace-Id`` header
names the trace and echoes back as ``trace_id`` in the response body.

Overload contract (see docs/SERVICE.md "Overload & degradation"): a
full ingest queue answers ``429`` with ``Retry-After``; a request
whose ``X-Deadline-Ms`` budget expires answers ``503`` with a
structured ``deadline_exceeded`` body; an open storage circuit breaker
or a draining server answers ``503`` with ``Retry-After``; a body
larger than ``max_body_bytes`` answers ``413``.
"""

from __future__ import annotations

import json
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, unquote, urlsplit

from ..errors import (
    CatalogError,
    QueryError,
    ReproError,
    ServiceOverloadError,
    ServiceTimeout,
    ServiceUnavailableError,
    ShardUnavailableError,
    StorageError,
    WorkloadError,
)
from ..obs import tracing as _tracing
from .engine import ServiceEngine
from .resilience import Deadline

__all__ = ["ServiceServer", "ServiceRequestHandler", "create_server"]

#: Default cap on accepted request bodies (1 MiB) — ingest specs and
#: query bodies are tiny; anything bigger is a mistake or an attack.
DEFAULT_MAX_BODY_BYTES = 1 << 20


class ServiceServer(ThreadingHTTPServer):
    """A ``ThreadingHTTPServer`` carrying the shared engine."""

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        engine: ServiceEngine,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    ) -> None:
        super().__init__(address, ServiceRequestHandler)
        self.engine = engine
        self.max_body_bytes = max_body_bytes


class _HTTPProblem(Exception):
    """Internal: abort the current request with a status and message."""

    def __init__(self, status: int, message: str, **extra: Any) -> None:
        super().__init__(message)
        self.status = status
        self.extra = extra


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Routes JSON requests to the engine (see the module docstring)."""

    server_version = "repro-service/1.0"
    protocol_version = "HTTP/1.1"
    # Announced in logs and metrics; quieted by default (the loadgen
    # would otherwise drown the terminal in access-log lines).
    verbose = False

    @property
    def engine(self) -> ServiceEngine:
        return self.server.engine  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """Suppress per-request access logs unless ``verbose`` is set."""
        if self.verbose:  # pragma: no cover - debug aid
            super().log_message(format, *args)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def do_GET(self) -> None:
        """Handle one GET request."""
        self._dispatch("GET")

    def do_POST(self) -> None:
        """Handle one POST request."""
        self._dispatch("POST")

    #: Route heads that are themselves observability surface; tracing
    #: them would fill the ring buffer with scrapes of itself.
    _UNTRACED_HEADS = frozenset({"health", "ready", "metrics", "debug"})

    def _dispatch(self, method: str) -> None:
        started = time.perf_counter()
        split = urlsplit(self.path)
        segments = [unquote(part) for part in split.path.strip("/").split("/") if part]
        # _route overwrites this with the resolved pattern before calling
        # into the engine, so even error responses are recorded against a
        # bounded route label rather than the concrete path.
        self._route_pattern = f"{method} /<unrouted>"
        self._deadline = None
        head = segments[0] if segments else ""
        client_trace_id = self.headers.get("X-Trace-Id")
        ctx = (
            None
            if head in self._UNTRACED_HEADS
            else self.engine.trace_context(client_trace_id)
        )
        if ctx is None:
            status, payload, headers = self._handle(method, segments, split.query)
        else:
            with _tracing(ctx):
                status, payload, headers = self._handle(method, segments, split.query)
            ctx.root.annotate(route=self._route_pattern, status=status)
            # Shed work still leaves a complete (short) trace: the
            # rejection reason rides on the root span, so overload
            # behavior is debuggable from /debug/traces alone.
            if status in (429, 503):
                ctx.root.annotate(rejected=payload.get("reason", "unavailable"))
            elif status >= 400:
                ctx.root.annotate(error=payload.get("error", True))
            self.engine.observe_trace(ctx)
            if client_trace_id:
                payload = dict(payload, trace_id=ctx.trace_id)
        self._send_json(status, payload, headers)
        self.engine.metrics.observe_request(
            self._route_pattern, status, time.perf_counter() - started
        )

    def _handle(
        self, method: str, segments: list[str], query_string: str
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        """Route one request, mapping every failure to its status."""
        headers: dict[str, str] = {}
        try:
            self._deadline = self._request_deadline()
            status, payload = self._route(method, segments, query_string)
        except _HTTPProblem as problem:
            status, payload = problem.status, {"error": str(problem), **problem.extra}
        except CatalogError as exc:
            status, payload = 404, {"error": str(exc)}
        except ServiceOverloadError as exc:
            status = 429
            payload = {
                "error": str(exc),
                "reason": "overloaded",
                "retry_after_s": exc.retry_after,
            }
            headers["Retry-After"] = str(max(1, round(exc.retry_after)))
        except ServiceTimeout as exc:
            status = 503
            payload = {"error": str(exc), "reason": "deadline_exceeded"}
            if self._deadline is not None:
                payload["deadline_ms"] = self._deadline.budget_s * 1_000.0
            self.engine.metrics.increment("deadline_exceeded")
        except ServiceUnavailableError as exc:
            # Covers CircuitOpenError too: the service is up but this
            # work cannot be accepted right now.
            status = 503
            payload = {
                "error": str(exc),
                "reason": "circuit_open"
                if type(exc).__name__ == "CircuitOpenError"
                else "draining",
                "retry_after_s": exc.retry_after,
            }
            headers["Retry-After"] = str(max(1, round(exc.retry_after)))
        except ShardUnavailableError as exc:
            # A single-shard operation (ingest routing, per-video
            # lookup) hit a down shard.  Scatter-gather queries never
            # raise this — they fail over to replicas (complete answer)
            # or degrade to a partial one.
            status = 503
            payload = {"error": str(exc), "reason": "shard_down"}
            headers["Retry-After"] = "5"
        except StorageError as exc:
            # A durability fault, not a bad request — the client's input
            # was fine; surface it as a server-side failure.
            status, payload = 500, {"error": str(exc)}
        except (QueryError, WorkloadError, ValueError) as exc:
            status, payload = 400, {"error": str(exc)}
        except ReproError as exc:
            status, payload = 500, {"error": str(exc)}
        except Exception as exc:  # pragma: no cover - defensive
            status, payload = 500, {"error": f"internal error: {exc}"}
        return status, payload, headers

    def _request_deadline(self) -> Deadline | None:
        """The request's deadline budget (header, else engine default)."""
        raw = self.headers.get("X-Deadline-Ms")
        if raw is not None:
            try:
                budget_ms = float(raw)
            except ValueError:
                raise _HTTPProblem(
                    400, f"X-Deadline-Ms must be a number, got {raw!r}"
                ) from None
            if budget_ms <= 0:
                raise _HTTPProblem(
                    400, f"X-Deadline-Ms must be positive, got {budget_ms:g}"
                )
        elif self.engine.default_deadline_ms is not None:
            budget_ms = self.engine.default_deadline_ms
        else:
            return None
        return Deadline.after_ms(budget_ms, clock=self.engine._clock)

    def _route(
        self, method: str, segments: list[str], query_string: str
    ) -> tuple[int, dict[str, Any]]:
        """Resolve one request to ``(status, payload)``."""
        engine = self.engine
        head = segments[0] if segments else ""

        def pattern(route: str) -> None:
            self._route_pattern = route

        if method == "GET" and segments == ["health"]:
            pattern("GET /health")
            return 200, engine.health_payload()
        if method == "GET" and segments == ["ready"]:
            pattern("GET /ready")
            payload = engine.ready_payload()
            return (200 if payload["ready"] else 503), payload
        if method == "GET" and segments == ["metrics"]:
            pattern("GET /metrics")
            return 200, engine.metrics_payload()
        if method == "GET" and segments == ["debug", "traces"]:
            pattern("GET /debug/traces")
            return 200, engine.debug_traces_payload()
        if method == "GET" and segments == ["videos"]:
            pattern("GET /videos")
            return 200, engine.catalog_payload(deadline=self._deadline)
        if method == "GET" and len(segments) == 3 and head == "videos":
            _, video_id, leaf = segments
            if leaf == "shots":
                pattern("GET /videos/{id}/shots")
                return 200, engine.shots_payload(video_id, deadline=self._deadline)
            if leaf == "tree":
                pattern("GET /videos/{id}/tree")
                return 200, engine.tree_payload(video_id, deadline=self._deadline)
            raise _HTTPProblem(404, f"unknown video resource {leaf!r}")
        if method == "POST" and segments == ["query", "batch"]:
            pattern("POST /query/batch")
            body = self._json_body()
            payload = engine.query_batch(
                body.get("queries"),
                limit=self._limit_param(body),
                alpha=self._optional_float(body, "alpha"),
                beta=self._optional_float(body, "beta"),
                deadline=self._deadline,
            )
            return 200, payload
        if segments == ["query"]:
            pattern(f"{method} /query")
            if method == "GET":
                params = self._query_params(query_string)
            else:
                params = self._json_body()
            payload, was_cached = engine.query(
                var_ba=self._float_param(params, "var_ba"),
                var_oa=self._float_param(params, "var_oa"),
                limit=self._limit_param(params),
                alpha=self._optional_float(params, "alpha"),
                beta=self._optional_float(params, "beta"),
                deadline=self._deadline,
            )
            return 200, dict(payload, cached=was_cached)
        if method == "POST" and segments == ["ingest"]:
            pattern("POST /ingest")
            job = engine.submit_spec(self._json_body())
            return 202, {"job_id": job.job_id, "status": job.status.value}
        if method == "GET" and segments == ["jobs"]:
            pattern("GET /jobs")
            jobs = [job.to_dict() for job in engine.jobs()]
            return 200, {"count": len(jobs), "jobs": jobs}
        if (
            method == "POST"
            and len(segments) == 4
            and segments[0] == "admin"
            and segments[1] == "shards"
            and segments[3] in ("kill", "revive")
        ):
            # Shard fault injection: deliberate (loadgen outage drills,
            # chaos tests), so it lives under /admin rather than beside
            # the data-plane routes.
            action = segments[3]
            pattern(f"POST /admin/shards/{{id}}/{action}")
            try:
                shard_id = int(segments[2])
            except ValueError:
                raise _HTTPProblem(
                    400, f"shard id must be an integer, got {segments[2]!r}"
                ) from None
            if action == "kill":
                return 200, engine.kill_shard(shard_id)
            return 200, engine.revive_shard(shard_id)
        if method == "GET" and len(segments) == 2 and head == "jobs":
            pattern("GET /jobs/{id}")
            try:
                job = engine.job(segments[1])
            except ReproError as exc:
                raise _HTTPProblem(404, str(exc)) from None
            return 200, job.to_dict()
        raise _HTTPProblem(404, f"no route for {method} /{'/'.join(segments)}")

    # ------------------------------------------------------------------
    # request parsing
    # ------------------------------------------------------------------

    def _json_body(self) -> dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        limit = self.server.max_body_bytes  # type: ignore[attr-defined]
        if length > limit:
            # Read nothing: draining an oversized body would let a
            # client tie up this connection thread with the very bytes
            # being rejected.  The connection is closed instead.
            self.close_connection = True
            raise _HTTPProblem(
                413,
                f"request body of {length} bytes exceeds the "
                f"{limit}-byte limit",
                reason="body_too_large",
                max_body_bytes=limit,
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise _HTTPProblem(400, "request body must be a JSON object")
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise _HTTPProblem(400, f"malformed JSON body: {exc}") from None
        if not isinstance(body, dict):
            raise _HTTPProblem(400, "request body must be a JSON object")
        return body

    @staticmethod
    def _query_params(query_string: str) -> dict[str, Any]:
        return {key: values[-1] for key, values in parse_qs(query_string).items()}

    @staticmethod
    def _float_param(params: dict[str, Any], name: str) -> float:
        if name not in params:
            raise _HTTPProblem(400, f"missing required parameter {name!r}")
        try:
            return float(params[name])
        except (TypeError, ValueError):
            raise _HTTPProblem(400, f"parameter {name!r} must be a number") from None

    @staticmethod
    def _optional_float(params: dict[str, Any], name: str) -> float | None:
        if params.get(name) is None:
            return None
        try:
            return float(params[name])
        except (TypeError, ValueError):
            raise _HTTPProblem(400, f"parameter {name!r} must be a number") from None

    @staticmethod
    def _limit_param(params: dict[str, Any]) -> int | None:
        if params.get("limit") is None:
            return None
        try:
            limit = int(params["limit"])
        except (TypeError, ValueError):
            raise _HTTPProblem(400, "parameter 'limit' must be an integer") from None
        if limit < 1:
            raise _HTTPProblem(400, f"limit must be a positive integer, got {limit}")
        return limit

    # ------------------------------------------------------------------
    # response writing
    # ------------------------------------------------------------------

    def _send_json(
        self,
        status: int,
        payload: dict[str, Any],
        headers: dict[str, str] | None = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass  # client went away mid-response; nothing to salvage


def create_server(
    engine: ServiceEngine,
    host: str = "127.0.0.1",
    port: int = 0,
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
) -> ServiceServer:
    """Bind a service server (``port=0`` picks an ephemeral port).

    The caller owns the serve loop::

        server = create_server(engine, port=8080)
        server.serve_forever()   # Ctrl-C to stop
    """
    return ServiceServer((host, port), engine, max_body_bytes=max_body_bytes)
