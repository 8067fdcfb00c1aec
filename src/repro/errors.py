"""Exception hierarchy for the ``repro`` library.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch the whole family with one
``except`` clause while still being able to distinguish the specific
failure modes that matter to them (bad frames, malformed containers,
query mistakes, ...).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "FrameError",
    "DimensionError",
    "VideoFormatError",
    "EmptyClipError",
    "ShotError",
    "SceneTreeError",
    "IndexError_",
    "QueryError",
    "CatalogError",
    "StorageError",
    "StorageIntegrityError",
    "WorkloadError",
    "ServiceTimeout",
    "ServiceOverloadError",
    "ServiceUnavailableError",
    "CircuitOpenError",
    "ClusterError",
    "ShardUnavailableError",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class FrameError(ReproError):
    """A video frame is malformed (wrong dtype, shape, or value range)."""


class DimensionError(ReproError):
    """A geometric dimension is invalid for the requested operation.

    Raised, for example, when a frame is too small to carve out a
    background area, or when a length is not a member of the Gaussian
    Pyramid size set but the caller required one.
    """


class VideoFormatError(ReproError):
    """A serialized video container is corrupt or has the wrong magic."""


class EmptyClipError(ReproError):
    """An operation that needs at least one frame received an empty clip."""


class ShotError(ReproError):
    """A shot record is inconsistent (empty range, reversed bounds, ...)."""


class SceneTreeError(ReproError):
    """Scene-tree construction or navigation failed."""


class IndexError_(ReproError):
    """The similarity index is in an invalid state.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`IndexError`.
    """


class QueryError(ReproError):
    """A similarity query is malformed (negative variances, bad ranges)."""


class CatalogError(ReproError):
    """A catalog operation referenced an unknown or duplicate video."""


class StorageError(ReproError):
    """The on-disk database layout is missing or inconsistent."""


class StorageIntegrityError(StorageError):
    """A stored file's bytes do not match its manifest record.

    Raised when a checksum or size check fails on load — the file was
    torn by a crash or silently corrupted by the disk.  Distinct from
    plain :class:`StorageError` so callers (e.g. the service ingest
    retry loop) can treat it as *permanent*: re-reading corrupt bytes
    never helps, unlike a transient I/O failure.
    """


class WorkloadError(ReproError):
    """A synthetic workload specification is invalid."""


class ServiceTimeout(ReproError):
    """A service operation did not finish within its deadline budget.

    Raised when a request's deadline (``X-Deadline-Ms``) expires before
    the answer is ready — including while waiting for a shard's
    reader-writer lock — and by ``ServiceEngine.wait_for``/``drain``
    when jobs do not settle in time.  Maps to HTTP 503 with a
    structured ``deadline_exceeded`` body.
    """


class ServiceOverloadError(ReproError):
    """The service refused new work because it is saturated.

    Raised at admission time when the bounded ingest queue is full.
    Maps to HTTP 429 with a ``Retry-After`` hint; ``retry_after`` is
    the suggested backoff in seconds.
    """

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class ServiceUnavailableError(ReproError):
    """The service is up but deliberately not accepting this work.

    Raised while the server is draining for shutdown (readiness is
    down) — the client should retry against another replica.  Maps to
    HTTP 503 with a ``Retry-After`` hint.
    """

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class CircuitOpenError(ServiceUnavailableError):
    """The storage circuit breaker is open; ingest fails fast.

    A subclass of :class:`ServiceUnavailableError` so generic 503
    handling applies; ``retry_after`` reflects the breaker's next
    half-open probe time.
    """


class ClusterError(ReproError):
    """A sharded-cluster operation is invalid or cannot proceed.

    Raised for malformed cluster layouts (bad ``cluster.json``, shard
    count mismatches), stale or refused rebalance actions, and
    operations that require a shard the cluster does not have.
    """


class ShardUnavailableError(ClusterError):
    """A specific shard is down or failed to answer.

    Scatter-gather *queries* absorb this into a partial answer (the
    shard lands in ``shards_failed``); single-shard operations that
    cannot degrade — ingesting to, or removing from, the owning shard —
    surface it to the caller instead.
    """
