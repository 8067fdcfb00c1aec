"""One shard: an independent :class:`VideoDatabase` behind its own lock.

A shard is the unit of both *storage* and *concurrency*: it owns a
durable storage root (its own manifest, generations, and locks — the
PR-3 machinery, unchanged) and a reader-writer lock of its own, so
ingests into different shards proceed in parallel while queries share
each shard freely.  The coordinator never touches ``shard.db`` without
holding the shard's lock.

A shard also carries its own health state.  The coordinator marks a
shard *down* after an unexpected error (or a test/fault hook does so
directly); a down shard is skipped by scatter-gather queries — counted
in ``shards_failed``, never an exception to the client — and refuses
single-shard operations with
:class:`~repro.errors.ShardUnavailableError` until marked up again.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from ..errors import ServiceTimeout, ShardUnavailableError
from ..obs import span as _span
from ..service.engine import ReadWriteLock
from ..vdbms.database import VideoDatabase

__all__ = ["Shard"]


class Shard:
    """An independent database slice plus its lock and health state."""

    def __init__(
        self,
        shard_id: int,
        db: VideoDatabase,
        root: Path | None = None,
    ) -> None:
        self.shard_id = shard_id
        self.db = db
        self.root = root
        self.lock = ReadWriteLock()
        self._state_lock = threading.Lock()
        self._down_reason: str | None = None
        #: Monotonic counters surfaced on ``/metrics``.
        self.ingests = 0
        self.queries = 0
        self.errors = 0
        #: Replica copies adopted onto this shard (write-path fan-out).
        self.replications = 0
        #: Copies restored onto this shard by a repair pass or the scrubber.
        self.repairs = 0

    @property
    def name(self) -> str:
        """Stable display name, e.g. ``"shard-2"``."""
        return f"shard-{self.shard_id}"

    # ------------------------------------------------------------------
    # health
    # ------------------------------------------------------------------

    @property
    def down(self) -> bool:
        """Whether the shard is marked unavailable."""
        with self._state_lock:
            return self._down_reason is not None

    @property
    def down_reason(self) -> str | None:
        with self._state_lock:
            return self._down_reason

    def mark_down(self, reason: str) -> None:
        """Take the shard out of rotation (idempotent)."""
        with self._state_lock:
            if self._down_reason is None:
                self._down_reason = reason

    def mark_up(self) -> None:
        """Return the shard to rotation (idempotent)."""
        with self._state_lock:
            self._down_reason = None

    def check_up(self, what: str) -> None:
        """Raise :class:`ShardUnavailableError` when the shard is down."""
        with self._state_lock:
            if self._down_reason is not None:
                raise ShardUnavailableError(
                    f"{what}: {self.name} is down ({self._down_reason})"
                )

    @contextmanager
    def traced_read(self, timeout: float | None) -> Iterator[None]:
        """``lock.read_locked`` with the acquisition wait timed as a
        ``shard.lock_wait`` span — when a p99 regresses, "queued behind
        a writer" and "slow index scan" must be distinguishable."""
        with _span("shard.lock_wait") as lock_span:
            acquired = self.lock.acquire_read(timeout)
            lock_span.annotate(acquired=acquired)
        if not acquired:
            raise ServiceTimeout(
                f"read lock not acquired within {timeout:.3f}s "
                f"(a writer is holding or queued)"
            )
        try:
            yield
        finally:
            self.lock.release_read()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def status(self) -> dict[str, Any]:
        """JSON-compatible shard state for ``/health`` and the CLI.

        Corpus counts are unsynchronized snapshots (len() of the
        catalog/index), deliberately lock-free so status answers even
        while a writer holds the shard.
        """
        with self._state_lock:
            down_reason = self._down_reason
        return {
            "shard": self.name,
            "shard_id": self.shard_id,
            "root": str(self.root) if self.root is not None else None,
            "up": down_reason is None,
            "down_reason": down_reason,
            "videos": len(self.db.catalog),
            "indexed_shots": len(self.db.index),
            "ingests": self.ingests,
            "queries": self.queries,
            "errors": self.errors,
            "replications": self.replications,
            "repairs": self.repairs,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Shard({self.name}, videos={len(self.db.catalog)})"
