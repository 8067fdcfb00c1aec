"""One shard: an independent :class:`VideoDatabase` behind its own lock.

A shard is the unit of both *storage* and *concurrency*: its database
is bound to a durable storage root of its own (``shard.db.storage``:
manifest, generations and records) or held in memory, and it sits
behind a :class:`ReadWriteLock` of its own, so ingests into different
shards proceed in parallel while queries share each shard freely.  The
coordinator never touches ``shard.db`` without holding the shard's
lock.

A shard also carries its own health state.  The coordinator marks a
shard *down* after an unexpected error (or a test/fault hook does so
directly); a down shard is skipped by scatter-gather queries — counted
in ``shards_failed``, never an exception to the client — and refuses
single-shard operations with
:class:`~repro.errors.ShardUnavailableError` until marked up again.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator

from ..errors import ServiceTimeout, ShardUnavailableError
from ..obs import span as _span
from ..vdbms.database import VideoDatabase

__all__ = ["ReadWriteLock", "Shard"]


class ReadWriteLock:
    """A writer-preferring reader-writer lock.

    Readers share the lock; a writer is exclusive.  Arriving writers
    block *new* readers (writer preference), so a steady query stream
    cannot starve ingest registration — the opposite trade would leave
    submitted clips invisible for unbounded time.

    Both sides accept an optional ``timeout`` so a request carrying a
    deadline can give up instead of queueing forever behind a stalled
    writer; the scoped context managers raise
    :class:`~repro.errors.ServiceTimeout` on expiry.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    def acquire_read(self, timeout: float | None = None) -> bool:
        """Take the shared side (blocks while a writer holds or waits).

        Returns False when ``timeout`` seconds pass without acquiring.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while self._writer_active or self._writers_waiting:
                if deadline is None:
                    self._cond.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                    self._cond.wait(remaining)
            self._readers += 1
            return True

    def release_read(self) -> None:
        """Drop the shared side, waking a waiting writer when last out."""
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self, timeout: float | None = None) -> bool:
        """Take the exclusive side (blocks until all readers drain).

        Returns False when ``timeout`` seconds pass without acquiring.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._readers:
                    if deadline is None:
                        self._cond.wait()
                    else:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            # Readers queued behind this waiting writer
                            # must be re-woken or they would stall on a
                            # writer that gave up.
                            self._cond.notify_all()
                            return False
                        self._cond.wait(remaining)
            finally:
                self._writers_waiting -= 1
            self._writer_active = True
            return True

    def release_write(self) -> None:
        """Drop the exclusive side, waking everyone waiting."""
        with self._cond:
            self._writer_active = False
            self._cond.notify_all()

    @contextmanager
    def read_locked(self, timeout: float | None = None) -> Iterator[None]:
        """``with lock.read_locked():`` — scoped shared access."""
        if not self.acquire_read(timeout):
            raise ServiceTimeout(
                f"read lock not acquired within {timeout:.3f}s "
                f"(a writer is holding or queued)"
            )
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write_locked(self, timeout: float | None = None) -> Iterator[None]:
        """``with lock.write_locked():`` — scoped exclusive access."""
        if not self.acquire_write(timeout):
            raise ServiceTimeout(
                f"write lock not acquired within {timeout:.3f}s"
            )
        try:
            yield
        finally:
            self.release_write()


class Shard:
    """An independent database slice plus its lock and health state."""

    def __init__(self, shard_id: int, db: VideoDatabase) -> None:
        self.shard_id = shard_id
        self.db = db
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
        storage = self.db.storage
        return {
            "shard": self.name,
            "shard_id": self.shard_id,
            "root": None if storage is None else str(storage.root),
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
