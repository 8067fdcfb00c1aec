"""Overload-resilience primitives: deadlines and a circuit breaker.

Two small, independently testable pieces the serving layer composes:

* :class:`Deadline` — a per-request time budget.  The server mints one
  from the ``X-Deadline-Ms`` header (or the engine default) and passes
  it down through the engine to the shard reader-writer locks, so a request
  that cannot be answered in time fails *fast* with a structured 503
  instead of hanging behind a stalled writer.
* :class:`CircuitBreaker` — the classic closed/open/half-open state
  machine wrapped around the durable storage publish.  Consecutive
  transient storage failures trip it open; while open, ingest fails
  fast (the backend is sick — queueing more work onto it only deepens
  the outage); after ``reset_timeout`` a single half-open probe is let
  through, and its outcome either closes the breaker or re-opens it.

Both take an injectable monotonic ``clock`` so the chaos harness
(:mod:`repro.testing.chaos`) can drive every transition
deterministically — no ``sleep()`` races in tests.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

from ..errors import ServiceTimeout

__all__ = ["CircuitBreaker", "Deadline"]


class Deadline:
    """A monotonic-clock deadline for one request.

    Args:
        budget_s: seconds from now until the deadline expires.
        clock: monotonic time source (injectable for tests).
    """

    __slots__ = ("_clock", "budget_s", "expires_at")

    def __init__(
        self, budget_s: float, clock: Callable[[], float] = time.monotonic
    ) -> None:
        if budget_s <= 0:
            raise ValueError(f"deadline budget must be positive, got {budget_s}")
        self._clock = clock
        self.budget_s = float(budget_s)
        self.expires_at = clock() + float(budget_s)

    @classmethod
    def after_ms(
        cls, budget_ms: float, clock: Callable[[], float] = time.monotonic
    ) -> "Deadline":
        """A deadline ``budget_ms`` milliseconds from now."""
        return cls(budget_ms / 1_000.0, clock=clock)

    def remaining(self) -> float:
        """Seconds left before expiry, clamped at 0."""
        return max(0.0, self.expires_at - self._clock())

    @property
    def expired(self) -> bool:
        """Whether the budget is already spent."""
        return self._clock() >= self.expires_at

    def check(self, what: str) -> None:
        """Raise :class:`ServiceTimeout` if the deadline has passed."""
        if self.expired:
            raise ServiceTimeout(
                f"{what}: deadline of {self.budget_s * 1_000:.0f}ms exceeded"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Deadline(remaining={self.remaining():.3f}s)"


class CircuitBreaker:
    """A closed/open/half-open circuit breaker (thread-safe).

    State machine:

    - ``closed`` — calls flow; ``failure_threshold`` *consecutive*
      failures trip the breaker open.
    - ``open`` — :meth:`allow` returns False until ``reset_timeout``
      seconds have passed since the trip, then transitions to
      half-open.
    - ``half_open`` — exactly one probe call is admitted; its success
      closes the breaker, its failure re-opens it (restarting the
      timer).  Concurrent callers are refused while the probe is in
      flight.

    :meth:`admits` answers "would new work have any chance?" without
    consuming the half-open probe — the admission-control check used
    by ``submit_*`` — while :meth:`allow` is the call-site gate that
    does reserve the probe.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_timeout <= 0:
            raise ValueError(f"reset_timeout must be positive, got {reset_timeout}")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._clock = clock
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at: float | None = None
        self._probe_in_flight = False
        self.times_opened = 0
        self.total_failures = 0
        self.total_successes = 0

    # -- state inspection ----------------------------------------------

    @property
    def state(self) -> str:
        """Current state, advancing ``open -> half_open`` lazily."""
        with self._lock:
            self._advance_locked()
            return self._state

    def retry_after(self) -> float:
        """Seconds until the next probe could run (0 when not open)."""
        with self._lock:
            self._advance_locked()
            if self._state != self.OPEN or self._opened_at is None:
                return 0.0
            return max(0.0, self._opened_at + self.reset_timeout - self._clock())

    def snapshot(self) -> dict[str, Any]:
        """JSON-compatible state for ``/health`` and ``/metrics``."""
        with self._lock:
            self._advance_locked()
            return {
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "failure_threshold": self.failure_threshold,
                "times_opened": self.times_opened,
                "total_failures": self.total_failures,
                "total_successes": self.total_successes,
                "reset_timeout_s": self.reset_timeout,
            }

    # -- gating ---------------------------------------------------------

    def admits(self) -> bool:
        """Whether new work should be *accepted* (no probe consumed)."""
        with self._lock:
            self._advance_locked()
            return self._state != self.OPEN

    def allow(self) -> bool:
        """Whether a call may proceed now; reserves the half-open probe."""
        with self._lock:
            self._advance_locked()
            if self._state == self.CLOSED:
                return True
            if self._state == self.HALF_OPEN and not self._probe_in_flight:
                self._probe_in_flight = True
                return True
            return False

    def record_success(self) -> None:
        """Note a successful call; closes a half-open breaker."""
        with self._lock:
            self.total_successes += 1
            self._consecutive_failures = 0
            self._probe_in_flight = False
            self._state = self.CLOSED
            self._opened_at = None

    def release_probe(self) -> None:
        """Un-reserve a half-open probe whose call ended without a
        storage verdict (e.g. a permanent application error) so the
        next caller can probe instead of waiting forever."""
        with self._lock:
            self._probe_in_flight = False

    def record_failure(self) -> None:
        """Note a failed call; may trip or re-open the breaker."""
        with self._lock:
            self.total_failures += 1
            self._consecutive_failures += 1
            if self._state == self.HALF_OPEN:
                # The probe failed: back to open, restart the timer.
                self._probe_in_flight = False
                self._open_locked()
            elif (
                self._state == self.CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._open_locked()

    # -- internals ------------------------------------------------------

    def _open_locked(self) -> None:
        self._state = self.OPEN
        self._opened_at = self._clock()
        self.times_opened += 1

    def _advance_locked(self) -> None:
        """Lazily move ``open -> half_open`` once the timer elapses."""
        if (
            self._state == self.OPEN
            and self._opened_at is not None
            and self._clock() - self._opened_at >= self.reset_timeout
        ):
            self._state = self.HALF_OPEN
            self._probe_in_flight = False
