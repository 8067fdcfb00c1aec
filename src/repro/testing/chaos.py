"""Chaos tooling for the service's overload and resilience tests.

Builds on the :class:`~repro.vdbms.fsio.LocalFS` seam that
:mod:`repro.testing.faults` established, adding the pieces the
overload-resilience tests need to run *deterministically*:

* :class:`FakeClock` — an injectable monotonic clock whose ``sleep``
  simply advances the clock, so circuit-breaker reset timers and
  retry backoffs elapse instantly and reproducibly;
* :class:`StallingFS` — a filesystem whose writes block on an event
  until released (a hung NFS mount / dying disk), with a hard real-time
  cap so a buggy test fails loudly instead of hanging CI;
* :class:`StallingHook` — the same idea at the ingest-hook level, for
  wedging a worker without involving storage;
* :func:`run_overload_burst` — fires a concurrent burst of ingest
  submissions at a live server and tallies the responses by status
  class, which is how the 2x-saturation acceptance test distinguishes
  "shed load with 429" from "fell over with 5xx";
* :func:`break_shard_queries` — makes one cluster shard's read path
  raise for a ``with`` block, so scatters record repeated
  ``reason="error"`` failures against a shard that is *not* marked
  down — the pattern the shard supervisor's consecutive-failure
  counter exists to catch.

Everything here is stdlib-only, like the rest of the package.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

from ..errors import StorageError
from ..vdbms.fsio import LocalFS

__all__ = [
    "FakeClock",
    "StallingFS",
    "StallingHook",
    "break_shard_queries",
    "run_overload_burst",
]


@contextmanager
def break_shard_queries(
    shard: Any,
    exc_factory: Callable[[], BaseException] = lambda: OSError(
        "injected shard query fault"
    ),
) -> Iterator[Any]:
    """Make one shard's read path raise for the duration of the block.

    Shadows ``shard.db.query_batch`` (the one read path: a single
    query is a batch of one) with a raising stub, an instance
    attribute removed on exit, so every scatter touching the shard
    degrades with ``reason="error"`` while the shard stays nominally
    up — a flapping replica rather than a clean outage.
    Unlike :class:`~repro.testing.faults.ShardOutage` this exercises
    the error-classification path and the supervisor's breaker, not
    the down-shard skip.
    """

    def boom(*args: Any, **kwargs: Any) -> Any:
        raise exc_factory()

    shard.db.query_batch = boom
    try:
        yield shard
    finally:
        del shard.db.query_batch


class FakeClock:
    """A deterministic monotonic clock; ``sleep`` advances it.

    Pass the instance as both ``clock`` and ``sleep`` to
    :class:`~repro.service.engine.ServiceEngine` (or as ``clock`` to
    :class:`~repro.service.resilience.CircuitBreaker`): calling it
    reads the time, ``sleep(d)`` advances it by ``d``, and
    ``advance(d)`` moves it explicitly.  Breaker reset windows and
    retry backoffs then elapse exactly when the test says they do.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._lock = threading.Lock()
        self._now = float(start)

    def __call__(self) -> float:
        """Current fake time (monotonic seconds)."""
        with self._lock:
            return self._now

    def advance(self, seconds: float) -> float:
        """Move the clock forward; returns the new time."""
        if seconds < 0:
            raise ValueError(f"cannot advance a monotonic clock by {seconds}")
        with self._lock:
            self._now += seconds
            return self._now

    def sleep(self, seconds: float) -> None:
        """A "sleep" that just advances the clock (no real waiting)."""
        self.advance(max(0.0, seconds))


class StallingHook:
    """An ingest hook that blocks until released (a wedged worker).

    ``entered`` is set the moment a call starts waiting, so a test can
    synchronize on "the worker is now stuck" before asserting.  The
    ``max_stall_s`` real-time cap turns a forgotten :meth:`release`
    into a loud :class:`RuntimeError` instead of a hung test run.
    """

    def __init__(self, max_stall_s: float = 30.0) -> None:
        self.max_stall_s = max_stall_s
        self.entered = threading.Event()
        self._release = threading.Event()
        self.calls = 0

    def release(self) -> None:
        """Unblock every current and future call."""
        self._release.set()

    def __call__(self, clip: Any) -> None:
        self.calls += 1
        self.entered.set()
        if not self._release.wait(self.max_stall_s):
            raise RuntimeError(
                f"StallingHook held for more than {self.max_stall_s}s "
                "without release() — test bug"
            )


class StallingFS(LocalFS):
    """A filesystem whose mutating ops block while :meth:`stall` is on.

    Models a storage backend that stops answering (hung NFS server,
    failing disk) rather than erroring: the operation neither succeeds
    nor raises until :meth:`release` is called.  While a durable
    publish is wedged inside one of these, it holds the engine's write
    lock — exactly the scenario the deadline tests need ("a stalled
    storage backend cannot wedge query traffic past its deadline").

    ``entered`` is set when an operation begins waiting.  After
    ``max_stall_s`` of real time the operation raises
    :class:`~repro.errors.StorageError` so an un-released test fails
    instead of hanging.
    """

    def __init__(
        self,
        stall_ops: tuple[str, ...] = ("write", "fsync", "replace"),
        max_stall_s: float = 30.0,
    ) -> None:
        self.stall_ops = frozenset(stall_ops)
        self.max_stall_s = max_stall_s
        self.entered = threading.Event()
        self._release = threading.Event()
        self._release.set()  # starts un-stalled
        self.stalled_calls = 0

    def stall(self) -> None:
        """Begin blocking matching operations."""
        self._release.clear()

    def release(self) -> None:
        """Unblock every waiting and future operation."""
        self._release.set()

    def _maybe_stall(self, op: str, path: Path) -> None:
        if op not in self.stall_ops or self._release.is_set():
            return
        self.stalled_calls += 1
        self.entered.set()
        if not self._release.wait(self.max_stall_s):
            raise StorageError(
                f"stalled storage: {op} {path} blocked for more than "
                f"{self.max_stall_s}s without release() — test bug"
            )

    def write_bytes(self, path: Path, data: bytes) -> None:
        """Write, blocking first while stalled."""
        self._maybe_stall("write", path)
        super().write_bytes(path, data)

    def fsync(self, path: Path) -> None:
        """Fsync, blocking first while stalled."""
        self._maybe_stall("fsync", path)
        super().fsync(path)

    def replace(self, src: Path, dst: Path) -> None:
        """Rename, blocking first while stalled."""
        self._maybe_stall("replace", dst)
        super().replace(src, dst)

    def unlink(self, path: Path) -> None:
        """Unlink, blocking first while stalled."""
        self._maybe_stall("unlink", path)
        super().unlink(path)

    def fsync_dir(self, path: Path) -> None:
        """Directory fsync, blocking first while stalled."""
        self._maybe_stall("fsync_dir", path)
        super().fsync_dir(path)


def _post_ingest(
    base_url: str, spec: dict[str, Any], timeout: float
) -> tuple[int, dict[str, Any], float | None]:
    """POST one ingest spec; returns (status, payload, retry_after_s).

    Transport failures report status 0 with an empty payload.
    """
    request = urllib.request.Request(
        base_url.rstrip("/") + "/ingest",
        data=json.dumps(spec).encode("utf-8"),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read().decode("utf-8")), None
    except urllib.error.HTTPError as exc:
        retry_after: float | None = None
        raw = exc.headers.get("Retry-After") if exc.headers else None
        if raw is not None:
            try:
                retry_after = float(raw)
            except ValueError:
                pass
        try:
            payload = json.loads(exc.read().decode("utf-8"))
        except (ValueError, OSError):
            payload = {}
        return exc.code, payload, retry_after
    except (urllib.error.URLError, OSError):
        return 0, {}, None


def run_overload_burst(
    base_url: str,
    n_jobs: int,
    *,
    workers: int = 8,
    timeout: float = 10.0,
    seed: int = 0,
    frames_per_shot: int = 6,
    n_shots: int = 2,
) -> dict[str, Any]:
    """Fire ``n_jobs`` concurrent ingest submissions; tally the answers.

    Returns a report with ``accepted_job_ids`` (202s), ``rejected_429``
    (load shed with ``Retry-After``), ``unavailable_503``,
    ``server_errors`` (5xx — always a bug under the overload
    contract), ``transport_errors``, and the largest ``Retry-After``
    hint seen.  The caller asserts on these: a correct server answers
    every request with 202, 429 or 503 — never a 5xx — and later
    completes every accepted job.
    """
    if n_jobs < 1 or workers < 1:
        raise ValueError("n_jobs and workers must be >= 1")
    results: list[tuple[int, dict[str, Any], float | None]] = [None] * n_jobs  # type: ignore[list-item]
    counter = iter(range(n_jobs))
    counter_lock = threading.Lock()

    def pump() -> None:
        while True:
            with counter_lock:
                k = next(counter, None)
            if k is None:
                return
            spec = {
                "source": "synthetic",
                "video_id": f"burst-{seed}-{k}",
                "n_shots": n_shots,
                "frames_per_shot": frames_per_shot,
                "seed": seed + k,
            }
            results[k] = _post_ingest(base_url, spec, timeout)

    threads = [
        threading.Thread(target=pump, name=f"burst-{k}")
        for k in range(min(workers, n_jobs))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    report: dict[str, Any] = {
        "submitted": n_jobs,
        "accepted_job_ids": [],
        "rejected_429": 0,
        "unavailable_503": 0,
        "client_errors": 0,
        "server_errors": 0,
        "transport_errors": 0,
        "retry_after_max_s": 0.0,
        "statuses": {},
    }
    for status, payload, retry_after in results:
        report["statuses"][str(status)] = report["statuses"].get(str(status), 0) + 1
        if retry_after is not None:
            report["retry_after_max_s"] = max(report["retry_after_max_s"], retry_after)
        if status == 202:
            report["accepted_job_ids"].append(payload.get("job_id"))
        elif status == 429:
            report["rejected_429"] += 1
        elif status == 503:
            report["unavailable_503"] += 1
        elif status == 0:
            report["transport_errors"] += 1
        elif status >= 500:
            report["server_errors"] += 1
        else:
            report["client_errors"] += 1
    return report
