"""The serving engine: a cluster coordinator, its shard locks, ingest pool.

Ingesting a clip runs the full Step 1-2-3 pipeline (seconds of CPU);
queries are two binary searches plus a band filter (microseconds).  The
engine serves every database through a
:class:`~repro.cluster.coordinator.ClusterCoordinator` — a plain
:class:`~repro.vdbms.database.VideoDatabase` is a one-shard cluster
with replication 1 — and each shard sits behind a reader-writer lock:
any number of queries proceed concurrently; an ingest analyses its
clip with no lock held and takes its shard's write side only to
register and publish the derived video.

Ingest itself is asynchronous: ``submit_*`` enqueues a job on a
``queue.Queue`` drained by a small pool of worker threads and returns a
job id immediately; clients poll ``GET /jobs/<id>`` through the job
lifecycle ``queued -> running -> done | failed | quarantined``.

Workers absorb *transient* faults: an ``OSError`` or
:class:`~repro.errors.StorageError` from the durable publish is retried
up to ``max_attempts`` times with jittered exponential backoff (the
durable database rolls its memory state back on a failed publish, so a
retry re-runs the ingest cleanly).  A job that keeps failing is moved
to ``quarantined`` — surfaced at ``GET /jobs/<id>`` and counted in
``/metrics`` — instead of wedging the worker pool.  *Permanent* errors
(a duplicate video id, a malformed spec, a missing file, detected
on-disk corruption) fail immediately; retrying cannot fix them.
"""

from __future__ import annotations

import itertools
import queue
import random
import sys
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable

import numpy as np

from ..cluster.coordinator import ClusterAnswer, ClusterCoordinator
from ..cluster.repair import IntegrityScrubber
from ..cluster.replication import ShardSupervisor
from ..cluster.shard import ReadWriteLock
from ..config import PipelineConfig, QueryConfig
from ..errors import (
    CircuitOpenError,
    QueryError,
    ReproError,
    ServiceOverloadError,
    ServiceTimeout,
    ServiceUnavailableError,
    StorageError,
    StorageIntegrityError,
    WorkloadError,
)
from ..index.query import query_points
from ..index.routing import suggestion
from ..obs import (
    TraceCollector,
    TraceContext,
    iter_spans,
    span as _span,
)
from ..vdbms.database import VideoDatabase
from ..video.clip import VideoClip
from ..video.sampling import ANALYSIS_FPS, read_clip
from ..workloads.taxonomy import VideoCategory
from .cache import QueryResultCache
from .metrics import MetricsRegistry
from .resilience import CircuitBreaker, Deadline

__all__ = [
    "IngestJob",
    "JobStatus",
    "ReadWriteLock",
    "ServiceEngine",
    "clip_from_spec",
]


# ----------------------------------------------------------------------
# ingest jobs
# ----------------------------------------------------------------------


class JobStatus(str, Enum):
    """Lifecycle: queued -> running -> done | failed | quarantined."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    #: Every attempt hit a transient fault; the job is parked so it
    #: cannot wedge the worker pool, and the failure is permanent from
    #: the client's point of view until an operator intervenes.
    QUARANTINED = "quarantined"


@dataclass
class IngestJob:
    """One submitted ingest and its lifecycle state.

    Fields other than ``done_event`` are only written by the worker
    thread that runs the job; readers see a consistent record once
    ``status`` says so.
    """

    job_id: str
    description: str
    status: JobStatus = JobStatus.QUEUED
    #: Wall-clock stamps, for display only — a client correlating job
    #: records with its own logs wants civil time.
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    #: Engine-clock (monotonic) stamps — all duration math happens on
    #: these, so an NTP step between start and finish cannot skew (or
    #: negate) a reported duration.
    submitted_mono: float | None = field(default=None, repr=False)
    started_mono: float | None = field(default=None, repr=False)
    finished_mono: float | None = field(default=None, repr=False)
    attempts: int = 0
    error: str | None = None
    report: dict[str, Any] | None = None
    done_event: threading.Event = field(default_factory=threading.Event, repr=False)

    @property
    def queue_wait_s(self) -> float | None:
        """Seconds spent queued, on the monotonic clock."""
        if self.submitted_mono is None or self.started_mono is None:
            return None
        return self.started_mono - self.submitted_mono

    @property
    def duration_s(self) -> float | None:
        """Seconds spent running, on the monotonic clock."""
        if self.started_mono is None or self.finished_mono is None:
            return None
        return self.finished_mono - self.started_mono

    def to_dict(self) -> dict[str, Any]:
        """The ``GET /jobs/<id>`` JSON document."""
        payload: dict[str, Any] = {
            "job_id": self.job_id,
            "description": self.description,
            "status": self.status.value,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "attempts": self.attempts,
        }
        if self.queue_wait_s is not None:
            payload["queue_wait_s"] = round(self.queue_wait_s, 6)
        if self.duration_s is not None:
            payload["duration_s"] = round(self.duration_s, 6)
        if self.error is not None:
            payload["error"] = self.error
        if self.report is not None:
            payload["report"] = self.report
        return payload


# ----------------------------------------------------------------------
# clip specifications
# ----------------------------------------------------------------------

# Well-separated palette for synthetic multi-shot clips; adjacent picks
# always differ by far more than the detector's 10% sign tolerance.
_PALETTE: tuple[tuple[int, int, int], ...] = (
    (230, 60, 40), (40, 200, 60), (50, 80, 220), (240, 220, 40),
    (200, 40, 200), (40, 220, 220), (245, 245, 245), (15, 15, 15),
    (120, 70, 20), (140, 20, 70), (20, 140, 120), (180, 180, 80),
)


def _spec_source(spec: Any) -> str:
    """The ``source`` of an ingest request body, after the checks that
    need no clip: the spec is an object, the source is known, and a
    synthetic spec names a ``video_id``, a file spec a ``path``.
    Raises :class:`WorkloadError` otherwise."""
    if not isinstance(spec, dict):
        raise WorkloadError(f"ingest spec must be an object, got {type(spec).__name__}")
    source = spec.get("source", "synthetic")
    if source not in ("synthetic", "figure5", "friends", "file"):
        raise WorkloadError(f"unknown ingest source {source!r}")
    if source == "synthetic" and not spec.get("video_id"):
        raise WorkloadError("synthetic ingest spec requires a 'video_id'")
    if source == "file" and not spec.get("path"):
        raise WorkloadError("file ingest spec requires a 'path'")
    return source


def clip_from_spec(spec: dict[str, Any]) -> tuple[VideoClip, VideoCategory | None]:
    """Materialize the clip described by an ingest request body.

    Supported ``source`` values:

    - ``"synthetic"`` (default): a deterministic multi-shot clip of
      constant-color segments — ``video_id``, ``n_shots``,
      ``frames_per_shot``, ``rows``, ``cols``, ``seed`` are honored.
    - ``"figure5"`` / ``"friends"``: the paper's rendered demo clips,
      optionally renamed via ``video_id``.
    - ``"file"``: a server-local ``.avi``/``.rvid`` at ``path``,
      decimated to the 3 fps analysis rate like the CLI.

    An optional ``category`` object (``{"genres": [...], "forms":
    [...]}``) classifies the clip for scoped queries.
    """
    source = _spec_source(spec)
    category = None
    raw_category = spec.get("category")
    if raw_category is not None:
        category = VideoCategory(
            genres=tuple(raw_category.get("genres", ())),
            forms=tuple(raw_category.get("forms", ("feature",))),
        )

    if source == "synthetic":
        video_id = spec["video_id"]
        n_shots = int(spec.get("n_shots", 3))
        frames_per_shot = int(spec.get("frames_per_shot", 6))
        rows = int(spec.get("rows", 60))
        cols = int(spec.get("cols", 80))
        seed = int(spec.get("seed", 0))
        if n_shots < 1 or frames_per_shot < 1:
            raise WorkloadError(
                f"synthetic spec needs n_shots>=1 and frames_per_shot>=1, "
                f"got {n_shots}/{frames_per_shot}"
            )
        if rows < 16 or cols < 16:
            raise WorkloadError(f"synthetic frames must be >= 16x16, got {rows}x{cols}")
        frames = np.empty((n_shots * frames_per_shot, rows, cols, 3), dtype=np.uint8)
        for shot in range(n_shots):
            color = _PALETTE[(seed + shot) % len(_PALETTE)]
            lo = shot * frames_per_shot
            frames[lo : lo + frames_per_shot] = np.array(color, dtype=np.uint8)
        return VideoClip(video_id, frames, fps=ANALYSIS_FPS), category

    if source in ("figure5", "friends"):
        if source == "figure5":
            from ..workloads.figure5 import make_figure5_clip as maker
        else:
            from ..workloads.friends import make_friends_clip as maker
        clip, _ = maker()
        video_id = spec.get("video_id")
        if video_id and video_id != clip.name:
            clip = VideoClip(video_id, clip.frames, fps=clip.fps)
        return clip, category

    return read_clip(spec["path"]), category  # the "file" source


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------


class ServiceEngine:
    """One shared database or sharded cluster served to many threads.

    Every request runs through a
    :class:`~repro.cluster.coordinator.ClusterCoordinator`
    (:attr:`cluster`): pass one as ``db`` for sharded serving; a plain
    :class:`VideoDatabase` is wrapped as one shard with replication 1
    (:meth:`ClusterCoordinator.wrap`).  The engine keeps **one ingest
    queue per shard** with workers pinned round-robin, so ingests into
    different shards overlap; queries take per-shard read locks and
    may return *partial* answers carrying ``shards_failed``, which are
    never cached.

    Args:
        db: an existing database to serve (a fresh one when omitted),
            or a cluster coordinator for sharded serving.  The engine
            owns it from here on: writes go through the engine.
        config: pipeline configuration for a fresh database.
        n_workers: size of the ingest worker pool.
        cache_capacity: LRU query-cache capacity (entries).
        max_attempts: ingest attempts before a job is quarantined.
        retry_base_delay: first backoff in seconds; doubles per attempt
            with +/-50% jitter so colliding workers de-synchronize.
        ingest_hook: test seam — called with the clip before each
            ingest attempt; an exception it raises goes through the
            same transient/permanent classification as a real fault.
        retry_seed: seeds the jitter RNG for reproducible backoff.
        max_queue: bound on queued-but-not-started ingest jobs, summed
            over the per-shard queues; a submit past it is rejected with
            :class:`~repro.errors.ServiceOverloadError` (HTTP 429).
            ``None`` keeps the queues unbounded.
        default_deadline_ms: deadline budget applied to requests that
            do not carry an ``X-Deadline-Ms`` header (None = none).
        breaker_threshold: consecutive transient storage failures that
            trip the publish circuit breaker open.
        breaker_reset_s: seconds an open breaker waits before letting
            one half-open probe through.
        clock: monotonic time source for the breaker, deadlines, and
            stall detection (injectable for deterministic chaos tests).
        sleep: sleep function used for retry backoff and breaker waits
            (injectable alongside ``clock``).
        watchdog_interval: seconds between worker liveness sweeps; 0
            disables the watchdog thread (sweeps can still be driven
            manually via :meth:`check_workers`).
        stall_timeout: seconds a single ingest attempt may run before
            the watchdog declares the worker stuck and adds a
            supplementary worker to restore pool capacity.
        trace_capacity: finished request traces retained for
            ``GET /debug/traces``; 0 disables request tracing entirely
            (the read path then costs one thread-local read per guard).
        slow_query_ms: traces at least this many milliseconds long are
            additionally retained in the slow-query log and counted in
            the ``slow_queries`` metric (None disables the log).
        scrub_interval_s: cluster databases only (a plain database has
            no replica to heal from) — pacing interval of the
            background integrity scrubber (None, the default, disables
            it; ``repro cluster scrub`` covers offline scrubbing).
    """

    def __init__(
        self,
        db: VideoDatabase | ClusterCoordinator | None = None,
        *,
        config: PipelineConfig | None = None,
        n_workers: int = 2,
        cache_capacity: int = 256,
        max_attempts: int = 3,
        retry_base_delay: float = 0.05,
        ingest_hook: Callable[[VideoClip], None] | None = None,
        retry_seed: int | None = None,
        max_queue: int | None = None,
        default_deadline_ms: float | None = None,
        breaker_threshold: int = 5,
        breaker_reset_s: float = 5.0,
        clock: Callable[[], float] | None = None,
        sleep: Callable[[float], None] | None = None,
        watchdog_interval: float = 1.0,
        stall_timeout: float = 300.0,
        trace_capacity: int = 64,
        slow_query_ms: float | None = None,
        scrub_interval_s: float | None = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if max_queue is not None and max_queue < 1:
            raise ValueError(f"max_queue must be >= 1 (or None), got {max_queue}")
        if trace_capacity < 0:
            raise ValueError(f"trace_capacity must be >= 0, got {trace_capacity}")
        if scrub_interval_s is not None and scrub_interval_s <= 0:
            raise ValueError(
                f"scrub_interval_s must be > 0 (or None), got {scrub_interval_s}"
            )
        self.max_attempts = max_attempts
        self.retry_base_delay = retry_base_delay
        self.ingest_hook = ingest_hook
        self.max_queue = max_queue
        self.default_deadline_ms = default_deadline_ms
        self.stall_timeout = stall_timeout
        self.watchdog_interval = watchdog_interval
        self._clock = clock if clock is not None else time.monotonic
        self._sleep = sleep if sleep is not None else time.sleep
        self._retry_rng = random.Random(retry_seed)
        self.db = db if db is not None else VideoDatabase(config)
        if isinstance(self.db, ClusterCoordinator):
            self.cluster = self.db
        elif scrub_interval_s is not None:
            # At R=1 there is no replica for the scrubber to heal from.
            raise ValueError("scrub_interval_s requires a cluster database")
        else:
            self.cluster = ClusterCoordinator.wrap(self.db)
        self.cache = QueryResultCache(cache_capacity)
        self.metrics = MetricsRegistry()
        self.breaker = CircuitBreaker(
            failure_threshold=breaker_threshold,
            reset_timeout=breaker_reset_s,
            clock=self._clock,
        )
        self.started_at = time.time()
        # Uptime math runs on the engine clock; the wall-clock stamp
        # above is display-only (an NTP step must not bend uptime).
        self._started_mono = self._clock()
        #: Bounded retention of finished request traces (None = off).
        self.traces = (
            TraceCollector(capacity=trace_capacity, slow_ms=slow_query_ms)
            if trace_capacity > 0
            else None
        )
        self.slow_query_ms = slow_query_ms
        self._jobs: dict[str, IngestJob] = {}
        self._jobs_lock = threading.Lock()
        self._job_counter = itertools.count(1)
        # One ingest queue per shard: jobs for different shards never
        # queue behind each other.  max_queue bounds their sum
        # (_enqueue checks it under _jobs_lock).
        self.n_queues = self.cluster.n_shards
        self._queues: list[queue.Queue] = [
            queue.Queue() for _ in range(self.n_queues)
        ]
        # Lifecycle flags: _accepting gates admission (flipped by
        # begin_drain/shutdown); _stopping tells workers and the
        # watchdog to exit.
        self._accepting = True
        self._stopping = False
        # Event-driven drain: _pending counts accepted-but-unfinished
        # jobs; _idle is set exactly when it reaches zero.
        self._pending = 0
        self._idle = threading.Event()
        self._idle.set()
        # Watchdog bookkeeping: which job each worker is on, and since
        # when (engine clock), to detect stuck workers.
        self._workers_lock = threading.Lock()
        self._worker_seq = itertools.count(1)
        self._active: dict[str, tuple[IngestJob, float]] = {}
        self._stall_flagged: set[str] = set()
        self._workers: list[threading.Thread] = []
        #: Which queue each worker drains (watchdog respawns preserve it).
        self._worker_queue_index: dict[str, int] = {}
        # Every shard queue needs at least one dedicated worker.
        n_workers = max(n_workers, self.n_queues)
        with self._workers_lock:
            for k in range(n_workers):
                self._workers.append(
                    self._spawn_worker_locked(k % self.n_queues)
                )
        # Health loop: the supervisor benches shards that fail scatters
        # repeatedly (watchdog sweeps run its re-admission probes); the
        # scrubber re-verifies committed bytes on a pace.
        self.supervisor = ShardSupervisor(self.cluster, clock=self._clock)
        self.scrubber = None
        if scrub_interval_s is not None:
            self.scrubber = IntegrityScrubber(self.cluster, interval_s=scrub_interval_s)
            self.scrubber.start()
        self._watchdog: threading.Thread | None = None
        if watchdog_interval > 0:
            self._watchdog = threading.Thread(
                target=self._watchdog_loop, name="ingest-watchdog", daemon=True
            )
            self._watchdog.start()

    def _spawn_worker_locked(self, queue_index: int = 0) -> threading.Thread:
        """Create and start one ingest worker (holding _workers_lock)."""
        name = f"ingest-worker-{next(self._worker_seq)}"
        worker = threading.Thread(
            target=self._worker_loop,
            args=(queue_index,),
            name=name,
            daemon=True,
        )
        self._worker_queue_index[name] = queue_index
        worker.start()
        return worker

    # ------------------------------------------------------------------
    # ingest side
    # ------------------------------------------------------------------

    def submit_spec(self, spec: dict[str, Any]) -> IngestJob:
        """Enqueue an ingest described by a JSON spec; returns the job.

        The spec is validated eagerly (a malformed request fails at
        submission with :class:`WorkloadError`), but the clip itself is
        materialized inside the worker so submission stays O(1).
        """
        source = _spec_source(spec)
        description = spec.get("video_id") or spec.get("path") or source
        return self._enqueue(
            f"ingest {description!r} ({source})", spec, route_hint=description
        )

    def submit_clip(
        self, clip: VideoClip, category: VideoCategory | None = None
    ) -> IngestJob:
        """Enqueue an already-materialized clip (in-process callers)."""
        return self._enqueue(
            f"ingest {clip.name!r} (clip)", (clip, category), route_hint=clip.name
        )

    def _enqueue(
        self, description: str, payload: Any, route_hint: str | None = None
    ) -> IngestJob:
        if not self._accepting:
            self.metrics.increment("ingest_rejected_draining")
            raise ServiceUnavailableError(
                "server is draining and not accepting new work", retry_after=5.0
            )
        if not self.breaker.admits():
            self.metrics.increment("ingest_rejected_breaker")
            raise CircuitOpenError(
                "storage circuit breaker is open; ingest unavailable",
                retry_after=max(self.breaker.retry_after(), 0.1),
            )
        job = IngestJob(job_id=f"job-{next(self._job_counter)}", description=description)
        job.submitted_mono = self._clock()
        # Land the job on its home shard's queue (the router is
        # deterministic, so the hint — the eventual clip name — picks
        # the same shard the coordinator will).
        queue_index = self.cluster.router.shard_for(route_hint) if route_hint else 0
        with self._jobs_lock:
            # Workers only ever shrink the sum, so checking it and
            # putting under the one lock keeps it within the bound.
            full = (
                self.max_queue is not None
                and self._total_queue_depth() >= self.max_queue
            )
            if not full:
                self._jobs[job.job_id] = job
                self._pending += 1
                self._idle.clear()
                self._queues[queue_index].put_nowait((job, payload))
        if full:
            self.metrics.increment("ingest_rejected_overload")
            raise ServiceOverloadError(
                f"ingest queue is full ({self.max_queue} jobs deep); "
                f"retry after the backlog drains",
                retry_after=1.0,
            )
        self.metrics.increment("ingest_submitted")
        self._observe_queue_depth()
        return job

    def _total_queue_depth(self) -> int:
        """Jobs queued but not yet picked up, across all shard queues."""
        return sum(q.qsize() for q in self._queues)

    def _observe_queue_depth(self) -> None:
        """Refresh the queue-depth gauges on ``/metrics``."""
        depth = self._total_queue_depth()
        self.metrics.set_gauge("ingest_queue_depth", depth)
        self.metrics.set_gauge_max("ingest_queue_depth_peak", depth)
        if self.n_queues > 1:
            for k, q in enumerate(self._queues):
                self.metrics.set_gauge(f"ingest_queue_depth_shard_{k}", q.qsize())

    def _job_finished(self, job: IngestJob) -> None:
        """Account one settled job; wakes drain waiters at zero pending."""
        with self._jobs_lock:
            self._pending -= 1
            if self._pending <= 0:
                self._idle.set()
        self._observe_queue_depth()

    def _worker_loop(self, queue_index: int = 0) -> None:
        name = threading.current_thread().name
        my_queue = self._queues[queue_index]
        while True:
            try:
                item = my_queue.get(timeout=0.1)
            except queue.Empty:
                if self._stopping:
                    return
                continue
            job, payload = item
            with self._workers_lock:
                self._active[name] = (job, self._clock())
            try:
                self._run_job(job, payload)
            except BaseException as exc:
                # _run_job handles every expected failure itself; an
                # escape here is a crashed worker (e.g. an injected
                # SimulatedCrash).  Settle the job so clients are not
                # left polling forever, then let the thread die — the
                # watchdog replaces it.
                if not job.done_event.is_set():
                    job.error = f"{type(exc).__name__}: {exc}"
                    job.status = JobStatus.FAILED
                    job.finished_at = time.time()
                    job.finished_mono = self._clock()
                    job.done_event.set()
                    self.metrics.increment("ingest_failed")
                self.metrics.increment("worker_crashes")
                self.breaker.release_probe()
                raise
            finally:
                with self._workers_lock:
                    self._active.pop(name, None)
                    self._stall_flagged.discard(name)
                my_queue.task_done()
                self._job_finished(job)

    # OSErrors that no amount of retrying will fix (the path is wrong,
    # not the weather).  Everything else OSError-shaped — EIO, ENOSPC,
    # a flaky network mount — is worth another attempt.
    _PERMANENT_OS_ERRORS = (
        FileNotFoundError,
        IsADirectoryError,
        NotADirectoryError,
        PermissionError,
    )

    def _is_transient(self, exc: BaseException) -> bool:
        """Whether a retry has any chance of succeeding."""
        if isinstance(exc, StorageIntegrityError):
            return False  # on-disk corruption: retrying re-reads the same bytes
        if isinstance(exc, StorageError):
            return True  # a failed publish (the durable db rolled back)
        if isinstance(exc, self._PERMANENT_OS_ERRORS):
            return False
        return isinstance(exc, OSError)

    def _breaker_gate(self, job: IngestJob) -> bool:
        """Wait until the breaker admits this attempt (or we're stopping).

        An accepted job is a promise: rather than failing it when the
        breaker opens mid-queue, the worker parks until the half-open
        probe succeeds and the backend is declared healthy again.
        Returns False only when the engine is shutting down.
        """
        waited = False
        while not self._stopping:
            if self.breaker.allow():
                return True
            if not waited:
                waited = True
                self.metrics.increment("ingest_breaker_waits")
            self._sleep(min(0.05, max(self.breaker.retry_after(), 0.001)))
        return False

    def _run_job(self, job: IngestJob, payload: Any) -> None:
        job.status = JobStatus.RUNNING
        job.started_at = time.time()
        job.started_mono = self._clock()
        try:
            if isinstance(payload, tuple):
                clip, category = payload
            else:
                clip, category = clip_from_spec(payload)
            for attempt in range(1, self.max_attempts + 1):
                job.attempts = attempt
                if not self._breaker_gate(job):
                    job.error = "engine shut down while the circuit breaker was open"
                    job.status = JobStatus.QUARANTINED
                    self.metrics.increment("ingest_quarantined")
                    return
                try:
                    if self.ingest_hook is not None:
                        self.ingest_hook(clip)
                    # The coordinator derives the clip lock-free, then
                    # holds each owning shard's write lock through the
                    # registration and publish, so a torn registration
                    # is never observable.  Cache coherence
                    # holds without exclusivity because readers
                    # snapshot the generation *before* querying — this
                    # invalidate rejects their late put().
                    report = self.cluster.ingest(clip, category=category)
                    self.cache.invalidate()
                except (StorageError, OSError) as exc:
                    if not self._is_transient(exc):
                        raise
                    # A transient storage fault: the breaker counts it
                    # toward tripping open (consecutive failures mean
                    # the backend is sick, not one unlucky write).
                    self.breaker.record_failure()
                    job.error = f"{type(exc).__name__}: {exc}"
                    if attempt >= self.max_attempts:
                        job.status = JobStatus.QUARANTINED
                        self.metrics.increment("ingest_quarantined")
                        return
                    self.metrics.increment("ingest_retries")
                    delay = self.retry_base_delay * (2 ** (attempt - 1))
                    self._sleep(delay * (0.5 + self._retry_rng.random()))
                    continue
                self.breaker.record_success()
                job.error = None
                job.report = {
                    "video_id": report.video_id,
                    "n_frames": report.n_frames,
                    "n_shots": report.n_shots,
                    "tree_height": report.tree_height,
                    "indexed_entries": report.indexed_entries,
                }
                job.status = JobStatus.DONE
                self.metrics.increment("ingest_completed")
                return
        except (ReproError, ValueError, OSError) as exc:
            # A permanent failure is no verdict on storage health; if
            # this attempt held the half-open probe, hand it back.
            self.breaker.release_probe()
            job.error = f"{type(exc).__name__}: {exc}"
            job.status = JobStatus.FAILED
            self.metrics.increment("ingest_failed")
        finally:
            job.finished_at = time.time()
            job.finished_mono = self._clock()
            # Still RUNNING here means a BaseException (worker crash) is
            # escaping: leave the event unset so the crash handler in
            # _worker_loop settles the job as FAILED with the error
            # attached, instead of signalling done-with-no-verdict.
            if job.status is not JobStatus.RUNNING:
                job.done_event.set()

    def job(self, job_id: str) -> IngestJob:
        """Look up one job record."""
        with self._jobs_lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise ReproError(f"unknown job {job_id!r}") from None

    def jobs(self) -> list[IngestJob]:
        """Every job submitted to this engine, oldest first."""
        with self._jobs_lock:
            return list(self._jobs.values())

    def wait_for(self, job_id: str, timeout: float | None = None) -> IngestJob:
        """Block until a job finishes (done or failed).

        Raises:
            ServiceTimeout: the job did not settle within ``timeout``.
        """
        job = self.job(job_id)
        if not job.done_event.wait(timeout):
            raise ServiceTimeout(f"job {job_id!r} did not finish within {timeout}s")
        return job

    def drain(self, timeout: float = 60.0) -> None:
        """Wait until every accepted job has finished.

        Event-driven: blocks on the engine's idle event (set exactly
        when the pending-job count reaches zero) instead of polling
        each job record.

        Raises:
            ServiceTimeout: jobs were still in flight after ``timeout``.
        """
        if not self._idle.wait(timeout):
            with self._jobs_lock:
                pending = self._pending
            raise ServiceTimeout(
                f"ingest queue did not drain within {timeout}s "
                f"({pending} jobs still pending)"
            )

    # ------------------------------------------------------------------
    # query side
    # ------------------------------------------------------------------

    @staticmethod
    def _check_deadline(deadline: Deadline | None) -> None:
        """Raise :class:`ServiceTimeout` when the budget is already spent
        — cheaper than queueing on a shard lock just to time out there.
        """
        if deadline is not None:
            deadline.check("request")

    def query(
        self,
        var_ba: float,
        var_oa: float,
        *,
        limit: int | None = None,
        alpha: float | None = None,
        beta: float | None = None,
        category: VideoCategory | None = None,
        deadline: Deadline | None = None,
    ) -> tuple[dict[str, Any], bool]:
        """Answer one impression query; returns ``(payload, was_cached)``.

        ``alpha``/``beta`` default to the engine's configured tolerances
        (the paper's 1.0); the effective values are part of the cache
        key, so per-request overrides never alias.

        A ``deadline`` bounds the whole call: a cache hit always
        returns, but a miss gives each shard read lock only the
        remaining budget and raises :class:`~repro.errors.ServiceTimeout`
        when no shard answered within it, instead of queueing
        indefinitely behind a stalled writer.
        """
        base = self.cluster.config.query
        effective_alpha = base.alpha if alpha is None else float(alpha)
        effective_beta = base.beta if beta is None else float(beta)
        query_config = QueryConfig(alpha=effective_alpha, beta=effective_beta)
        key = self.cache.make_key(
            var_ba,
            var_oa,
            effective_alpha,
            effective_beta,
            limit,
            category.label if category is not None else None,
        )
        with _span("cache.get") as cache_span:
            cached = self.cache.get(key)
            cache_span.annotate(hit=cached is not None)
        if cached is not None:
            self.metrics.increment("query_cache_hits")
            return cached, True
        [payload], generation = self._run_queries(
            [(var_ba, var_oa)], limit, category, query_config, deadline
        )
        if generation is not None:
            self.cache.put(key, payload, generation=generation)
        return payload, False

    def _run_queries(
        self,
        points: list[tuple[float, float]],
        limit: int | None,
        category: VideoCategory | None,
        config: QueryConfig,
        deadline: Deadline | None,
    ) -> tuple[list[dict[str, Any]], int | None]:
        """Answer ``points`` in one scatter round of the coordinator.

        Returns one payload per point and the cache generation they
        were read at, or None when they must not be cached.  Payloads
        carry the ``shards_*``/``partial`` coverage fields.  Partial
        answers reflect a transient outage, not the corpus (caching
        one would keep serving holes after the shard recovers);
        failover answers are complete but come from a shard set in
        flux — neither is cached.

        When no shard answered and the deadline ran out, the request
        fails with :class:`ServiceTimeout` (503) rather than returning
        an empty partial answer, and the supervisor is not told: the
        request ran out of time (typically queued behind a writer on
        every shard), which says nothing about any shard's health.
        """
        self._check_deadline(deadline)
        generation = self.cache.generation
        answers = self.cluster.query_batch(
            points, limit=limit, category=category, config=config, deadline=deadline
        )
        first = answers[0]
        if deadline is not None and not first.shards_queried:
            deadline.check("query: no shard answered")
        payloads = [self._answer_payload(answer) for answer in answers]
        # One scatter round answered every point, with the same shard
        # coverage: one supervisor observation and one counter tick
        # (per-answer observes would let a single sick scatter count as
        # len(points) consecutive failures).
        self.supervisor.observe(first)
        if first.partial:
            self.metrics.increment("cluster_partial_answers")
            return payloads, None
        if first.shards_failed:
            self.metrics.increment("cluster_failover_answers")
            return payloads, None
        return payloads, generation

    #: Upper bound on one batch request's size — a single request must
    #: not monopolize the read path (or the response body) indefinitely.
    MAX_BATCH_QUERIES = 256

    def query_batch(
        self,
        queries: Any,
        *,
        limit: int | None = None,
        alpha: float | None = None,
        beta: float | None = None,
        category: VideoCategory | None = None,
        deadline: Deadline | None = None,
    ) -> dict[str, Any]:
        """Answer a batch of impression queries in one scatter round.

        ``queries`` is the request's ``queries`` field: a non-empty
        list of ``{"var_ba": .., "var_oa": ..}`` objects (at most
        :data:`MAX_BATCH_QUERIES`).  The whole batch runs in one
        scatter-gather round (one read-lock acquisition per shard)
        bounded by the request ``deadline``, and shares one
        alpha/beta/limit/category scope.

        The result cache is bypassed: the whole batch is answered in
        one scatter round.  Per-batch metrics:
        ``query_batch_requests`` counts calls, ``query_batch_queries``
        the points answered.
        """
        points = query_points(queries)
        if len(points) > self.MAX_BATCH_QUERIES:
            raise QueryError(
                f"batch of {len(points)} queries exceeds the per-request "
                f"maximum of {self.MAX_BATCH_QUERIES}"
            )
        base = self.cluster.config.query
        query_config = QueryConfig(
            alpha=base.alpha if alpha is None else float(alpha),
            beta=base.beta if beta is None else float(beta),
        )
        self.metrics.increment("query_batch_requests")
        self.metrics.increment("query_batch_queries", len(points))
        results, _generation = self._run_queries(
            points, limit, category, query_config, deadline
        )
        return {"count": len(results), "results": results}

    @staticmethod
    def _answer_payload(answer: ClusterAnswer) -> dict[str, Any]:
        matches = [
            {
                "video_id": entry.video_id,
                "shot_number": entry.shot_number,
                "shot_id": entry.shot_id,
                "start_frame": entry.start_frame,
                "end_frame": entry.end_frame,
                "var_ba": entry.features.var_ba,
                "var_oa": entry.features.var_oa,
                "sqrt_var_ba": entry.sqrt_var_ba,
                "d_v": entry.d_v,
                "archetype": entry.archetype,
            }
            for entry in answer.matches
        ]
        routes = []
        for entry, target in zip(answer.matches, answer.targets):
            tree, position = target or (None, -1)
            label, frame = (None, None) if tree is None else tree.route(position)
            routes.append(
                {
                    "shot_id": entry.shot_id,
                    "scene_node": label,
                    "representative_frame": frame,
                    "suggestion": suggestion(entry.shot_id, label),
                }
            )
        return {
            "count": len(matches),
            "matches": matches,
            "routes": routes,
            "shards_queried": answer.shards_queried,
            "shards_failed": answer.shards_failed,
            "shards_recovered": answer.shards_recovered,
            "partial": answer.partial,
        }

    # ------------------------------------------------------------------
    # read-only views
    # ------------------------------------------------------------------

    def catalog_payload(self, deadline: Deadline | None = None) -> dict[str, Any]:
        """The catalog listing served at ``GET /videos``."""
        self._check_deadline(deadline)
        videos = [entry.to_dict() for entry in self.cluster.catalog_entries(deadline)]
        indexed = self.cluster.index_size()
        return {"count": len(videos), "indexed_shots": indexed, "videos": videos}

    def shots_payload(
        self, video_id: str, deadline: Deadline | None = None
    ) -> dict[str, Any]:
        """One video's indexed shots served at ``GET /videos/<id>/shots``."""
        self._check_deadline(deadline)
        # CatalogError when unknown
        rows = self.cluster.shot_entries(video_id, deadline)
        shots = [entry.to_row() for entry in rows]
        return {"video_id": video_id, "count": len(shots), "shots": shots}

    def tree_payload(
        self, video_id: str, deadline: Deadline | None = None
    ) -> dict[str, Any]:
        """One video's scene tree served at ``GET /videos/<id>/tree``:
        its document, written from the packed columns, plus the root's
        level as ``height`` and the leaf count as ``n_shots``."""
        self._check_deadline(deadline)
        # CatalogError when unknown
        tree = self.cluster.packed_tree(video_id, deadline)
        payload = tree.document()
        payload["height"] = tree.height
        payload["n_shots"] = tree.n_shots
        return payload

    def health_payload(self) -> dict[str, Any]:
        """The liveness document served at ``GET /health``.

        Deliberately lock-free on the database side: liveness must
        answer even while a writer wedges a shard's reader-writer lock,
        so the corpus counts here are unsynchronized snapshots.
        """
        jobs = self.jobs()
        by_status: dict[str, int] = {}
        for job in jobs:
            by_status[job.status.value] = by_status.get(job.status.value, 0) + 1
        shard_status = [shard.status() for shard in self.cluster.shards]
        return {
            "status": "ok" if self.ready else "draining",
            "ready": self.ready,
            "uptime_s": round(self._clock() - self._started_mono, 3),
            "videos": self.cluster.catalog_size(),
            "indexed_shots": self.cluster.index_size(),
            "jobs": by_status,
            "breaker": self.breaker.state,
            "cluster": {
                "n_shards": self.cluster.n_shards,
                "replication": self.cluster.replication,
                "effective_replication": self.cluster.effective_replication,
                "shards_up": sum(1 for s in shard_status if s["up"]),
                "shards": [
                    {
                        "shard": s["shard"],
                        "up": s["up"],
                        "down_reason": s["down_reason"],
                        "videos": s["videos"],
                        "replications": s["replications"],
                        "repairs": s["repairs"],
                    }
                    for s in shard_status
                ],
                "supervisor": self.supervisor.status(),
                "scrubber_running": (
                    self.scrubber is not None and self.scrubber.running
                ),
            },
        }

    def ready_payload(self) -> dict[str, Any]:
        """The readiness document served at ``GET /ready``."""
        return {
            "ready": self.ready,
            "accepting_ingest": self._accepting and self.breaker.admits(),
            "queue_depth": self._total_queue_depth(),
        }

    def overload_payload(self) -> dict[str, Any]:
        """The overload-control section of ``/metrics``."""
        with self._workers_lock:
            workers_alive = sum(1 for w in self._workers if w.is_alive())
            busy = len(self._active)
        with self._jobs_lock:
            pending = self._pending
        payload = {
            "queue_depth": self._total_queue_depth(),
            "queue_capacity": self.max_queue,
            "pending_jobs": pending,
            "accepting": self._accepting,
            "workers": len(self._workers),
            "workers_alive": workers_alive,
            "workers_busy": busy,
            "default_deadline_ms": self.default_deadline_ms,
            "breaker": self.breaker.snapshot(),
        }
        if self.n_queues > 1:
            payload["queue_depth_per_shard"] = [q.qsize() for q in self._queues]
        return payload

    def metrics_payload(self) -> dict[str, Any]:
        """The observability document served at ``GET /metrics``."""
        from ..pyramid.fused import operator_cache_stats
        from ..signature.extract import SignatureExtractor

        self._observe_queue_depth()
        payload = self.metrics.snapshot()
        payload["query_cache"] = self.cache.stats()
        payload["extractor_cache"] = SignatureExtractor.cache_stats()
        payload["fused_operator_cache"] = operator_cache_stats()
        payload["overload"] = self.overload_payload()
        cluster_status = self.cluster.status()
        cluster_status["supervisor"] = self.supervisor.status()
        if self.scrubber is not None:
            cluster_status["scrubber"] = self.scrubber.stats_snapshot()
        payload["cluster"] = cluster_status
        if self.traces is not None:
            payload["tracing"] = self.traces.stats()
        payload["uptime_s"] = round(self._clock() - self._started_mono, 3)
        return payload

    # ------------------------------------------------------------------
    # cluster administration
    # ------------------------------------------------------------------

    def _admin_shard(self, shard_id: int) -> Any:
        if not 0 <= shard_id < self.cluster.n_shards:
            raise QueryError(
                f"shard id {shard_id} out of range "
                f"(cluster has {self.cluster.n_shards} shards)"
            )
        return self.cluster.shards[shard_id]

    def kill_shard(
        self, shard_id: int, reason: str = "killed via admin endpoint"
    ) -> dict[str, Any]:
        """Take one shard out of rotation — the fault-injection half of
        the admin API (``POST /admin/shards/{id}/kill``), driven by the
        loadgen's mid-run outage scenario and by chaos tests."""
        shard = self._admin_shard(shard_id)
        shard.mark_down(reason)
        self.metrics.increment("admin_shard_kills")
        return shard.status()

    def revive_shard(self, shard_id: int) -> dict[str, Any]:
        """Return one shard to rotation (``POST /admin/shards/{id}/revive``).

        Goes through the supervisor when it was the one that benched the
        shard, so its cool-down bookkeeping stays consistent; otherwise
        a plain ``mark_up``.
        """
        shard = self._admin_shard(shard_id)
        if not self.supervisor.readmit(shard.name):
            shard.mark_up()
        self.metrics.increment("admin_shard_revivals")
        return shard.status()

    # ------------------------------------------------------------------
    # request tracing
    # ------------------------------------------------------------------

    def trace_context(self, trace_id: str | None = None) -> TraceContext | None:
        """A fresh per-request trace, or None when tracing is disabled.

        ``trace_id`` (the ``X-Trace-Id`` header) lets a client correlate
        the response with ``GET /debug/traces``; unset ids are generated.
        """
        if self.traces is None:
            return None
        return TraceContext(trace_id=trace_id, name="request")

    def observe_trace(self, ctx: TraceContext) -> dict[str, Any]:
        """Settle a request trace: finish it, retain it, and feed every
        span duration into the per-stage ``/metrics`` histograms."""
        doc = ctx.finish()
        if self.traces is not None:
            if self.traces.record(doc):
                self.metrics.increment("slow_queries")
                root = doc.get("root") or {}
                route = (root.get("annotations") or {}).get("route", "?")
                print(
                    f"slow query: trace={doc['trace_id']} route={route} "
                    f"duration={doc['duration_ms']:.3f}ms "
                    f"(threshold {self.slow_query_ms:g}ms)",
                    file=sys.stderr,
                )
        for _, node in iter_spans(doc):
            duration_ms = node.get("duration_ms")
            if duration_ms is not None:
                self.metrics.observe_stage(node["name"], duration_ms / 1_000.0)
        return doc

    def debug_traces_payload(self) -> dict[str, Any]:
        """The ``GET /debug/traces`` document."""
        if self.traces is None:
            return {"enabled": False, "traces": [], "slow": []}
        payload = self.traces.stats()
        payload["enabled"] = True
        payload["traces"] = self.traces.snapshot()
        payload["slow"] = self.traces.slow_snapshot()
        return payload

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def ready(self) -> bool:
        """Whether the engine is accepting work (readiness probe)."""
        return self._accepting and not self._stopping

    @property
    def draining(self) -> bool:
        """Whether a drain has begun (readiness is down)."""
        return not self._accepting

    def begin_drain(self) -> None:
        """Flip readiness down and stop accepting new work.

        Queries and job polls keep being served; only new ingest
        submissions are refused (503).  Idempotent.
        """
        if self._accepting:
            self._accepting = False
            self.metrics.increment("drains_started")

    def check_workers(self) -> dict[str, int]:
        """One watchdog sweep: replace dead workers, flag stuck ones.

        A dead worker (its thread crashed) is replaced in place.  A
        stuck worker — one ingest attempt running longer than
        ``stall_timeout`` on the engine clock — cannot be killed
        (Python threads are not cancellable), so a supplementary
        worker is added once per incident to restore pool capacity.
        Returns ``{"replaced": n, "supplemented": n}``; normally driven
        by the background watchdog thread, callable directly in tests.
        """
        replaced = supplemented = 0
        with self._workers_lock:
            if self._stopping:
                return {"replaced": 0, "supplemented": 0}
            for k, worker in enumerate(self._workers):
                if not worker.is_alive():
                    self._active.pop(worker.name, None)
                    self._stall_flagged.discard(worker.name)
                    # The replacement drains the same shard queue the
                    # dead worker was pinned to.
                    queue_index = self._worker_queue_index.pop(worker.name, 0)
                    self._workers[k] = self._spawn_worker_locked(queue_index)
                    replaced += 1
            now = self._clock()
            for name, (_job, since) in list(self._active.items()):
                if now - since > self.stall_timeout and name not in self._stall_flagged:
                    self._stall_flagged.add(name)
                    queue_index = self._worker_queue_index.get(name, 0)
                    self._workers.append(self._spawn_worker_locked(queue_index))
                    supplemented += 1
        if replaced:
            self.metrics.increment("workers_replaced", replaced)
        if supplemented:
            self.metrics.increment("workers_supplemented", supplemented)
        # The same sweep runs the shard supervisor's half-open probes,
        # so benched shards re-enter rotation without a second
        # background thread.
        readmitted = self.supervisor.probe()
        if readmitted:
            self.metrics.increment("shards_readmitted", len(readmitted))
        return {"replaced": replaced, "supplemented": supplemented}

    def _watchdog_loop(self) -> None:
        while not self._stopping:
            time.sleep(self.watchdog_interval)
            if self._stopping:
                return
            self.check_workers()

    def shutdown(self, timeout: float = 10.0, *, drain: bool = True) -> None:
        """Drain and stop the worker pool.

        Flips readiness down, optionally waits up to ``timeout``
        seconds for accepted jobs to finish (graceful drain), then
        stops the scrubber and the workers.  Jobs still unfinished
        after the drain budget are settled as failed so no client polls
        forever.  Nothing is saved: a durable database committed every
        finished job before reporting it done.
        """
        self.begin_drain()
        if drain:
            self._idle.wait(timeout)
        self._stopping = True
        if self.scrubber is not None:
            self.scrubber.stop()
        with self._workers_lock:
            workers = list(self._workers)
        for worker in workers:
            worker.join(timeout=max(timeout, 0.5))
        # Settle whatever the drain budget did not cover.
        abandoned = 0
        for job in self.jobs():
            if not job.done_event.is_set():
                job.error = "server shut down before the job finished"
                job.status = JobStatus.FAILED
                job.finished_at = time.time()
                job.finished_mono = self._clock()
                job.done_event.set()
                abandoned += 1
        if abandoned:
            self.metrics.increment("ingest_abandoned", abandoned)
        self.cluster.close()
