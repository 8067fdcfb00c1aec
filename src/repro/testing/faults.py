"""Fault injection for the storage write path, plus a kill-point sweep.

The storage layer funnels every durability-relevant operation through
an injectable :class:`~repro.vdbms.fsio.LocalFS` (the ops vocabulary:
``write``, ``fsync``, ``replace``, ``unlink``, ``fsync_dir``).  This
module provides the wrappers that exploit that seam:

* :class:`RecordingFS` — performs every operation and records the
  sequence, enumerating a save's injection points;
* :class:`FaultyFS` — fails at the k-th matching operation in one of
  four modes (see below);
* :func:`sweep_kill_points` — runs an operation once per injection
  point per mode and asks the caller to classify the surviving on-disk
  state (``pre``/``post``/``detected`` — anything else is a torn state
  and a bug);
* :class:`FlakyHook` — a callable that raises for its first N calls,
  for injecting transient faults into the service ingest workers;
* :class:`ShardOutage` — kills one cluster shard for the duration of a
  ``with`` block (or mid-query, via :meth:`ShardOutage.kill` /
  :meth:`ShardOutage.revive`), for replication failover tests;
* :func:`inject_bit_rot` — flips one byte in a committed,
  manifest-tracked file *without touching the manifest*, modelling the
  silent disk corruption the integrity scrubber exists to catch.

Fault modes
===========

``crash``
    The k-th operation raises :class:`SimulatedCrash` *without
    executing*, and so does every later operation — the process model
    died; nothing is written after the kill point.
``torn``
    The k-th operation must be a ``write``; half the bytes land on
    disk, then the filesystem dies as in ``crash``.
``corrupt``
    The k-th operation must be a ``write``; one byte is flipped and
    execution continues normally — silent disk corruption.  The
    database must *detect* this on the next load (the manifest digest
    was computed from the intended bytes).
``error``
    ``fail_times`` matching operations from the k-th on raise
    :class:`OSError` and are not executed; later ones succeed — a
    transient fault that a retry loop should absorb.

:class:`SimulatedCrash` derives from :class:`BaseException` on
purpose: no ``except Exception``/``except OSError`` recovery path in
the code under test can swallow it, exactly like a real ``kill -9``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from ..errors import StorageError
from ..vdbms.fsio import LocalFS

__all__ = [
    "FaultPoint",
    "FaultyFS",
    "FlakyHook",
    "KillPointRun",
    "RecordingFS",
    "ShardOutage",
    "SimulatedCrash",
    "inject_bit_rot",
    "sweep_kill_points",
]


class SimulatedCrash(BaseException):
    """The process model died at an injected kill point.

    A ``BaseException`` so that cleanup code catching ``Exception`` or
    ``OSError`` cannot accidentally resurrect the process.
    """


@dataclass(frozen=True, slots=True)
class FaultPoint:
    """One recorded filesystem operation — a candidate kill point."""

    index: int  # 1-based position in the operation sequence
    op: str  # write | fsync | replace | unlink | fsync_dir
    path: str

    def __str__(self) -> str:
        return f"#{self.index} {self.op} {Path(self.path).name}"


class RecordingFS(LocalFS):
    """Performs every operation for real and records the sequence."""

    def __init__(self) -> None:
        self.ops: list[FaultPoint] = []

    def _note(self, op: str, path: Path) -> None:
        self.ops.append(FaultPoint(index=len(self.ops) + 1, op=op, path=str(path)))

    def write_bytes(self, path: Path, data: bytes) -> None:
        """Record a ``write`` point, then write for real."""
        self._note("write", path)
        super().write_bytes(path, data)

    def fsync(self, path: Path) -> None:
        """Record an ``fsync`` point, then fsync for real."""
        self._note("fsync", path)
        super().fsync(path)

    def replace(self, src: Path, dst: Path) -> None:
        """Record a ``replace`` point, then rename for real."""
        self._note("replace", dst)
        super().replace(src, dst)

    def unlink(self, path: Path) -> None:
        """Record an ``unlink`` point, then unlink for real."""
        self._note("unlink", path)
        super().unlink(path)

    def fsync_dir(self, path: Path) -> None:
        """Record an ``fsync_dir`` point, then fsync for real."""
        self._note("fsync_dir", path)
        super().fsync_dir(path)


class FaultyFS(LocalFS):
    """A filesystem that fails on cue (see the module docstring).

    Args:
        fail_at: 1-based index of the matching operation to fail
            (in mode ``error``, the first of ``fail_times``).
        mode: ``crash`` | ``torn`` | ``corrupt`` | ``error``.
        ops: restrict matching to these operation kinds (all when None).
        fail_times: for ``error`` mode, how many matching operations
            raise before the fault heals.
    """

    _MODES = ("crash", "torn", "corrupt", "error")

    def __init__(
        self,
        *,
        fail_at: int = 1,
        mode: str = "crash",
        ops: Sequence[str] | None = None,
        fail_times: int = 1,
    ) -> None:
        if mode not in self._MODES:
            raise ValueError(f"unknown fault mode {mode!r} (use one of {self._MODES})")
        if fail_at < 1:
            raise ValueError(f"fail_at is 1-based, got {fail_at}")
        self.fail_at = fail_at
        self.mode = mode
        self.ops = None if ops is None else frozenset(ops)
        self.fail_times = fail_times
        self.seen = 0  # matching operations observed so far
        self.failures = 0  # faults actually injected
        self._dead = False

    # -- bookkeeping ----------------------------------------------------

    def _trip(self, op: str) -> bool:
        """Count one operation; True when it must fail."""
        if self._dead:
            raise SimulatedCrash(f"operation {op!r} after the kill point")
        if self.ops is not None and op not in self.ops:
            return False
        self.seen += 1
        if self.mode == "error":
            if self.fail_at <= self.seen < self.fail_at + self.fail_times:
                self.failures += 1
                return True
            return False
        if self.seen == self.fail_at:
            self.failures += 1
            return True
        return False

    def _die(self, op: str, path: Path) -> None:
        self._dead = True
        raise SimulatedCrash(f"injected crash at {op} {path}")

    # -- operations -----------------------------------------------------

    def write_bytes(self, path: Path, data: bytes) -> None:
        """Write, or tear/corrupt/refuse the write at the kill point."""
        if not self._trip("write"):
            super().write_bytes(path, data)
            return
        if self.mode == "error":
            raise OSError(f"injected transient write error: {path}")
        if self.mode == "torn":
            super().write_bytes(path, data[: max(1, len(data) // 2)])
            self._die("write (torn)", path)
        if self.mode == "corrupt":
            corrupted = bytearray(data)
            corrupted[len(corrupted) // 2] ^= 0xFF
            super().write_bytes(path, bytes(corrupted))
            return  # silent: execution continues on flipped bytes
        self._die("write", path)

    def fsync(self, path: Path) -> None:
        """Fsync, or fail at the kill point."""
        if self._trip("fsync"):
            if self.mode == "error":
                raise OSError(f"injected transient fsync error: {path}")
            self._die("fsync", path)
        super().fsync(path)

    def replace(self, src: Path, dst: Path) -> None:
        """Atomically rename, or fail at the kill point."""
        if self._trip("replace"):
            if self.mode == "error":
                raise OSError(f"injected transient rename error: {dst}")
            self._die("replace", dst)
        super().replace(src, dst)

    def unlink(self, path: Path) -> None:
        """Unlink, or fail at the kill point."""
        if self._trip("unlink"):
            if self.mode == "error":
                raise OSError(f"injected transient unlink error: {path}")
            self._die("unlink", path)
        super().unlink(path)

    def fsync_dir(self, path: Path) -> None:
        """Fsync the directory, or fail at the kill point."""
        if self._trip("fsync_dir"):
            if self.mode == "error":
                raise OSError(f"injected transient dirsync error: {path}")
            self._die("fsync_dir", path)
        super().fsync_dir(path)


class FlakyHook:
    """A callable raising ``exc`` for its first ``fail_times`` calls.

    Drop it into ``ServiceEngine(ingest_hook=...)`` to model a worker
    whose first attempts hit a transient fault; with
    ``fail_times=None`` it fails forever (a poison job).
    """

    def __init__(
        self,
        fail_times: int | None = 1,
        exc: Callable[[str], BaseException] = lambda msg: OSError(msg),
        only: Callable[[Any], bool] | None = None,
    ) -> None:
        self.fail_times = fail_times
        self.exc = exc
        self.only = only
        self.calls = 0
        self.failures = 0

    def __call__(self, clip: Any) -> None:
        if self.only is not None and not self.only(clip):
            return
        self.calls += 1
        if self.fail_times is None or self.calls <= self.fail_times:
            self.failures += 1
            raise self.exc(f"injected fault (call {self.calls})")


class ShardOutage:
    """Take one cluster shard out of rotation for a ``with`` block.

    Entering the block kills the shard (``mark_down``); leaving it
    revives it — unless the shard was already down, in which case the
    outage is a no-op both ways (someone else's fault is not healed by
    this one ending).  :meth:`kill` and :meth:`revive` toggle the same
    shard explicitly for mid-query choreography::

        with ShardOutage(cluster, 1):
            answer = cluster.query(0.5, 0.5)   # shard-1 is dead here
        # shard-1 serves again

    Works against a bare :class:`~repro.cluster.ClusterCoordinator` or
    anything exposing ``.shards``.
    """

    def __init__(
        self,
        cluster: Any,
        shard_id: int,
        reason: str = "injected shard outage",
    ) -> None:
        self.cluster = cluster
        self.shard_id = shard_id
        self.reason = reason
        self._owns_outage = False

    @property
    def shard(self) -> Any:
        return self.cluster.shards[self.shard_id]

    def kill(self) -> None:
        """Mark the shard down now (idempotent)."""
        self.shard.mark_down(self.reason)

    def revive(self) -> None:
        """Return the shard to rotation now (idempotent)."""
        self.shard.mark_up()

    def __enter__(self) -> "ShardOutage":
        self._owns_outage = not self.shard.down
        if self._owns_outage:
            self.kill()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        if self._owns_outage:
            self.revive()


def inject_bit_rot(
    root: str | Path,
    *,
    logical: str | None = None,
    offset: int | None = None,
) -> Path:
    """Flip one byte inside a committed, manifest-tracked file.

    Models bit rot: the bytes on disk change while the manifest — its
    digests included — stays exactly as the last publish wrote it, so
    nothing short of digest re-verification (``fsck``, the cluster's
    integrity scrubber) can notice.  ``logical`` picks the tracked file
    to rot (``video:<id>``; default: first in sorted order); ``offset``
    the byte to flip (default: the middle).
    Returns the path that was corrupted.
    """
    from ..vdbms.storage import DatabaseStorage

    storage = DatabaseStorage(root)
    records = storage.tracked_records()
    if not records:
        raise ValueError(f"{root}: no manifest-tracked files to corrupt")
    if logical is None:
        logical = sorted(records)[0]
    record = records.get(logical)
    if record is None:
        raise ValueError(f"{root}: manifest tracks no file for {logical!r}")
    path = Path(root) / record.path
    data = bytearray(path.read_bytes())
    if not data:
        raise ValueError(f"{path}: cannot flip a byte in an empty file")
    at = (len(data) // 2) if offset is None else offset % len(data)
    data[at] ^= 0xFF
    path.write_bytes(bytes(data))
    return path


# ----------------------------------------------------------------------
# the kill-point sweep
# ----------------------------------------------------------------------


@dataclass(slots=True)
class KillPointRun:
    """The outcome of one faulted execution."""

    point: FaultPoint
    mode: str
    state: str  # the classifier's verdict, e.g. "pre" | "post" | "detected"
    error: str | None = None  # what the faulted operation raised, if anything

    def __str__(self) -> str:
        suffix = f" ({self.error})" if self.error else ""
        return f"[{self.mode:>7s}] {self.point} -> {self.state}{suffix}"


@dataclass(slots=True)
class SweepReport:
    """Every run of one sweep, plus the recorded op sequence."""

    points: list[FaultPoint]
    runs: list[KillPointRun] = field(default_factory=list)

    def states(self) -> set[str]:
        """The set of classifier verdicts seen across all runs."""
        return {run.state for run in self.runs}

    def by_mode(self, mode: str) -> list[KillPointRun]:
        """All runs injected with the given fault mode."""
        return [run for run in self.runs if run.mode == mode]


def sweep_kill_points(
    setup: Callable[[], Any],
    operation: Callable[[Any, LocalFS], None],
    classify: Callable[[Any, str], str],
    modes: Iterable[str] = ("crash", "torn", "corrupt"),
) -> SweepReport:
    """Execute ``operation`` once per injection point per fault mode.

    Args:
        setup: builds a fresh environment (e.g. copies a pristine
            database directory into a new temp root) and returns a
            context object; called once per run.
        operation: runs the operation under test against the given
            filesystem; must route all writes through it.
        classify: inspects the context's on-disk state *with the real
            filesystem* after the fault and names what it found —
            conventionally ``"pre"``, ``"post"`` or ``"detected"``.
            It should raise (failing the test) on a torn state.
        modes: fault modes to sweep; ``torn``/``corrupt`` apply only to
            ``write`` points.

    First runs once with a :class:`RecordingFS` to enumerate the
    operation sequence, then replays with a :class:`FaultyFS` per
    (point, mode).  Faults escaping ``operation`` (SimulatedCrash,
    OSError, StorageError) are recorded; any other exception
    propagates.
    """
    probe = setup()
    recorder = RecordingFS()
    operation(probe, recorder)
    report = SweepReport(points=list(recorder.ops))
    for point in report.points:
        for mode in modes:
            if mode in ("torn", "corrupt") and point.op != "write":
                continue
            context = setup()
            fs = FaultyFS(fail_at=point.index, mode=mode)
            error: str | None = None
            try:
                operation(context, fs)
            except (SimulatedCrash, OSError, StorageError) as exc:
                error = f"{type(exc).__name__}: {exc}"
            state = classify(context, mode)
            report.runs.append(
                KillPointRun(point=point, mode=mode, state=state, error=error)
            )
    return report
