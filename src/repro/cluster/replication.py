"""Replica copy primitives and the breaker-style shard supervisor.

Replication is deliberately simple: a video's derived state (catalog
row, index rows, scene tree) is a self-contained
:class:`~repro.vdbms.database.VideoRecord`, so a replica copy is just
``export_video`` on a healthy holder followed by ``adopt`` on the
target — both through the checksummed staged-publish protocol, so a
replica is exactly as durable (and exactly as verifiable) as a
primary.  :func:`copy_video` packages that under the right locks and
:func:`drop_video` deletes a copy; every copy and every delete the
placement reconciler (:class:`~repro.cluster.rebalance.Rebalancer`)
makes, and every heal of the integrity scrubber, goes through them.

:class:`ShardSupervisor` is the service-side health loop: it watches
scatter outcomes, benches a shard after ``threshold`` *consecutive*
failures (breaker-style — one slow query does not bench anyone), and
re-admits it after a cool-down probe proves it serves reads again.  A
benched shard is marked down, so scatters skip it immediately instead
of burning deadline budget on it; with replication >= 2 its corpus
keeps being served by the replicas, so answers stay complete.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Any

from ..errors import CatalogError, ClusterError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .coordinator import ClusterAnswer, ClusterCoordinator
    from .shard import Shard

__all__ = ["ShardSupervisor", "copy_video", "drop_video"]

#: Lock-acquisition budget for copies and deletes: long enough to
#: outwait a publish, short enough that a pass never wedges behind a
#: stuck shard.
_LOCK_TIMEOUT_S = 30.0


def copy_video(
    cluster: "ClusterCoordinator",
    video_id: str,
    source: "Shard",
    dest: "Shard",
    *,
    replace: bool = False,
) -> bool:
    """Copy one video's committed state from ``source`` onto ``dest``.

    Exports under the source's read lock, adopts under the destination's
    write lock (one record file and one manifest delta on durable
    shards), and records the new copy in the coordinator's holder map.
    With ``replace=True`` an existing copy on ``dest`` is swapped for
    the source's in one commit, its record file rewritten even when
    the bytes match — the divergence and bit-rot repair path.  Returns
    False when the video vanished from the source meanwhile
    (already-removed videos are not an error for repair).
    """
    try:
        with source.lock.read_locked(_LOCK_TIMEOUT_S):
            record = source.db.export_video(video_id)
    except CatalogError:
        return False
    with dest.lock.write_locked(_LOCK_TIMEOUT_S):
        try:
            if replace and video_id in dest.db.catalog:
                dest.db.replace(record)
            else:
                dest.db.adopt(record)
        except CatalogError:
            return True  # raced with another pass: copy already there
    cluster.note_copy(video_id, dest.shard_id)
    dest.repairs += 1
    return True


def drop_video(cluster: "ClusterCoordinator", video_id: str, shard: "Shard") -> None:
    """Delete ``shard``'s copy of one video, never the last copy.

    Waits first for every scatter round in flight
    (:meth:`ClusterCoordinator.note_move_visible`): such a round may have
    read a fresh copy's shard before the copy, but then it reads this
    one before the delete.  Removes under the shard's write lock (one
    manifest delta on a durable shard) and records the drop in the
    coordinator's holder map.
    """
    shard.check_up("drop")
    if set(cluster.holders_of(video_id)) <= {shard.shard_id}:
        raise ClusterError(
            f"refusing to drop the only copy of {video_id!r} (on {shard.name})"
        )
    cluster.note_move_visible()
    with shard.lock.write_locked(_LOCK_TIMEOUT_S):
        if video_id in shard.db.catalog:
            shard.db.remove(video_id)
    cluster.note_drop(video_id, shard.shard_id)


class ShardSupervisor:
    """Consecutive-failure tracking with cool-down re-admission.

    ``observe`` is fed every :class:`ClusterAnswer`; shards failing
    ``threshold`` scatters *in a row* (reason ``error`` or ``deadline``
    — a shard someone already marked down is not double-counted) are
    benched via ``mark_down``.  A ``busy`` failure (the budget ran out
    queued for the shard's lock behind a writer) neither counts nor
    resets a streak: a busy shard is not a sick one.  ``probe``
    re-admits benched shards
    after ``retry_after_s`` once a trivial read succeeds, and is called
    from the service watchdog; ``readmit`` is the explicit post-repair
    hook.  Only shards *this supervisor benched* are ever re-admitted —
    an operator's manual ``mark_down`` is respected.
    """

    def __init__(
        self,
        cluster: "ClusterCoordinator",
        *,
        threshold: int = 3,
        retry_after_s: float = 5.0,
        clock=time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.cluster = cluster
        self.threshold = threshold
        self.retry_after_s = retry_after_s
        self._clock = clock
        self._lock = threading.Lock()
        #: Shards on a failure streak only (no zero counts), so a clean
        #: scatter with no streak to reset skips the lock.
        self._consecutive: dict[str, int] = {}
        self._benched: dict[str, float] = {}
        #: Monotonic counters for /metrics.
        self.trips = 0
        self.readmissions = 0

    def _shard_named(self, name: str) -> "Shard | None":
        for shard in self.cluster.shards:
            if shard.name == name:
                return shard
        return None

    def observe(self, answer: "ClusterAnswer") -> list[str]:
        """Fold one scatter outcome in; returns shards benched by it."""
        if not answer.shards_failed and not self._consecutive:
            return []  # a clean scatter and no streak to reset
        failed = {f["shard"]: f["reason"] for f in answer.shards_failed}
        benched: list[str] = []
        with self._lock:
            for shard in self.cluster.shards:
                name = shard.name
                if failed.get(name) in ("error", "deadline"):
                    count = self._consecutive.get(name, 0) + 1
                    self._consecutive[name] = count
                    if count >= self.threshold and not shard.down:
                        shard.mark_down(
                            f"supervisor: {count} consecutive scatter failures"
                        )
                        self._benched[name] = self._clock()
                        self.trips += 1
                        benched.append(name)
                elif name not in failed and not shard.down:
                    self._consecutive.pop(name, None)
        return benched

    def probe(self) -> list[str]:
        """Half-open check: re-admit cooled-down shards that serve reads."""
        now = self._clock()
        with self._lock:
            due = [
                name
                for name, benched_at in self._benched.items()
                if now - benched_at >= self.retry_after_s
            ]
        readmitted: list[str] = []
        for name in due:
            shard = self._shard_named(name)
            if shard is None:  # pragma: no cover - reshard while benched
                with self._lock:
                    self._benched.pop(name, None)
                continue
            try:
                with shard.lock.read_locked(1.0):
                    len(shard.db.catalog)  # proves the shard answers reads
            except Exception:
                with self._lock:
                    self._benched[name] = now  # still sick: restart cool-down
                continue
            self.readmit(name)
            readmitted.append(name)
        return readmitted

    def readmit(self, name: str) -> bool:
        """Return a benched shard to rotation (post-repair hook)."""
        with self._lock:
            if name not in self._benched:
                return False
            self._benched.pop(name)
            self._consecutive.pop(name, None)
        shard = self._shard_named(name)
        if shard is not None:
            shard.mark_up()
        self.readmissions += 1
        return True

    def status(self) -> dict[str, Any]:
        """JSON-compatible supervisor state for ``/health``."""
        with self._lock:
            return {
                "threshold": self.threshold,
                "retry_after_s": self.retry_after_s,
                "trips": self.trips,
                "readmissions": self.readmissions,
                "benched": sorted(self._benched),
                "consecutive_failures": dict(sorted(self._consecutive.items())),
            }
