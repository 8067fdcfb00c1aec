"""The background integrity scrubber.

Placement-level convergence (missing, divergent and stray copies) is
the placement reconciler's job (:class:`~repro.cluster.rebalance.Rebalancer`,
``repro cluster repair``).  The scrubber is byte-level: it walks
every durable shard's manifest-tracked files and re-verifies each
against its committed digest — the same check ``fsck`` runs, but
continuously and at a gentle pace (``interval_s`` sleep after every
:data:`_FILES_PER_TICK` files per shard, so a big corpus is scrubbed in
the background rather than in one IO storm).

The scrubber only detects; the reconciler's copy path heals.  A
rotted record file is quarantined (evidence preserved), then
:func:`~repro.cluster.replication.copy_video` rewrites the video on the
sick shard from a live holder on another shard (``videos_repaired``),
else from the shard's own in-memory copy, which was verified when it
was loaded (``files_republished``).  Only a video with no healthy copy
on disk or in memory is counted in ``videos_lost``.

The scrubber is safe against live traffic: checks run under shard read
locks (so a publish can never be half-observed) and repairs under the
usual write locks, like any other copy.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from ..errors import CatalogError
from ..vdbms.manifest import RECORD_PREFIX
from .replication import _LOCK_TIMEOUT_S, copy_video

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .coordinator import ClusterCoordinator
    from .shard import Shard

__all__ = ["IntegrityScrubber"]

#: Files verified per shard between two ``interval_s`` sleeps.
_FILES_PER_TICK = 8


class IntegrityScrubber:
    """Continuously re-verify committed digests; repair what rotted.

    ``run_once`` performs one full pass (every tracked file on every
    durable shard) and is what the CLI and tests call; ``start`` runs
    passes forever on a daemon thread, sleeping ``interval_s`` between
    small batches of files so scrubbing never competes with foreground
    traffic for more than a moment (``interval_s=0`` never sleeps).
    """

    def __init__(
        self, cluster: "ClusterCoordinator", *, interval_s: float = 0.25
    ) -> None:
        self.cluster = cluster
        self.interval_s = interval_s
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._stats_lock = threading.Lock()
        self.stats: dict[str, int] = {
            "passes": 0,
            "files_checked": 0,
            "corruption_found": 0,
            "videos_repaired": 0,
            "files_republished": 0,
            "videos_lost": 0,
        }

    def _bump(self, name: str) -> None:
        with self._stats_lock:
            self.stats[name] += 1

    def stats_snapshot(self) -> dict[str, int]:
        """A consistent copy of the lifetime scrub counters."""
        with self._stats_lock:
            return dict(self.stats)

    # ------------------------------------------------------------------
    # scanning
    # ------------------------------------------------------------------

    def run_once(self) -> dict[str, int]:
        """One full scrub pass; returns the deltas it produced."""
        before = self.stats_snapshot()
        for shard in list(self.cluster.shards):
            if self._stop.is_set():
                break
            self._scrub_shard(shard)
        self._bump("passes")
        after = self.stats_snapshot()
        return {key: after[key] - before[key] for key in after}

    def _scrub_shard(self, shard: "Shard") -> None:
        storage = shard.db.storage
        if storage is None or shard.down:
            return  # in-memory shards have no committed bytes to rot
        try:
            with shard.lock.read_locked(_LOCK_TIMEOUT_S):
                logicals = sorted(storage.tracked_records())
        except Exception:
            return
        for k, logical in enumerate(logicals):
            if k and k % _FILES_PER_TICK == 0 and self.interval_s > 0:
                self._stop.wait(self.interval_s)
            if self._stop.is_set():
                return
            try:
                with shard.lock.read_locked(_LOCK_TIMEOUT_S):
                    check = storage.check_tracked(logical)
            except Exception:
                continue
            if check.status == "ok":
                self._bump("files_checked")
                continue
            if check.status == "missing" and not check.path:
                continue  # dropped from the manifest since we listed it
            self._bump("files_checked")
            self._bump("corruption_found")
            self._repair(shard, logical, check.path)

    # ------------------------------------------------------------------
    # repair
    # ------------------------------------------------------------------

    def _repair(self, shard: "Shard", logical: str, relpath: str) -> None:
        """Quarantine a rotted record, then rewrite the video on
        ``shard`` through :func:`copy_video` (whose ``replace`` rewrites
        the record even when the rotted file is still in place)."""
        storage = shard.db.storage
        assert storage is not None
        try:
            if relpath and (storage.root / relpath).exists():
                storage.quarantine(relpath)  # preserve the evidence
        except OSError:
            pass
        video_id = logical[len(RECORD_PREFIX):]
        source = self._source_for(video_id, shard)
        if source is None:
            self.cluster.note_drop(video_id, shard.shard_id)
            self._bump("videos_lost")
            return
        try:
            copied = copy_video(self.cluster, video_id, source, shard, replace=True)
        except Exception:
            shard.mark_down(f"scrubber: cannot repair {video_id}")
            return
        if copied:
            self._bump("files_republished" if source is shard else "videos_repaired")

    def _source_for(self, video_id: str, shard: "Shard") -> "Shard | None":
        """A live holder on another shard, else ``shard`` itself when
        its memory still holds the video, else None (lost)."""
        try:
            holders = self.cluster.holders_of(video_id)
        except CatalogError:
            holders = ()
        for holder_id in holders:
            other = self.cluster.shard(holder_id)
            if other is not shard and not other.down:
                return other
        return shard if video_id in shard.db.catalog else None

    # ------------------------------------------------------------------
    # background thread
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Run scrub passes on a daemon thread until :meth:`stop`."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()

        def loop() -> None:
            while not self._stop.is_set():
                self.run_once()
                if self.interval_s > 0:
                    self._stop.wait(self.interval_s)

        self._thread = threading.Thread(
            target=loop, name="integrity-scrubber", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Signal the thread and join it (idempotent)."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=timeout)
        self._thread = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()
