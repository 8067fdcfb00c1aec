"""The background integrity scrubber.

Placement-level convergence (missing, divergent and stray copies) is
the placement reconciler's job (:class:`~repro.cluster.rebalance.Rebalancer`,
``repro cluster repair``).  The scrubber is byte-level: it walks
every durable shard's manifest-tracked files and re-verifies each
against its committed digest — the same check ``fsck`` runs, but
continuously and at a configurable pace (``files_per_tick`` files per
shard, ``interval_s`` sleep between ticks, so a big corpus is scrubbed
gently in the background rather than in one IO storm).  A rotted
record file is quarantined (evidence preserved), the video is dropped
from the sick shard, and a fresh copy is adopted from a healthy holder
(``videos_repaired``); with none, the record is rewritten from the
shard's own in-memory copy, which was verified when it was loaded
(``files_republished``).  Only a video with no healthy copy on disk or
in memory is counted in ``videos_lost``.

The scrubber is safe against live traffic: checks run under shard read
locks (so a publish can never be half-observed) and repairs under the
usual write locks, like any other ingest.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any

from ..errors import CatalogError
from ..vdbms.manifest import RECORD_PREFIX

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .coordinator import ClusterCoordinator
    from .shard import Shard

__all__ = ["IntegrityScrubber"]

#: Lock budget for scrub reads and repairs (outwaits a publish).
_LOCK_TIMEOUT_S = 30.0


class IntegrityScrubber:
    """Continuously re-verify committed digests; repair what rotted.

    ``run_once`` performs one full pass (every tracked file on every
    durable shard) and is what the CLI and tests call; ``start`` runs
    passes forever on a daemon thread, sleeping ``interval_s`` between
    ``files_per_tick``-sized batches so scrubbing never competes with
    foreground traffic for more than a moment.
    """

    def __init__(
        self,
        cluster: "ClusterCoordinator",
        *,
        files_per_tick: int = 8,
        interval_s: float = 0.25,
        metrics: Any = None,
    ) -> None:
        if files_per_tick < 1:
            raise ValueError(
                f"files_per_tick must be >= 1, got {files_per_tick}"
            )
        self.cluster = cluster
        self.files_per_tick = files_per_tick
        self.interval_s = interval_s
        self.metrics = metrics
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

    def _bump(self, name: str, amount: int = 1) -> None:
        with self._stats_lock:
            self.stats[name] += amount
        if self.metrics is not None and amount:
            self.metrics.increment(f"scrub_{name}", amount)

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
        since_sleep = 0
        for logical in logicals:
            if self._stop.is_set():
                return
            if since_sleep >= self.files_per_tick:
                since_sleep = 0
                if self.interval_s > 0:
                    self._stop.wait(self.interval_s)
            since_sleep += 1
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
        """Quarantine a rotted record and restore the video: re-adopt it
        from a healthy holder, else rewrite it from this shard's own
        in-memory copy (verified when it was loaded)."""
        storage = shard.db.storage
        assert storage is not None
        try:
            if relpath and (storage.root / relpath).exists():
                storage.quarantine(relpath)  # preserve the evidence
        except OSError:
            pass
        video_id = logical[len(RECORD_PREFIX):]
        cluster = self.cluster
        record, stat = None, "videos_repaired"
        try:
            holders = cluster.holders_of(video_id)
        except CatalogError:
            holders = ()
        for holder_id in holders:
            if holder_id == shard.shard_id:
                continue
            other = cluster.shard(holder_id)
            if other.down:
                continue
            try:
                with other.lock.read_locked(_LOCK_TIMEOUT_S):
                    record = other.db.export_video(video_id)
                break
            except Exception:
                continue
        try:
            with shard.lock.write_locked(_LOCK_TIMEOUT_S):
                held = video_id in shard.db.catalog
                if record is None and held:
                    record = shard.db.export_video(video_id)
                    stat = "files_republished"
                if record is not None:
                    # Replicas are byte-identical, so the fresh copy
                    # matches the manifest digest of the rotted file; if
                    # the quarantine above failed, that file is still in
                    # place and must be rewritten, not carried over.
                    storage.distrust(logical)
                    (shard.db.replace if held else shard.db.adopt)(record)
        except Exception:
            shard.mark_down(f"scrubber: cannot repair {video_id}")
            return
        if record is not None:
            cluster.note_copy(video_id, shard.shard_id)
            shard.repairs += 1
            self._bump(stat)
        else:
            cluster.note_drop(video_id, shard.shard_id)
            self._bump("videos_lost")

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
