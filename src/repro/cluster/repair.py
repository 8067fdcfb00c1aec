"""Anti-entropy repair and the background integrity scrubber.

Two complementary loops keep an R-replicated cluster converged with
its placement contract and honest about bit-rot:

**Anti-entropy** (:class:`AntiEntropyRepairer`) is placement-level: for
every video it compares the shards that *should* hold a copy
(``router.shards_for(id, R)``) against the shards that *do*, then

* copies missing replicas from a healthy holder (export -> adopt, the
  same staged, checksummed publish path every write takes),
* repairs divergent replicas — detected by comparing each holder's
  fingerprint of the video, the digest of its record file
  (``VideoDatabase.record_digest``: the ``blake2s`` a durable shard's
  manifest records for ``video:<id>``, no re-hashing; an in-memory
  shard hashes the bytes the same serializer would write) — by
  re-adopting the primary's copy, and
* drops stray copies living outside the expected set (left by a crash
  between a rebalance copy and its source delete), but only when a
  legitimate holder exists.

**Scrubbing** (:class:`IntegrityScrubber`) is byte-level: it walks
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

Both loops are safe against live traffic: checks run under shard read
locks (so a publish can never be half-observed) and repairs under the
usual write locks, like any other ingest.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..errors import CatalogError
from ..vdbms.manifest import RECORD_PREFIX
from .replication import copy_video

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .coordinator import ClusterCoordinator
    from .shard import Shard

__all__ = ["AntiEntropyRepairer", "IntegrityScrubber", "RepairReport"]

#: Lock budget for repair-side reads/writes (outwaits a publish).
_LOCK_TIMEOUT_S = 30.0


@dataclass
class RepairReport:
    """What one anti-entropy pass found and fixed."""

    videos_checked: int = 0
    copies_added: int = 0
    divergent_repaired: int = 0
    strays_removed: int = 0
    #: Videos with a missing/divergent copy that no healthy source
    #: could repair (every other holder down or gone).
    unrepairable: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def repaired_anything(self) -> bool:
        return bool(
            self.copies_added or self.divergent_repaired or self.strays_removed
        )

    @property
    def converged(self) -> bool:
        """True when the cluster now matches its placement contract."""
        return not self.unrepairable and not self.errors

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible report for the CLI and tests."""
        return {
            "videos_checked": self.videos_checked,
            "copies_added": self.copies_added,
            "divergent_repaired": self.divergent_repaired,
            "strays_removed": self.strays_removed,
            "unrepairable": list(self.unrepairable),
            "errors": list(self.errors),
            "converged": self.converged,
        }


class AntiEntropyRepairer:
    """Converge every video onto its expected holder set (one pass)."""

    def __init__(
        self, cluster: "ClusterCoordinator", *, metrics: Any = None
    ) -> None:
        self.cluster = cluster
        self.metrics = metrics

    def _bump(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None and amount:
            self.metrics.increment(name, amount)

    def run(self) -> RepairReport:
        """One full anti-entropy pass over every video in the cluster."""
        report = RepairReport()
        cluster = self.cluster
        for video_id in cluster.video_ids():
            try:
                holders = set(cluster.holders_of(video_id))
            except CatalogError:
                continue  # removed while we walked
            report.videos_checked += 1
            expected = cluster.router.shards_for(
                video_id, cluster.replication
            )
            expected_set = set(expected)
            live = {
                shard_id
                for shard_id in holders
                if not cluster.shard(shard_id).down
            }
            # The authoritative copy: the primary when it is live,
            # otherwise any live legitimate holder, otherwise any live
            # holder at all (a stray's data is still real data).
            source_id = next(
                (
                    s
                    for s in [expected[0]]
                    + [e for e in expected[1:]]
                    + sorted(holders - expected_set)
                    if s in live
                ),
                None,
            )
            if source_id is None:
                if expected_set - holders:
                    report.unrepairable.append(video_id)
                continue
            source = cluster.shard(source_id)
            source_print = source.db.record_digest(video_id)

            for shard_id in expected:
                if shard_id == source_id:
                    continue
                dest = cluster.shard(shard_id)
                if dest.down:
                    report.unrepairable.append(video_id)
                    continue
                try:
                    if shard_id not in holders:
                        if copy_video(cluster, video_id, source, dest):
                            report.copies_added += 1
                    elif dest.db.record_digest(video_id) != source_print:
                        if copy_video(
                            cluster, video_id, source, dest, replace=True
                        ):
                            report.divergent_repaired += 1
                except Exception as exc:
                    report.errors.append(
                        f"{video_id} -> {dest.name}: "
                        f"{type(exc).__name__}: {exc}"
                    )

            if holders & expected_set:
                for shard_id in sorted(holders - expected_set):
                    stray = cluster.shard(shard_id)
                    if stray.down:
                        continue
                    try:
                        with stray.lock.write_locked(_LOCK_TIMEOUT_S):
                            stray.db.remove(video_id)
                        cluster.note_drop(video_id, shard_id)
                        report.strays_removed += 1
                    except Exception as exc:
                        report.errors.append(
                            f"{video_id} stray on {stray.name}: "
                            f"{type(exc).__name__}: {exc}"
                        )
        cluster.conflicts = [
            (video_id, shard_id)
            for video_id, shard_id in cluster.conflicts
            if shard_id in set(cluster.holders_snapshot().get(video_id, ()))
            and shard_id
            not in set(
                cluster.router.shards_for(video_id, cluster.replication)
            )
        ]
        self._bump("repair_copies_added", report.copies_added)
        self._bump("repair_divergent_repaired", report.divergent_repaired)
        self._bump("repair_strays_removed", report.strays_removed)
        self._bump("repair_unrepairable", len(report.unrepairable))
        return report


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
