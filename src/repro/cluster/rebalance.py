"""Online rebalancing: move videos between shards without stopping reads.

A move is copy-then-delete through the existing durability machinery:

1. **export** the video's derived state from the source shard (under
   its *read* lock — queries there continue),
2. **adopt** it on the destination (under that shard's write lock; the
   adopt publishes through the checksummed manifest-swap path, so the
   copy is durable before we touch the source),
3. flip the coordinator's placement map to the destination,
4. **remove** the source copy (under the source's write lock, again a
   durable publish).

Between steps 2 and 4 the video exists on two shards; scatter-gather
queries stay correct because the coordinator dedups merged answers by
shot identity.  A crash in that window leaves both copies on disk —
:meth:`ClusterCoordinator.open` records the stray as a *conflict*, and
the next :meth:`Rebalancer.execute` (or ``repro cluster rebalance``)
deletes it.  At no point can a crash lose the video entirely.

:meth:`Rebalancer.reshard` grows or shrinks the cluster online by
swapping in a new consistent-hash ring and moving exactly the diff.
The ``cluster.json`` rewrite is ordered for crash safety: *before* the
moves when growing (so a half-populated new shard is already part of
the reopened cluster) and *after* the moves when shrinking (so shards
are never dropped from the manifest while still holding videos).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..config import PipelineConfig
from ..errors import CatalogError, ClusterError, ShardUnavailableError
from ..vdbms.database import VideoDatabase
from .coordinator import ClusterCoordinator, _shard_dirname
from .replication import copy_video
from .router import ConsistentHashRouter
from .shard import Shard

__all__ = ["RebalanceMove", "RebalanceReport", "Rebalancer"]


@dataclass(frozen=True, slots=True)
class RebalanceMove:
    """One planned placement action.

    ``kind`` is ``"move"`` (copy then delete — the classic single-copy
    relocation), ``"copy"`` (add a replica on ``dest``, source kept),
    or ``"drop"`` (delete the copy on ``source``; ``dest`` mirrors
    ``source``).  Replicated clusters plan their reconciliations as
    explicit copy/drop pairs so every intermediate state has at least
    as many live copies as before.
    """

    video_id: str
    source: int
    dest: int
    kind: str = "move"

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible form for the CLI's ``--json`` output."""
        return {
            "video_id": self.video_id,
            "source": _shard_dirname(self.source),
            "dest": _shard_dirname(self.dest),
            "kind": self.kind,
        }


@dataclass(slots=True)
class RebalanceReport:
    """What one :meth:`Rebalancer.execute` run did."""

    planned: int = 0
    moved: int = 0
    skipped: int = 0
    conflicts_cleaned: int = 0
    errors: list[dict[str, str]] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible form for the CLI's ``--json`` output."""
        return {
            "planned": self.planned,
            "moved": self.moved,
            "skipped": self.skipped,
            "conflicts_cleaned": self.conflicts_cleaned,
            "errors": self.errors,
        }


class Rebalancer:
    """Plans and executes placement changes for one cluster."""

    def __init__(self, cluster: ClusterCoordinator) -> None:
        self.cluster = cluster

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------

    def plan(
        self, router: ConsistentHashRouter | None = None
    ) -> list[RebalanceMove]:
        """Every action needed to match the (target) placement contract.

        With no argument, plans against the cluster's own ring — a
        healthy, fully-settled cluster plans zero moves.  Pass a new
        router to plan a reshard.

        A single-copy relocation plans as one ``"move"`` (copy+delete,
        the pre-replication behavior).  Everything else decomposes into
        ``"copy"`` actions (fill a missing expected holder from a live
        one) followed by ``"drop"`` actions (shed copies outside the
        expected set) — copies always ordered before drops so no plan
        prefix ever reduces the number of live copies.
        """
        cluster = self.cluster
        target = router or cluster.router
        replication = cluster.replication
        moves: list[RebalanceMove] = []
        for video_id, held in sorted(cluster.holders_snapshot().items()):
            holders = set(held)
            expected = target.shards_for(video_id, replication)
            expected_set = set(expected)
            if holders == expected_set:
                continue
            missing = [s for s in expected if s not in holders]
            strays = sorted(holders - expected_set)
            if len(holders) == 1 and len(missing) == 1 and strays:
                # Classic single-copy relocation: one atomic-ish move.
                moves.append(
                    RebalanceMove(video_id, source=strays[0], dest=missing[0])
                )
                continue
            settled = sorted(holders & expected_set)
            source_pool = settled or strays
            for dest in missing:
                moves.append(
                    RebalanceMove(
                        video_id, source=source_pool[0], dest=dest, kind="copy"
                    )
                )
            if settled or missing:
                for stray in strays:
                    moves.append(
                        RebalanceMove(
                            video_id, source=stray, dest=stray, kind="drop"
                        )
                    )
        return moves

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def execute(
        self,
        moves: list[RebalanceMove] | None = None,
        max_moves: int | None = None,
    ) -> RebalanceReport:
        """Clean stray conflict copies, then run ``moves`` one by one.

        Each move is independent: a failed move is recorded in
        ``report.errors`` and does not stop the rest.  ``max_moves``
        bounds a run (for incremental, operator-paced rebalancing).
        """
        report = RebalanceReport()
        self._clean_conflicts(report)
        if moves is None:
            moves = self.plan()
        report.planned = len(moves)
        if max_moves is not None:
            moves = moves[:max_moves]
        for move in moves:
            try:
                self._apply(move)
                report.moved += 1
            except (ClusterError, CatalogError, OSError) as exc:
                report.skipped += 1
                report.errors.append(
                    {"video_id": move.video_id, "error": f"{type(exc).__name__}: {exc}"}
                )
        return report

    def _apply(self, move: RebalanceMove) -> None:
        if move.kind == "copy":
            self._copy(move)
        elif move.kind == "drop":
            self._drop(move)
        else:
            self._move(move)

    def _copy(self, move: RebalanceMove) -> None:
        """Add a replica on ``dest`` from a live holder (source kept)."""
        cluster = self.cluster
        source = cluster.shard(move.source)
        dest = cluster.shard(move.dest)
        source.check_up("rebalance copy source")
        dest.check_up("rebalance copy dest")
        # A vanished video (removed since planning) is convergence, not
        # an error — copy_video returns False and we move on.
        copy_video(cluster, move.video_id, source, dest)

    def _drop(self, move: RebalanceMove) -> None:
        """Shed one copy, refusing ever to delete the last one."""
        cluster = self.cluster
        shard = cluster.shard(move.source)
        shard.check_up("rebalance drop")
        holders = set(cluster.holders_of(move.video_id))
        if holders <= {move.source}:
            raise ClusterError(
                f"refusing to drop the only copy of {move.video_id!r} "
                f"(on {shard.name})"
            )
        with shard.lock.write_locked():
            if move.video_id in shard.db.catalog:
                shard.db.remove(move.video_id)
        cluster.note_drop(move.video_id, move.source)

    def _move(self, move: RebalanceMove) -> None:
        cluster = self.cluster
        source = cluster.shard(move.source)
        dest = cluster.shard(move.dest)
        source.check_up("rebalance source")
        dest.check_up("rebalance dest")
        if cluster.placement_snapshot().get(move.video_id) != move.source:
            raise ClusterError(
                f"stale plan: {move.video_id!r} is no longer on {source.name}"
            )
        with source.lock.read_locked():
            record = source.db.export_video(move.video_id)
        try:
            with dest.lock.write_locked():
                dest.db.adopt(record)
        except CatalogError:
            # A crashed earlier run already copied it; converge anyway.
            pass
        cluster.reassign(move.video_id, move.dest)
        # Inside the copy->delete window: returns once every scatter
        # round that may have read the destination before the copy has
        # ended, so none can read the source after the delete.
        cluster.note_move_visible()
        with source.lock.write_locked():
            source.db.remove(move.video_id)
        cluster.note_drop(move.video_id, move.source)

    def _clean_conflicts(self, report: RebalanceReport) -> None:
        """Delete stray copies recorded by the coordinator on open."""
        remaining: list[tuple[str, int]] = []
        for video_id, shard_id in self.cluster.conflicts:
            winner = self.cluster.placement_snapshot().get(video_id)
            if winner is None or winner == shard_id:
                remaining.append((video_id, shard_id))
                continue  # placement changed under us; leave it alone
            shard = self.cluster.shard(shard_id)
            try:
                shard.check_up("conflict cleanup")
                with shard.lock.write_locked():
                    if video_id in shard.db.catalog:
                        shard.db.remove(video_id)
                report.conflicts_cleaned += 1
            except (ClusterError, CatalogError, OSError) as exc:
                remaining.append((video_id, shard_id))
                report.errors.append(
                    {"video_id": video_id, "error": f"{type(exc).__name__}: {exc}"}
                )
        self.cluster.conflicts = remaining

    # ------------------------------------------------------------------
    # online resharding
    # ------------------------------------------------------------------

    def reshard(
        self,
        n_shards: int,
        config: PipelineConfig | None = None,
        max_moves: int | None = None,
    ) -> RebalanceReport:
        """Change the cluster's shard count online.

        Reads and writes continue throughout: only the individual
        per-shard locks are taken, one move at a time, and the
        consistent-hash ring guarantees only ~``|N-M|/max(N,M)`` of
        the corpus relocates.  ``max_moves`` turns this into an
        incremental step (rerun until ``plan()`` is empty); the
        manifest ordering (see module docstring) keeps every
        intermediate crash state reopenable.
        """
        cluster = self.cluster
        if n_shards < 1:
            raise ClusterError(f"a cluster needs >= 1 shard, got {n_shards}")
        if n_shards == cluster.n_shards and not self.plan():
            return RebalanceReport()
        new_router = ConsistentHashRouter(
            n_shards, replicas=cluster.router.replicas
        )
        if n_shards > cluster.n_shards:
            self._grow_to(new_router, config)
            return self.execute(max_moves=max_moves)
        if n_shards < cluster.n_shards:
            moves = self.plan(new_router)
            if max_moves is not None and len(moves) > max_moves:
                raise ClusterError(
                    f"shrinking to {n_shards} shards needs {len(moves)} moves; "
                    f"max_moves={max_moves} would strand videos on dropped shards"
                )
            report = RebalanceReport()
            self._clean_conflicts(report)
            report.planned = len(moves)
            # Old router still active: queries keep covering the
            # draining shards until every video has left them.
            for move in moves:
                try:
                    self._apply(move)
                    report.moved += 1
                except (ClusterError, CatalogError, OSError) as exc:
                    report.skipped += 1
                    report.errors.append(
                        {
                            "video_id": move.video_id,
                            "error": f"{type(exc).__name__}: {exc}",
                        }
                    )
            if report.skipped:
                raise ClusterError(
                    f"shrink aborted: {report.skipped} moves failed "
                    f"({report.errors[:3]}...); cluster unchanged, rerun to retry"
                )
            self._shrink_to(new_router)
            return report
        # Same count: settle any drift against the current ring.
        return self.execute(max_moves=max_moves)

    def _grow_to(
        self, new_router: ConsistentHashRouter, config: PipelineConfig | None
    ) -> None:
        cluster = self.cluster
        new_shards = []
        for shard_id in range(cluster.n_shards, new_router.n_shards):
            if cluster.root is not None:
                shard_root = cluster.root / _shard_dirname(shard_id)
                db = VideoDatabase.open(shard_root, config=config or cluster.config)
                new_shards.append(Shard(shard_id, db, root=shard_root))
            else:
                db = VideoDatabase(config or cluster.config)
                new_shards.append(Shard(shard_id, db))
        # Publish the manifest *before* moving: a crash mid-rebalance
        # reopens with the new ring, finds the videos wherever they
        # are (placement is derived from catalogs), and plans the rest.
        if cluster.root is not None:
            ClusterCoordinator._write_manifest(
                cluster.root, new_router, cluster.replication
            )
        cluster.shards.extend(new_shards)
        cluster.router = new_router

    def _shrink_to(self, new_router: ConsistentHashRouter) -> None:
        cluster = self.cluster
        for shard in cluster.shards[new_router.n_shards :]:
            if len(shard.db.catalog):
                raise ClusterError(
                    f"refusing to drop {shard.name}: still holds "
                    f"{len(shard.db.catalog)} videos"
                )
        # Publish the manifest *after* draining: shards leave the
        # cluster only once provably empty.
        if cluster.root is not None:
            ClusterCoordinator._write_manifest(
                cluster.root, new_router, cluster.replication
            )
        cluster.shards = cluster.shards[: new_router.n_shards]
        cluster.router = new_router
