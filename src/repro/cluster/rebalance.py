"""The placement reconciler: rebalance, repair and reshard in one plan.

:class:`Rebalancer` is the one place that decides which shards should
hold a video and what happens to its other copies.
:meth:`Rebalancer.plan` compares each video's holders with
``router.shards_for(video_id, R)`` once and lists, video by video,
copies before drops:

* ``copy`` fills a missing expected holder from the *source*: the live
  primary, else a live legitimate holder, else a live stray (a stray's
  data is still real data);
* ``replace`` rewrites a legitimate holder whose record digest
  (``VideoDatabase.record_digest``) differs from the source's;
* ``drop`` deletes a copy outside the expected set, planned only once
  a legitimate copy exists or a copy is planned;
* ``move`` is a single misplaced copy: that copy, then that drop.
  On durable shards the drop waits until the destination's record
  reads back intact (``check_tracked``); a bad read is rewritten once
  from the source and read again, and a second bad read keeps the
  source and counts the action as skipped.

A video whose holders differ from its expected set and which has no
live holder to act from is listed as unrepairable.

:meth:`Rebalancer.execute` runs the actions one by one: every copy goes
through :func:`~repro.cluster.replication.copy_video` (export under the
source's read lock, adopt under the destination's write lock, one
durable publish) and every delete through
:func:`~repro.cluster.replication.drop_video`, which refuses the last
copy and first waits out the scatter rounds in flight, so no round can
read a copy's destination before the copy and its source after the
delete.  A crash at any point leaves at worst an extra copy, which
merge-time dedup hides from queries and the next pass drops; no crash
loses a video.  ``repro cluster rebalance`` runs one pass, and so does
``repro cluster repair`` after an optional change of the replication
factor.

:meth:`Rebalancer.reshard` grows or shrinks the cluster online by
swapping in a new consistent-hash ring and running the plan against it.
The ``cluster.json`` rewrite is ordered for crash safety: *before* the
moves when growing (so a half-populated new shard is already part of
the reopened cluster) and *after* the moves when shrinking (so shards
are never dropped from the manifest while still holding videos).  A
shrink is refused up front while a retiring shard tracks a record it
could not read: retiring it would hide that loss from every report.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any

from ..errors import CatalogError, ClusterError, ReproError
from ..vdbms.manifest import RECORD_PREFIX
from .coordinator import ClusterCoordinator, _build_shard, _shard_dirname
from .replication import _LOCK_TIMEOUT_S, copy_video, drop_video
from .router import ConsistentHashRouter

__all__ = ["RebalanceMove", "RebalancePlan", "RebalanceReport", "Rebalancer"]


@dataclass(frozen=True, slots=True)
class RebalanceMove:
    """One planned placement action.

    ``kind`` is ``"copy"`` (add a copy on ``dest`` from ``source``),
    ``"replace"`` (rewrite ``dest``'s divergent copy from ``source``),
    ``"drop"`` (delete the copy on ``source``; ``dest`` mirrors
    ``source``), or ``"move"`` (a single misplaced copy: copy it to
    ``dest``, then drop it from ``source``).
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


class RebalancePlan(list):
    """The planned :class:`RebalanceMove` actions in execution order;
    ``unrepairable`` names the videos whose holders differ from their
    expected set with no live holder to act from."""

    def __init__(self) -> None:
        super().__init__()
        self.unrepairable: list[str] = []


@dataclass(slots=True)
class RebalanceReport:
    """What one :meth:`Rebalancer.execute` pass did (``repro cluster
    rebalance`` and ``repro cluster repair`` both print it)."""

    planned: int = 0
    #: Actions that ran to their end; ``skipped`` ones raised.
    moved: int = 0
    skipped: int = 0
    copies_added: int = 0
    divergent_repaired: int = 0
    strays_removed: int = 0
    unrepairable: list[str] = field(default_factory=list)
    errors: list[dict[str, str]] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        """True when every planned action ran and nothing was
        unrepairable: each video's holders now equal its expected set."""
        return not self.unrepairable and self.moved == self.planned

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible form for the CLI's ``--json`` output."""
        return {**asdict(self), "converged": self.converged}


class Rebalancer:
    """Plans and executes placement changes for one cluster."""

    def __init__(self, cluster: ClusterCoordinator) -> None:
        self.cluster = cluster

    def plan(self, router: ConsistentHashRouter | None = None) -> RebalancePlan:
        """Every action that brings each video's holders to its expected
        set (see the module docstring for the rules).

        With no argument, plans against the cluster's own ring — a
        settled cluster plans nothing.  Pass a new router to plan a
        reshard.
        """
        cluster = self.cluster
        target = router or cluster.router
        plan = RebalancePlan()
        for video_id, held in sorted(cluster.holders_snapshot().items()):
            expected = target.shards_for(video_id, cluster.replication)
            missing = [s for s in expected if s not in held]
            strays = [s for s in held if s not in expected]
            live = [
                s
                for s in expected + strays
                if s in held and not cluster.shard(s).down
            ]
            if not live:
                if missing or strays:
                    plan.unrepairable.append(video_id)
                continue
            source = live[0]
            if len(held) == 1 and len(missing) == 1 and strays:
                plan.append(RebalanceMove(video_id, source, missing[0]))
                continue
            plan += [RebalanceMove(video_id, source, s, "copy") for s in missing]
            others = [s for s in expected if s in held and s != source]
            if others:
                digest = cluster.shard(source).db.record_digest(video_id)
                plan += [
                    RebalanceMove(video_id, source, s, "replace")
                    for s in others
                    if cluster.shard(s).db.record_digest(video_id) != digest
                ]
            if missing or len(strays) < len(held):
                plan += [RebalanceMove(video_id, s, s, "drop") for s in strays]
        return plan

    def execute(
        self,
        moves: list[RebalanceMove] | None = None,
        max_moves: int | None = None,
    ) -> RebalanceReport:
        """Run ``moves`` (default: :meth:`plan`) one by one.

        Each action is independent: a failed one is recorded in
        ``report.errors`` and does not stop the rest.  ``max_moves``
        bounds a run (for incremental, operator-paced rebalancing).
        """
        if moves is None:
            moves = self.plan()
        report = RebalanceReport(
            planned=len(moves),
            unrepairable=list(getattr(moves, "unrepairable", ())),
        )
        for move in moves[:max_moves]:
            try:
                self._apply(move, report)
                report.moved += 1
            except (ReproError, OSError) as exc:
                report.skipped += 1
                report.errors.append(
                    {"video_id": move.video_id, "error": f"{type(exc).__name__}: {exc}"}
                )
        return report

    def _apply(self, move: RebalanceMove, report: RebalanceReport) -> None:
        cluster = self.cluster
        try:
            held = cluster.holders_of(move.video_id)
        except CatalogError:
            return  # removed since planning: nothing left to place
        source = cluster.shard(move.source)
        if move.source not in held:
            raise ClusterError(
                f"stale plan: {move.video_id!r} is no longer on {source.name}"
            )
        if move.kind != "drop":
            dest = cluster.shard(move.dest)
            source.check_up("rebalance source")
            dest.check_up("rebalance dest")
            replace = move.kind == "replace"
            if not copy_video(cluster, move.video_id, source, dest, replace=replace):
                return  # removed since planning
            if replace:
                report.divergent_repaired += 1
            else:
                report.copies_added += 1
            moved = move.kind == "move"
            if moved and not self._reads_back(move.video_id, source, dest):
                raise ClusterError(f"{move.video_id!r} does not read back on {dest.name}")
        if move.kind in ("drop", "move"):
            drop_video(cluster, move.video_id, source)
            report.strays_removed += 1

    def _reads_back(self, video_id: str, source, dest) -> bool:
        """Whether ``dest``'s committed record of ``video_id`` verifies,
        after at most one rewrite from ``source`` (always, in memory)."""
        storage = dest.db.storage
        for attempt in range(2):
            if attempt:
                copy_video(self.cluster, video_id, source, dest, replace=True)
            with dest.lock.read_locked(_LOCK_TIMEOUT_S):
                if storage is None or storage.check_tracked(RECORD_PREFIX + video_id).ok:
                    return True
        return False

    # ------------------------------------------------------------------
    # online resharding
    # ------------------------------------------------------------------

    def reshard(
        self, n_shards: int, max_moves: int | None = None
    ) -> RebalanceReport:
        """Change the cluster's shard count online.

        Reads and writes continue throughout: only the individual
        per-shard locks are taken, one action at a time, and the
        consistent-hash ring guarantees only ~``|N-M|/max(N,M)`` of
        the corpus relocates.  ``max_moves`` turns a grow into an
        incremental step (rerun until ``plan()`` is empty); a shrink
        refuses a budget that would strand videos on the dropped
        shards, and refuses to start while a dropped shard tracks an
        unreadable record (``repro fsck --repair`` drops those).  The
        manifest ordering (see module docstring) keeps every
        intermediate crash state reopenable.
        """
        cluster = self.cluster
        if n_shards < 1:
            raise ClusterError(f"a cluster needs >= 1 shard, got {n_shards}")
        if n_shards == cluster.n_shards:
            # Same count: settle any drift against the current ring.
            return self.execute(max_moves=max_moves)
        unreadable = [
            f"{video_id!r} on {shard.name}"
            for shard in cluster.shards[n_shards:]
            for video_id in shard.db.quarantined
        ]
        if unreadable:
            raise ClusterError(
                f"refusing to shrink to {n_shards} shards: unreadable records "
                f"({', '.join(unreadable)}) would be dropped unreported; run "
                "'repro fsck --repair' on the cluster root first"
            )
        new_router = ConsistentHashRouter(
            n_shards, replicas=cluster.router.replicas
        )
        if n_shards > cluster.n_shards:
            self._grow_to(new_router)
            return self.execute(max_moves=max_moves)
        moves = self.plan(new_router)
        if max_moves is not None and len(moves) > max_moves:
            raise ClusterError(
                f"shrinking to {n_shards} shards needs {len(moves)} moves; "
                f"max_moves={max_moves} would strand videos on dropped shards"
            )
        # Old router still active: queries keep covering the draining
        # shards until every video has left them.
        report = self.execute(moves)
        if report.skipped:
            raise ClusterError(
                f"shrink aborted: {report.skipped} moves failed "
                f"({report.errors[:3]}...); cluster unchanged, rerun to retry"
            )
        self._shrink_to(new_router)
        return report

    def _grow_to(self, new_router: ConsistentHashRouter) -> None:
        cluster = self.cluster
        new_shards = [
            _build_shard(k, cluster.root, cluster.config, cluster.fs)
            for k in range(cluster.n_shards, new_router.n_shards)
        ]
        # Publish the manifest *before* moving: a crash mid-rebalance
        # reopens with the new ring, finds the videos wherever they
        # are (placement is derived from catalogs), and plans the rest.
        if cluster.root is not None:
            ClusterCoordinator._write_manifest(
                cluster.root, new_router, cluster.replication, cluster.fs
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
                cluster.root, new_router, cluster.replication, cluster.fs
            )
        cluster.shards = cluster.shards[: new_router.n_shards]
        cluster.router = new_router
