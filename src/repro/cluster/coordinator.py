"""Scatter-gather coordination over N independent shards.

The coordinator is the cluster's single front door.  It owns:

* the :class:`~repro.cluster.router.ConsistentHashRouter` that assigns
  every video id a *home* shard,
* a **placement map** — where each video actually lives right now.
  Placement is authoritative and derived: it is rebuilt from the shard
  catalogs on open (so it can never disagree with disk) and maintained
  on every ingest/remove/move,
* the scatter-gather of impression queries across the shards, run on
  the request's thread, each shard's lock wait bounded by the
  request's remaining :class:`~repro.service.resilience.Deadline`
  budget (see :meth:`ClusterCoordinator._scatter`).  A single query is
  a batch of one: both are served by the one scatter round in
  :meth:`ClusterCoordinator.query_batch`.

A plain :class:`~repro.vdbms.database.VideoDatabase` is served as a
one-shard cluster with replication 1 (:meth:`ClusterCoordinator.wrap`),
so the service runs every database through this one code path.

Queries **degrade, never fail**: a shard that is down, errors, or
times out is reported in :attr:`ClusterAnswer.shards_failed` and the
answer carries whatever the healthy shards returned.  Merging relies
on the total order of ``VarianceQuery.rank_key`` — concatenate the
shards' match sets, keep each shot once (a video briefly lives on two
shards mid-rebalance), sort, cap, over index columns with numpy — which
makes a K-shard cluster *decision-identical* to one big database.

With a replication factor R > 1 (``replication=R``), every video is
committed on R distinct shards — its home plus the next R-1 distinct
successors on the hash ring — and queries gain **automatic
failover**: when a shard fails mid-scatter, the coordinator first
checks whether every video the failed shard holds has a live copy
among the shards that answered (the common single-failure case — the
replicas' contributions make the merged answer provably complete, and
the per-shard top-k pushdown keeps it decision-identical because a
shot's local rank on any holder is never worse than its global rank).
Only when replicas do not cover does it retry the failed shard once
inside the same ``Deadline``.  A covered failure is still reported in
``shards_failed`` (and echoed in ``shards_recovered``) but the answer
is *not* partial.

A copy outside a video's expected set (a *stray*, e.g. left by a crash
between a rebalance copy and its source delete) is a holder like any
other: queries stay correct thanks to the merge-time dedup, and the
next rebalance or repair pass drops it
(:class:`~repro.cluster.rebalance.Rebalancer`).
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Container, Iterator, Sequence

import numpy as np

from ..config import PipelineConfig, QueryConfig
from ..errors import (
    CatalogError,
    ClusterError,
    ServiceTimeout,
    ShardUnavailableError,
)
from ..index.columnar import Matches
from ..index.query import VarianceQuery
from ..index.table import IndexEntry
from ..obs import current_trace as _current_trace, span as _span
from ..scenetree.serialize import PackedTree
from ..vdbms.catalog import CatalogEntry
from ..vdbms.database import IngestReport, QueryAnswer, VideoDatabase, VideoRecord
from ..vdbms.fsio import LocalFS
from ..video.clip import VideoClip
from ..workloads.taxonomy import VideoCategory
from .router import ConsistentHashRouter
from .shard import Shard

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..service.resilience import Deadline

__all__ = ["ClusterAnswer", "ClusterCoordinator", "CLUSTER_MANIFEST"]

#: The cluster-level manifest file, next to the shard directories.
CLUSTER_MANIFEST = "cluster.json"

_FORMAT_VERSION = 1

def _shard_dirname(shard_id: int) -> str:
    return f"shard-{shard_id:03d}"


def _build_shard(
    shard_id: int,
    root: Path | None,
    config: PipelineConfig | None,
    fs: LocalFS | None = None,
    *,
    recover: bool = False,
) -> Shard:
    """Shard ``shard_id``: its database bound to ``root/shard-NNN``
    through ``fs`` (:meth:`VideoDatabase.open`), or in memory when there
    is no root."""
    if root is None:
        return Shard(shard_id, VideoDatabase(config))
    shard_root = root / _shard_dirname(shard_id)
    db = VideoDatabase.open(shard_root, config=config, recover=recover, fs=fs)
    return Shard(shard_id, db)


def _budget(deadline: Deadline | None) -> float | None:
    """Lock-wait budget of a read: the deadline's remaining seconds."""
    return None if deadline is None else deadline.remaining()


_LATE = "per-shard deadline budget exhausted"
_NOT_TRIED = _LATE + "; shard not tried (read lock never held)"


def _failure(shard: Shard, reason: str, error: str) -> dict[str, Any]:
    """One ``shards_failed`` entry."""
    return {"shard": shard.name, "reason": reason, "error": error}


def _merge(
    queries: Sequence[VarianceQuery], shard_rows: list[Matches], limit: int | None
) -> Matches:
    """Every query's rows from the shards that answered, as one match
    set: each shot once, ranked in ``VarianceQuery.rank_key`` order,
    capped at ``limit`` per query.  A shot several shards answered
    keeps the last one's copy (copies of a divergent replica differ, so
    one is picked before ranking); video ids rank in Python ``str``
    order (a numpy ``<U`` array would drop trailing NULs)."""
    rows = Matches.concat(shard_rows)
    sizes = [b - a for part in shard_rows for a, b in zip(part.offsets, part.offsets[1:])]
    query_of = np.repeat(np.arange(len(sizes)) % len(queries), sizes)
    names = sorted(set(rows.video_id))
    rank_of = dict(zip(names, range(len(names))))
    video = np.fromiter(map(rank_of.__getitem__, rows.video_id), np.int64, len(rows.video_id))
    # One int64 per (query, video_id, shot_number), ordered as they are:
    # shot numbers are int32, offset to 32 unsigned bits, below a
    # (query, video) pair number under 2^31.
    shot = rows.shot_number.astype(np.int64) - np.iinfo(np.int32).min
    ident = (query_of * len(names) + video) << 32 | shot
    # Each shot once: its last copy (the stable sort keeps a shot's
    # copies in answer order).
    by_shot = ident.argsort(kind="stable")
    last = np.ones(len(by_shot), dtype=bool)
    last[:-1] = ident[by_shot][1:] != ident[by_shot][:-1]
    kept = by_shot[last]
    # rank_key: the distance to the row's query, then (d_v, sqrt_var_ba,
    # video_id, shot_number), in the same float64 operations.
    d_v, sqrt_ba = rows.d_v[kept], rows.sqrt_var_ba[kept]
    q_dv = np.array([query.d_v for query in queries])[query_of[kept]]
    q_sba = np.array([query.sqrt_var_ba for query in queries])[query_of[kept]]
    dx, dy = q_dv - d_v, q_sba - sqrt_ba
    dist = np.sqrt(dx * dx + dy * dy)
    ranked = kept[np.lexsort((ident[kept], sqrt_ba, d_v, dist, query_of[kept]))]
    if limit is not None:
        group = query_of[ranked]  # sorted: each query's rows are a run
        ranked = ranked[np.arange(len(ranked)) - group.searchsorted(group) < limit]
    counts = np.bincount(query_of[ranked], minlength=len(queries))
    return rows.take(ranked, [0, *np.cumsum(counts).tolist()])


@dataclass(frozen=True, slots=True)
class ClusterAnswer(QueryAnswer):
    """A scatter-gather query result: the merged answer plus coverage.

    ``rows``, ``k``, ``matches`` and ``routes`` follow the exact
    contract of :class:`~repro.vdbms.database.QueryAnswer`.  ``shards_failed``
    lists, per unavailable shard, ``{"shard", "reason", "error"}``;
    :attr:`partial` is True when at least one failed shard's data was
    *not* recovered from replicas — the client-visible signal that the
    answer may be missing shots.  With replication, a single-shard
    outage normally lands in both ``shards_failed`` and
    ``shards_recovered`` and the answer stays complete.
    """

    shards_queried: int = 0
    shards_failed: list[dict[str, Any]] = field(default_factory=list)
    #: Failed shards whose entire corpus was served by live replicas —
    #: the failure is reported, but the answer is complete.
    shards_recovered: list[str] = field(default_factory=list)

    @property
    def partial(self) -> bool:
        recovered = set(self.shards_recovered)
        return any(f["shard"] not in recovered for f in self.shards_failed)


class ClusterCoordinator:
    """N shards behind one database-shaped API.

    Build one with :meth:`create` (new durable cluster),
    :meth:`open` (existing durable cluster),
    :meth:`ephemeral` (in-memory shards, for tests and ``repro serve
    --shards N`` without ``--db``), or :meth:`wrap` (one plain
    database as a single shard).
    """

    def __init__(
        self,
        shards: list[Shard],
        router: ConsistentHashRouter,
        *,
        root: Path | None = None,
        fs: LocalFS | None = None,
        config: PipelineConfig | None = None,
        replication: int = 1,
    ) -> None:
        if not shards:
            raise ClusterError("a cluster needs at least one shard")
        if router.n_shards > len(shards):
            raise ClusterError(
                f"router expects {router.n_shards} shards, got {len(shards)}"
            )
        if replication < 1:
            raise ClusterError(f"replication must be >= 1, got {replication}")
        self.shards = shards
        self.router = router
        self.root = root
        #: The seam of every write under ``root`` (``cluster.json``, shards).
        self.fs = fs if fs is not None else LocalFS()
        #: Copies of every video the cluster commits (capped at
        #: ``n_shards`` in practice — see :meth:`effective_replication`).
        self.replication = replication
        #: Scatter rounds in which a shard failure was fully absorbed
        #: (covered by replicas or answered on the in-deadline retry).
        self.failovers = 0
        self.config = config or PipelineConfig()
        self._placement_lock = threading.Lock()
        self._placement: dict[str, int] = {}
        #: video id -> every shard currently holding a committed copy
        #: (primary, replicas and strays alike); the failover coverage
        #: check and the placement reconciler both read this.
        self._holders: dict[str, tuple[int, ...]] = {}
        # Scatter rounds vs. online moves: a round reads the shards one
        # after another, so a copy and a delete that both fell between
        # its reads of the copy's shard and of the deleted one would
        # hide the video from it.  Each round registers the move count
        # it started at, and every delete (drop_video) waits for every
        # round that began before it (a grace period, see
        # note_move_visible), so no round can straddle a copy and drop.
        self._rounds = threading.Condition(self._placement_lock)
        self._moves_seq = 0
        self._rounds_at: dict[int, int] = {}
        self._build_placement()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def ephemeral(
        cls,
        n_shards: int,
        config: PipelineConfig | None = None,
        replication: int = 1,
    ) -> "ClusterCoordinator":
        """An in-memory cluster (no durable roots) keeping
        ``replication`` committed copies of every video."""
        shards = [_build_shard(k, None, config) for k in range(n_shards)]
        router = ConsistentHashRouter(n_shards)
        return cls(shards, router, config=config, replication=replication)

    @classmethod
    def wrap(cls, db: VideoDatabase) -> "ClusterCoordinator":
        """Serve one plain database as a one-shard cluster, replication 1.

        There is no cluster root, so nothing is written to disk: a
        durable database keeps its single-database layout.  Query
        tolerances keep coming from the database's own config.
        """
        return cls(
            [Shard(0, db)],
            ConsistentHashRouter(1),
            config=db.config,
            replication=1,
        )

    @classmethod
    def create(
        cls,
        root: str | Path,
        n_shards: int,
        config: PipelineConfig | None = None,
        replication: int = 1,
    ) -> "ClusterCoordinator":
        """Initialize a new durable cluster under ``root``.

        Writes ``cluster.json`` (including the replication factor) and
        binds one durable :class:`VideoDatabase` per shard directory.
        Refuses a root that already holds a cluster (open it instead).
        """
        root = Path(root)
        if (root / CLUSTER_MANIFEST).exists():
            raise ClusterError(
                f"{root} already holds a cluster; use ClusterCoordinator.open()"
            )
        fs = LocalFS()
        router = ConsistentHashRouter(n_shards)
        fs.mkdir(root)
        cls._write_manifest(root, router, replication, fs)
        shards = [_build_shard(k, root, config, fs) for k in range(n_shards)]
        return cls(
            shards, router, root=root, fs=fs, config=config, replication=replication
        )

    @classmethod
    def open(
        cls,
        root: str | Path,
        config: PipelineConfig | None = None,
        *,
        recover: bool = False,
        fs: LocalFS | None = None,
    ) -> "ClusterCoordinator":
        """Reopen a durable cluster from its ``cluster.json``.

        ``recover=True`` is forwarded to every shard's
        :meth:`VideoDatabase.open` (quarantine unreadable records
        instead of failing the whole shard).  ``fs`` is the filesystem
        seam of every write under ``root``: ``cluster.json`` and every
        shard, those a grow adds included (the real filesystem when
        omitted).  A ``cluster.json`` that does not decode raises
        :class:`ClusterError`.
        """
        root = Path(root)
        manifest_path = root / CLUSTER_MANIFEST
        if not manifest_path.exists():
            raise ClusterError(
                f"no {CLUSTER_MANIFEST} under {root}; not a cluster directory"
            )
        try:
            payload = json.loads(manifest_path.read_bytes())
            if payload.get("version") != _FORMAT_VERSION:
                raise ClusterError(
                    f"unsupported cluster format version {payload.get('version')!r}"
                )
            router = ConsistentHashRouter.from_dict(payload["router"])
            replication = int(payload.get("replication", 1))
        except (OSError, ValueError, LookupError, TypeError, AttributeError) as exc:
            raise ClusterError(f"unreadable {CLUSTER_MANIFEST}: {exc}") from exc
        shards = [
            _build_shard(k, root, config, fs, recover=recover)
            for k in range(router.n_shards)
        ]
        return cls(
            shards, router, root=root, fs=fs, config=config, replication=replication
        )

    @classmethod
    def open_or_create(
        cls,
        root: str | Path,
        n_shards: int | None,
        config: PipelineConfig | None = None,
        replication: int | None = None,
    ) -> "ClusterCoordinator":
        """Open an existing cluster, or create one with ``n_shards``.

        ``n_shards=None`` takes the count from the existing manifest.
        An existing cluster whose shard count differs from ``n_shards``
        is an error (resharding moves data; it must be explicit):
        ``repro cluster rebalance --shards N`` performs it online.
        Likewise an explicit ``replication`` that contradicts the
        persisted factor is refused — changing R means copying data,
        which ``repro cluster repair`` performs after rewriting the
        manifest.  ``replication=None`` defers to the manifest (or 1
        when creating).
        """
        root = Path(root)
        if n_shards is not None and not (root / CLUSTER_MANIFEST).exists():
            return cls.create(
                root, n_shards, config=config, replication=replication or 1
            )
        cluster = cls.open(root, config=config)
        if n_shards is not None and cluster.n_shards != n_shards:
            cluster.close()
            raise ClusterError(
                f"cluster at {root} has {cluster.n_shards} shards, not "
                f"{n_shards}; reshard explicitly with "
                f"'repro cluster rebalance --shards {n_shards}'"
            )
        if replication is not None and cluster.replication != replication:
            cluster.close()
            raise ClusterError(
                f"cluster at {root} has replication "
                f"{cluster.replication}, not {replication}; changing it "
                f"moves data — edit the factor with "
                f"'repro cluster repair --replicas {replication}'"
            )
        return cluster

    @staticmethod
    def _write_manifest(
        root: Path,
        router: ConsistentHashRouter,
        replication: int = 1,
        fs: LocalFS | None = None,
    ) -> None:
        """Atomically publish ``cluster.json`` through ``fs`` (write ->
        fsync -> rename -> directory fsync)."""
        fs = fs if fs is not None else LocalFS()
        payload = {
            "version": _FORMAT_VERSION,
            "router": router.to_dict(),
            "replication": replication,
        }
        staged = root / (CLUSTER_MANIFEST + ".tmp")
        fs.write_bytes(staged, json.dumps(payload, indent=2).encode("utf-8"))
        fs.fsync(staged)
        fs.replace(staged, root / CLUSTER_MANIFEST)
        fs.fsync_dir(root)

    def _build_placement(self) -> None:
        """Derive holders and primaries from the shard catalogs.

        Every shard holding a copy is a holder, strays included (their
        data is real, and merge-time dedup keeps queries correct).  The
        primary is the ring home when it holds a copy, else the lowest
        holder — the rule :meth:`note_drop` keeps.
        """
        holders: dict[str, tuple[int, ...]] = {}
        for shard in self.shards:
            for video_id in shard.db.catalog.ids():
                holders[video_id] = holders.get(video_id, ()) + (shard.shard_id,)
        placement = {}
        for video_id, held in holders.items():
            home = self.router.shard_for(video_id)
            placement[video_id] = home if home in held else held[0]
        with self._placement_lock:
            self._placement = placement
            self._holders = holders

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def effective_replication(self) -> int:
        """The copies actually placed: ``min(replication, n_shards)``."""
        return min(self.replication, self.n_shards)

    def set_replication(self, replication: int) -> None:
        """Change the replication factor (persisted when durable).

        Rewrites only the manifest and the placement maps — no data
        moves here.  Copies converge to the new factor on the next
        reconciler pass (``repro cluster repair``), which adds the
        missing replicas (raised R) or drops the now-stray ones
        (lowered R).
        """
        if replication < 1:
            raise ClusterError(f"replication must be >= 1, got {replication}")
        self.replication = replication
        if self.root is not None:
            self._write_manifest(self.root, self.router, replication, self.fs)
        self._build_placement()

    def shard(self, shard_id: int) -> Shard:
        """The shard object for one slot."""
        try:
            return self.shards[shard_id]
        except IndexError:
            raise ClusterError(
                f"no shard {shard_id} (cluster has {self.n_shards})"
            ) from None

    def locate(self, video_id: str) -> Shard:
        """The preferred live shard holding ``video_id``.

        Returns the primary when it is up; with replication, falls back
        to any live replica holder so single-video reads (scene trees,
        shot lookups, query-by-example probes) survive a primary
        outage.  When every copy is down the primary is returned — the
        caller's ``check_up`` turns that into the usual structured
        :class:`~repro.errors.ShardUnavailableError`.
        """
        with self._placement_lock:
            shard_id = self._placement.get(video_id)
            holders = self._holders.get(video_id, ())
        if shard_id is None:
            raise CatalogError(f"unknown video {video_id!r}")
        primary = self.shard(shard_id)
        if not primary.down:
            return primary
        for holder_id in holders:
            if holder_id != shard_id and not self.shard(holder_id).down:
                return self.shard(holder_id)
        return primary

    def __contains__(self, video_id: str) -> bool:
        with self._placement_lock:
            return video_id in self._placement

    def video_ids(self) -> list[str]:
        """Every video in the cluster (sorted for determinism)."""
        with self._placement_lock:
            return sorted(self._placement)

    def holders_snapshot(self) -> dict[str, tuple[int, ...]]:
        """A copy of the video -> holder-set map (reconciler planning)."""
        with self._placement_lock:
            return dict(self._holders)

    def holders_of(self, video_id: str) -> tuple[int, ...]:
        """Every shard currently holding a copy of ``video_id``."""
        with self._placement_lock:
            holders = self._holders.get(video_id)
        if holders is None:
            raise CatalogError(f"unknown video {video_id!r}")
        return holders

    def _claim(self, video_id: str, shard_ids: list[int]) -> None:
        with self._placement_lock:
            if video_id in self._placement:
                raise CatalogError(f"video {video_id!r} already ingested")
            self._placement[video_id] = shard_ids[0]
            self._holders[video_id] = tuple(shard_ids)

    def _unclaim(self, video_id: str) -> None:
        with self._placement_lock:
            self._placement.pop(video_id, None)
            self._holders.pop(video_id, None)

    def note_copy(self, video_id: str, shard_id: int) -> None:
        """Record a new committed copy (reconciler bookkeeping)."""
        with self._placement_lock:
            held = set(self._holders.get(video_id, ()))
            held.add(shard_id)
            self._holders[video_id] = tuple(sorted(held))
            self._placement.setdefault(video_id, shard_id)

    def note_drop(self, video_id: str, shard_id: int) -> None:
        """Record a removed copy; repoint the primary if it was dropped."""
        with self._placement_lock:
            held = [s for s in self._holders.get(video_id, ()) if s != shard_id]
            if not held:
                self._placement.pop(video_id, None)
                self._holders.pop(video_id, None)
                return
            self._holders[video_id] = tuple(held)
            if self._placement.get(video_id) == shard_id:
                home = self.router.shard_for(video_id)
                self._placement[video_id] = home if home in held else held[0]

    def note_move_visible(self) -> None:
        """Grace period before a copy is deleted (``drop_video``).

        Must be called after the copies that replace the doomed one are
        committed and before the delete, with no shard lock held.
        Returns once every scatter round that began before the call has
        ended: such a round may have read a copy's shard before the
        copy, but then it reads the doomed copy before the delete.  A
        round that begins after the call reads the copy.  Either way it
        sees the video.
        """
        with self._rounds:
            self._moves_seq += 1
            seq = self._moves_seq
            self._rounds.wait_for(lambda: min(self._rounds_at, default=seq) >= seq)

    @contextmanager
    def _round(self) -> Iterator[None]:
        """Register one scatter round for :meth:`note_move_visible`."""
        with self._rounds:
            start = self._moves_seq
            self._rounds_at[start] = self._rounds_at.get(start, 0) + 1
        try:
            yield
        finally:
            with self._rounds:
                self._rounds_at[start] -= 1
                if not self._rounds_at[start]:
                    del self._rounds_at[start]
                    self._rounds.notify_all()

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def _write_targets(self, video_id: str, what: str) -> list[Shard]:
        """The primary + replica shards for a new write, all checked up."""
        targets = [
            self.shard(shard_id)
            for shard_id in self.router.shards_for(video_id, self.replication)
        ]
        for shard in targets:
            shard.check_up(what)
        return targets

    def _rollback_copies(self, video_id: str, committed: list[Shard]) -> None:
        """Best-effort undo of a half-fanned-out write (all-or-nothing).

        A copy that refuses to roll back is left behind as a stray —
        the next rebalance or repair pass drops it.
        """
        for shard in committed:
            try:
                with shard.lock.write_locked():
                    shard.db.remove(video_id)
            except Exception:
                pass
        self._unclaim(video_id)

    def ingest(
        self,
        clip: VideoClip,
        category: VideoCategory | None = None,
        archetypes: Any = None,
    ) -> IngestReport:
        """Route ``clip`` to its home shard: claim, derive, then adopt.

        The cluster-wide duplicate check happens at claim time (under
        the placement mutex), so two concurrent ingests of the same id
        cannot both proceed even when racing.  The primary shard's
        database derives the clip with no lock held — queries and
        browses on the shard keep flowing through the whole pipeline —
        and the derived record is then adopted on the primary and on
        each replica under that shard's write lock (:meth:`adopt`'s
        fan-out).  An ingest is acknowledged only with all R copies
        committed; any failure rolls the committed copies back and
        releases the claim.
        """
        targets = self._write_targets(clip.name, "ingest")
        self._claim(clip.name, [shard.shard_id for shard in targets])
        try:
            return targets[0].db.ingest(
                clip,
                category=category,
                archetypes=archetypes,
                adopt=lambda record: self._adopt_on(targets, record),
            )
        except BaseException:
            # A failed derive has no copy to roll back; a failed adopt
            # already rolled back and unclaimed (idempotent).
            self._unclaim(clip.name)
            raise

    def adopt(self, record: VideoRecord) -> int:
        """Register already-derived state on its home + replica shards."""
        targets = self._write_targets(record.video_id, "adopt")
        self._claim(record.video_id, [shard.shard_id for shard in targets])
        return self._adopt_on(targets, record)

    def _adopt_on(self, targets: list[Shard], record: VideoRecord) -> int:
        """Adopt ``record`` on the primary, then each replica, each under
        its shard's write lock — all or nothing."""
        current = targets[0]
        committed: list[Shard] = []
        n = 0
        try:
            for k, shard in enumerate(targets):
                current = shard
                with shard.lock.write_locked():
                    applied = shard.db.adopt(record)
                committed.append(shard)
                if k == 0:
                    n = applied
                    shard.ingests += 1
                else:
                    shard.replications += 1
            return n
        except BaseException:
            current.errors += 1
            self._rollback_copies(record.video_id, committed)
            raise

    def remove(self, video_id: str) -> int:
        """Drop a video from every shard holding a copy."""
        holder_ids = self.holders_of(video_id)
        shards = [self.shard(shard_id) for shard_id in holder_ids]
        for shard in shards:
            shard.check_up("remove")
        removed = 0
        dropped: list[int] = []
        try:
            for shard in shards:
                with shard.lock.write_locked():
                    removed = max(removed, shard.db.remove(video_id))
                dropped.append(shard.shard_id)
        except BaseException:
            # Keep the maps honest about the copies still on disk.
            for shard_id in dropped:
                self.note_drop(video_id, shard_id)
            raise
        self._unclaim(video_id)
        return removed

    # ------------------------------------------------------------------
    # scatter-gather queries
    # ------------------------------------------------------------------

    def _covered_by(self, shard_id: int, ok_ids: Container[int]) -> bool:
        """Whether every video on ``shard_id`` has a holder in ``ok_ids``.

        This is the failover completeness proof: when it holds, the
        shards that answered collectively contain a copy of everything
        the failed shard would have contributed, so the merged answer
        is complete (and decision-identical — a shot's local rank on
        any holder is never worse than its global rank, so it survives
        the per-shard top-k pushdown wherever it lives).
        """
        with self._placement_lock:
            for holders in self._holders.values():
                if shard_id not in holders:
                    continue
                if not any(h in ok_ids for h in holders if h != shard_id):
                    return False
        return True

    @staticmethod
    def _sub_query(
        one: Callable[[Shard, float | None], Any],
        shard: Shard,
        lock_timeout: float | None,
        deadline: Deadline | None,
    ) -> tuple[Any, dict[str, Any] | None]:
        """Run ``one(shard, lock_timeout)`` on this thread and classify
        it: ``(answer, None)``, or ``(None, shards_failed entry)``.

        A shard reached with the budget spent, or whose read lock did
        not come within ``lock_timeout``, was never tried: it is
        ``busy`` — retryable, but no sign of a sick shard
        (``ShardSupervisor`` does not count it).  A sub-query that held
        the lock runs to its end; if that end is past the deadline it
        is a slow shard, ``deadline``, and its answer is dropped.
        """
        if deadline is not None and deadline.expired:
            return None, _failure(shard, "busy", _NOT_TRIED)
        try:
            answer = one(shard, lock_timeout)
        except ServiceTimeout:
            return None, _failure(shard, "busy", _NOT_TRIED)
        except ShardUnavailableError as exc:
            return None, _failure(shard, "down", str(exc))
        except Exception as exc:  # degrade, never fail the query
            shard.errors += 1
            return None, _failure(shard, "error", f"{type(exc).__name__}: {exc}")
        if deadline is not None and deadline.expired:
            return None, _failure(shard, "deadline", _LATE)
        return answer, None

    def _scatter(
        self, one: Callable[[Shard, float | None], Any], deadline: Deadline | None
    ) -> tuple[dict[int, Any], list[dict[str, Any]]]:
        """Run ``one(shard, lock_timeout)`` for every shard on the
        request's thread, in two passes.

        Pass 1 runs, in shard order, every shard whose read lock is
        free (``lock_timeout`` 0: a writer holding or waiting for the
        lock defers the shard at once).  Pass 2 waits for each deferred
        shard's lock with the deadline's remaining budget.  A shard
        held by a writer so holds up none of the others.  Returns
        ``(results, failed)``: shard id -> ``one``'s value for the
        shards that answered, and one ``shards_failed`` entry per shard
        that did not, in shard order (see :meth:`_sub_query`).
        """
        outcomes = {
            shard.shard_id: self._sub_query(one, shard, 0.0, deadline)
            for shard in self.shards
        }
        for shard in self.shards:
            _, failure = outcomes[shard.shard_id]
            if failure is not None and failure["reason"] == "busy":
                outcomes[shard.shard_id] = self._sub_query(
                    one, shard, _budget(deadline), deadline
                )
        results = {
            shard_id: answer
            for shard_id, (answer, failure) in outcomes.items()
            if failure is None
        }
        failed = [failure for _, failure in outcomes.values() if failure is not None]
        return results, failed

    def _recover_failures(
        self,
        failed: list[dict[str, Any]],
        results: dict[int, Any],
        one: Callable[[Shard, float | None], Any],
        deadline: Deadline | None,
    ) -> tuple[list[dict[str, Any]], list[str]]:
        """Automatic failover after a scatter (no-op when R == 1).

        For each failed shard: when the shards that answered already
        cover its corpus (the common single-failure case with R >= 2),
        the failure is marked *recovered* — reported but not partial.
        Otherwise, a transiently-failed shard (error/deadline, not
        marked down) gets one retry inside the same ``Deadline``; a
        successful retry lands in ``results`` and clears the failure
        entirely.  Returns ``(still_failed, recovered_names)``.
        """
        if self.replication <= 1 or not failed:
            return failed, []
        by_name = {shard.name: shard for shard in self.shards}
        remaining: list[dict[str, Any]] = []
        recovered: list[str] = []
        for failure in failed:
            shard = by_name.get(failure["shard"])
            if shard is None:  # pragma: no cover - reshard mid-query
                remaining.append(failure)
                continue
            if self._covered_by(shard.shard_id, results):
                remaining.append(failure)
                recovered.append(shard.name)
                continue
            retryable = failure["reason"] in ("busy", "deadline", "error")
            if retryable and not shard.down:
                answer, retry_failure = self._sub_query(
                    one, shard, _budget(deadline), deadline
                )
                if retry_failure is None:
                    results[shard.shard_id] = answer
                    continue  # the retry answered: shard is not failed
            remaining.append(failure)  # the original failure entry stands
        if recovered or len(remaining) < len(failed):
            self.failovers += 1
        return remaining, recovered

    def query(
        self,
        var_ba: float,
        var_oa: float,
        limit: int | None = None,
        category: VideoCategory | None = None,
        exclude_shot: tuple[str, int] | None = None,
        config: QueryConfig | None = None,
        deadline: Deadline | None = None,
    ) -> ClusterAnswer:
        """Impression query, scattered to every shard and merged: a
        batch of one (:meth:`query_batch`)."""
        return self.query_batch(
            [(var_ba, var_oa)],
            limit=limit,
            category=category,
            config=config,
            deadline=deadline,
            exclude_shots=[exclude_shot],
        )[0]

    def query_batch(
        self,
        points: Sequence[tuple[float, float]],
        limit: int | None = None,
        category: VideoCategory | None = None,
        config: QueryConfig | None = None,
        deadline: Deadline | None = None,
        exclude_shots: Sequence[tuple[str, int] | None] | None = None,
    ) -> list[ClusterAnswer]:
        """Answer B impression queries in a *single* scatter-gather round.

        Each shard answers the whole batch (``VideoDatabase.query_batch``)
        under one read-lock acquisition, on the request's thread (free
        shards first, then the rest, each lock wait bounded by the
        remaining deadline budget: :meth:`_scatter`), and routes its
        own matches there, as one database does — so every route
        matches its match even if a rebalance moves the video
        afterwards.  Every query goes to every
        shard with the *same* ``limit`` (the global top-k is a subset of
        the union of per-shard top-k).  The coordinator then merges the
        shards' match sets, every query at once (:func:`_merge`: each
        shot once, ranked, capped per query); a single shard's match set
        has nothing to merge and is returned as is.

        Failed or late shards are reported in ``shards_failed`` and the
        answers are built from the rest.  A failure degrades the whole
        batch uniformly: every answer reports the same
        ``shards_queried`` and carries its own copy of
        ``shards_failed``.  A batch of one is traced as the single
        query it is (``shard.query`` spans, not ``shard.query_batch``).
        """
        queries = [VarianceQuery(var_ba=ba, var_oa=oa) for ba, oa in points]
        if not queries:
            return []
        single = len(queries) == 1
        shard_span_name = "shard.query" if single else "shard.query_batch"
        ctx = _current_trace()
        scatter = ctx.begin("cluster.scatter") if ctx is not None else None
        if scatter is not None and not single:
            scatter.annotate(n_queries=len(queries))

        def one(shard: Shard, lock_timeout: float | None) -> Matches:
            # On the request's thread: the span parents under the scatter.
            with _span(shard_span_name, shard=shard.name) as shard_span:
                shard.check_up("query")
                with shard.traced_read(lock_timeout):
                    rows = shard.db.query_batch(
                        points,
                        limit=limit,
                        category=category,
                        config=config,
                        exclude_shots=exclude_shots,
                    )[0].rows
                shard.queries += 1
                shard_span.annotate(matches=len(rows.video_id))
                return rows

        with self._round():
            results, failed = self._scatter(one, deadline)
            failed, recovered = self._recover_failures(failed, results, one, deadline)
        if scatter is not None:
            gathered = sum(len(rows.video_id) for rows in results.values())
            scatter.annotate(
                fan_out=self.n_shards,
                shards_ok=len(results),
                gathered=gathered,
            )
            if failed:
                scatter.annotate(shards_failed=[f["shard"] for f in failed])
            if recovered:
                scatter.annotate(shards_recovered=recovered)
            scatter.end()
        if len(results) == 1:
            [rows] = results.values()
        else:
            with _span("cluster.merge") as merge_span:
                rows = _merge(queries, list(results.values()), limit)
                if scatter is not None:
                    merge_span.annotate(gathered=gathered, returned=len(rows.video_id))
        return [
            ClusterAnswer(
                rows,
                k,
                shards_queried=len(results),
                shards_failed=list(failed),
                shards_recovered=list(recovered),
            )
            for k in range(len(queries))
        ]

    def query_by_shot(
        self,
        video_id: str,
        shot_number: int,
        limit: int | None = None,
        category: VideoCategory | None = None,
        deadline: Deadline | None = None,
    ) -> ClusterAnswer:
        """Query-by-example: probe one indexed shot, search everywhere."""
        shard = self.locate(video_id)
        shard.check_up("query_by_shot")
        with shard.lock.read_locked(_budget(deadline)):
            probe = shard.db.shot_entry(video_id, shot_number)
        return self.query(
            var_ba=probe.features.var_ba,
            var_oa=probe.features.var_oa,
            limit=limit,
            category=category,
            exclude_shot=(video_id, shot_number),
            deadline=deadline,
        )

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    def packed_tree(
        self, video_id: str, deadline: Deadline | None = None
    ) -> PackedTree:
        """The packed scene tree of one video (wherever it lives).

        A ``deadline`` bounds the shard read-lock wait by its remaining
        budget (:class:`~repro.errors.ServiceTimeout` past it), here and
        in the other lookups — an adopt holds its shard's write lock
        through its publish.
        """
        shard = self.locate(video_id)
        shard.check_up("scene_tree")
        with shard.lock.read_locked(_budget(deadline)):
            return shard.db.packed_tree(video_id)

    def shot_entries(
        self, video_id: str, deadline: Deadline | None = None
    ) -> list[IndexEntry]:
        """One video's indexed shots, ordered by shot number."""
        shard = self.locate(video_id)
        shard.check_up("shots")
        with shard.lock.read_locked(_budget(deadline)):
            shard.db.catalog.get(video_id)  # raises CatalogError when unknown
            rows = shard.db.index.entries_for(video_id)
        return sorted(rows, key=lambda e: e.shot_number)

    def catalog_entries(self, deadline: Deadline | None = None) -> list[CatalogEntry]:
        """Every video's catalog row once (however many shards hold a
        copy), sorted by video id."""
        rows: dict[str, CatalogEntry] = {}
        for shard in self.shards:
            with shard.lock.read_locked(_budget(deadline)):
                for entry in shard.db.catalog:
                    rows.setdefault(entry.video_id, entry)
        return [rows[video_id] for video_id in sorted(rows)]

    def catalog_size(self) -> int:
        """Total videos across shards (lock-free snapshot)."""
        with self._placement_lock:
            return len(self._placement)

    def index_size(self) -> int:
        """Indexed shots, each counted once (lock-free snapshot).

        The shards' index sizes, less the shots of every copy of a
        video beyond the first (replicas and mid-move strays).
        """
        total = sum(len(shard.db.index) for shard in self.shards)
        for video_id, holders in self.holders_snapshot().items():
            if len(holders) > 1:
                try:
                    entry = self.shard(holders[0]).db.catalog.get(video_id)
                except (CatalogError, ClusterError):  # dropped since the snapshot
                    continue
                total -= (len(holders) - 1) * entry.n_shots
        return total

    # ------------------------------------------------------------------
    # lifecycle & introspection
    # ------------------------------------------------------------------

    def status(self) -> dict[str, Any]:
        """The cluster document for ``/health``, ``/metrics``, the CLI."""
        shard_status = [shard.status() for shard in self.shards]
        return {
            "n_shards": self.n_shards,
            "root": str(self.root) if self.root is not None else None,
            "router": self.router.to_dict(),
            "replication": self.replication,
            "effective_replication": self.effective_replication,
            "failovers": self.failovers,
            "videos": self.catalog_size(),
            "indexed_shots": self.index_size(),
            "shards_up": sum(1 for s in shard_status if s["up"]),
            "shards": shard_status,
        }

    def close(self) -> None:
        """Release the coordinator's resources: it holds none, since
        queries run on the caller's thread; kept for callers that close
        what they open."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ClusterCoordinator(n_shards={self.n_shards}, "
            f"videos={self.catalog_size()})"
        )
