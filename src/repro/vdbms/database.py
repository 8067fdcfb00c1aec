""":class:`VideoDatabase` — the integrated framework of the paper.

Ingesting a clip runs the full Step 1-2-3 pipeline:

1. camera-tracking SBD segments the clip and extracts per-frame signs;
2. the scene-tree builder assembles the browsing hierarchy;
3. per-shot ``(Var^BA, Var^OA)`` vectors enter the sorted index.

Ingest is *derive, then adopt*: the pipeline produces a detached
:class:`VideoRecord` without touching the database, and
:meth:`VideoDatabase.adopt` — the one write path, shared with replicas
and repair — registers it and, on a durable database, publishes that
one video's record file.

Queries are impression queries (Eqs. 7-8); answers carry both the
matching shots and the scene-tree nodes to start browsing from
(Sec. 4.2's hand-off).  An in-memory database round-trips through a
directory via :meth:`save` / :meth:`load`; one bound to a directory by
:meth:`open` commits each change as it happens.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, MutableMapping, Sequence

from ..config import PipelineConfig, QueryConfig
from ..errors import CatalogError, IndexError_, StorageError
from ..index.columnar import ColumnarVarianceIndex
from ..index.query import VarianceQuery
# route_to_scene_nodes stays a name here: the benchmark wraps it.
from ..index.routing import SceneRoute, route_targets, route_to_scene_nodes  # noqa: F401
from ..index.table import IndexEntry, IndexTable
from ..obs import current_trace as _current_trace, span as _span
from ..scenetree.browse import BrowsingSession
from ..scenetree.builder import SceneTreeBuilder
from ..scenetree.nodes import SceneTree
from ..scenetree.serialize import PackedTree
from ..sbd.detector import CameraTrackingDetector, DetectionResult
from ..sbd.shots import Shot
from ..video.clip import VideoClip
from ..workloads.taxonomy import VideoCategory
from .catalog import Catalog, CatalogEntry
from .fsio import LocalFS
from .manifest import RECORD_PREFIX, digest_bytes
from .storage import DatabaseStorage, record_bytes

__all__ = ["IngestReport", "QueryAnswer", "VideoDatabase", "VideoRecord"]


@dataclass(frozen=True, slots=True)
class IngestReport:
    """What ingesting one clip produced."""

    video_id: str
    n_frames: int
    n_shots: int
    tree_height: int
    indexed_entries: int


@dataclass(frozen=True, slots=True, init=False)
class VideoRecord:
    """One video's complete derived state, detached from any database.

    The unit of ingest (:meth:`VideoDatabase.derive` produces it), of
    transfer (the cluster rebalancer, replicas, repair and the fast
    corpus loaders in :mod:`repro.testing`) and of storage: one record
    file per video (:func:`~repro.vdbms.storage.record_bytes`).
    Everything :meth:`VideoDatabase.adopt` needs to register the video
    without re-running the Step 1-2-3 pipeline.  Raw frames and
    detection features are *not* carried — they are recomputable and
    are not persisted by :meth:`VideoDatabase.save` either.

    The tree is held packed (a :class:`SceneTree` is packed on
    construction); :attr:`tree` unpacks it.
    """

    entry: CatalogEntry
    packed_tree: PackedTree
    index_entries: tuple[IndexEntry, ...]

    def __init__(
        self,
        entry: CatalogEntry,
        tree: SceneTree | PackedTree,
        index_entries: tuple[IndexEntry, ...],
    ) -> None:
        if isinstance(tree, SceneTree):
            tree = PackedTree.from_tree(tree)
        object.__setattr__(self, "entry", entry)
        object.__setattr__(self, "packed_tree", tree)
        object.__setattr__(self, "index_entries", index_entries)

    @property
    def video_id(self) -> str:
        return self.entry.video_id

    @property
    def tree(self) -> SceneTree:
        """The scene tree as nodes (:meth:`PackedTree.unpack`)."""
        return self.packed_tree.unpack()

    def to_bytes(self) -> bytes:
        """The record file's bytes: a pure function of the record, so
        every replica of a video writes identical bytes."""
        return record_bytes(
            self.entry,
            self.packed_tree,
            ColumnarVarianceIndex.encode_rows(self.index_entries),
        )


@dataclass(frozen=True, slots=True)
class QueryAnswer:
    """A similarity query's result: shots plus browsing entry points.

    ``targets`` holds each match's route target
    (:func:`~repro.index.routing.route_targets`), read with the matches,
    so a later replace cannot mix trees.  The served path reads them;
    :attr:`routes` unpacks the trees, only when read.
    """

    matches: list[IndexEntry]
    targets: list[tuple[PackedTree, int] | None] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.matches)

    @property
    def routes(self) -> list[SceneRoute]:
        """Each match's browsing entry point, as scene-tree nodes."""
        return [
            SceneRoute(entry, None if target is None else target[0].node(target[1]))
            for entry, target in zip(self.matches, self.targets)
        ]

    @property
    def suggestions(self) -> list[str]:
        """Human-readable ``shot -> scene node`` hand-offs."""
        return [route.suggestion for route in self.routes]


class _Trees(MutableMapping):
    """Video id -> :class:`SceneTree` over packed trees: assigning
    packs a tree, reading unpacks one."""

    def __init__(self, packed: dict[str, PackedTree]) -> None:
        self.packed = packed

    def __getitem__(self, video_id: str) -> SceneTree:
        return self.packed[video_id].unpack()

    def __setitem__(self, video_id: str, tree: SceneTree) -> None:
        self.packed[video_id] = PackedTree.from_tree(tree)

    def __delitem__(self, video_id: str) -> None:
        del self.packed[video_id]

    def __iter__(self) -> Iterator[str]:
        return iter(self.packed)

    def __len__(self) -> int:
        return len(self.packed)


class VideoDatabase:
    """An in-process VDBMS over the paper's three techniques.

    Args:
        config: pipeline parameters (paper defaults when omitted).
    """

    def __init__(self, config: PipelineConfig | None = None) -> None:
        self.config = config or PipelineConfig()
        self.catalog = Catalog()
        self.index = ColumnarVarianceIndex()
        #: Each video's scene tree, packed: what routes, ``/tree`` and
        #: record bytes read.  :attr:`trees` views it as nodes.
        self._packed: dict[str, PackedTree] = {}
        self.trees: MutableMapping[str, SceneTree] = _Trees(self._packed)
        #: Videos a recovering load could not read (see :meth:`load`);
        #: their manifest still tracks them until ``repro fsck --repair``.
        self.quarantined: list[str] = []
        #: Bound storage (see :meth:`open`): when set, every ingest and
        #: remove publishes durably before returning.
        self._storage: DatabaseStorage | None = None
        self._detector = CameraTrackingDetector(
            config=self.config.sbd,
            region_config=self.config.region,
            extraction=self.config.extraction,
        )

    @property
    def storage(self):
        """The bound :class:`DatabaseStorage` (None when in-memory).

        Read-only integrity surfaces hang off this — ``fsck()``,
        ``tracked_records()``, ``check_tracked()`` — used by the cluster
        scrubber and the placement reconciler.
        """
        return self._storage

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------

    def derive(
        self,
        clip: VideoClip,
        category: VideoCategory | None = None,
        archetypes: dict[int, str]
        | Callable[[list[tuple[int, int]]], dict[int, str]]
        | None = None,
    ) -> tuple[VideoRecord, DetectionResult]:
        """Run the Step 1-2-3 pipeline on ``clip`` without touching the
        database: detection, scene tree and index rows, as a detached
        :class:`VideoRecord` plus the detection result.

        Pure and lock-free, so concurrent derives are safe: the
        detector is configured once at construction, and the sign
        extractors it shares are a locked LRU.  ``category`` and
        ``archetypes`` are as in :meth:`ingest`.
        """
        detection = self._detector.detect(clip)
        if callable(archetypes):
            archetypes = archetypes(
                [(shot.start, shot.stop) for shot in detection.shots]
            )
        builder = SceneTreeBuilder(config=self.config.scene_tree)
        tree = builder.build_from_detection(detection)
        entries = IndexTable().add_detection_result(
            detection, video_id=clip.name, archetypes=archetypes
        )
        entry = CatalogEntry(
            video_id=clip.name,
            n_frames=len(clip),
            rows=clip.rows,
            cols=clip.cols,
            fps=clip.fps,
            n_shots=detection.n_shots,
            category=category,
        )
        record = VideoRecord(entry=entry, tree=tree, index_entries=tuple(entries))
        return record, detection

    def ingest(
        self,
        clip: VideoClip,
        category: VideoCategory | None = None,
        archetypes: dict[int, str]
        | Callable[[list[tuple[int, int]]], dict[int, str]]
        | None = None,
        *,
        adopt: Callable[[VideoRecord], int] | None = None,
    ) -> IngestReport:
        """Derive ``clip`` (:meth:`derive`), then register it with
        :meth:`adopt` — the one place for the duplicate check,
        registration, publish and rollback.

        Args:
            clip: the video to add; its name becomes the video id.
            category: optional genre/form classification.
            archetypes: optional content labels for evaluation (never
                used for matching) — either a 0-based *detected* shot
                index → label map, or a callable receiving the detected
                ``(start, stop)`` frame ranges and returning that map
                (e.g. ``GroundTruth.archetypes_for_ranges``, which
                assigns labels by overlap and so stays correct when
                detection merges scripted shots).
            adopt: what commits the derived record; this database's
                own :meth:`adopt` by default.  The cluster coordinator
                passes one that adopts on every target shard under
                that shard's write lock, so no lock is held while the
                clip is analysed.
        """
        if clip.name in self.catalog:
            raise CatalogError(f"video {clip.name!r} already ingested")
        record, detection = self.derive(clip, category, archetypes)
        (adopt or self.adopt)(record)
        return IngestReport(
            video_id=clip.name,
            n_frames=len(clip),
            n_shots=detection.n_shots,
            tree_height=record.packed_tree.height,
            indexed_entries=len(record.index_entries),
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def query(
        self,
        var_ba: float,
        var_oa: float,
        limit: int | None = None,
        category: VideoCategory | None = None,
        exclude_shot: tuple[str, int] | None = None,
        config: QueryConfig | None = None,
        with_routes: bool = True,
    ) -> QueryAnswer:
        """Impression query: "how much is changing" in each area.

        With ``category`` given, only videos whose classification
        overlaps it are considered (the Sec. 4.1 retrieval-scoping
        assumption).  ``config`` overrides the configured alpha/beta
        tolerances for this query only (used by the service layer for
        per-request tolerances).

        ``limit`` caps the answer at the top-k most similar shots.
        Without a category filter the cap is pushed down into the
        index (a partition-based top-k over the band instead of a
        full sort) — the shard-side half of the cluster coordinator's
        limit pushdown; with one, the filter must see the full ranking
        first, so the cap applies after it.

        ``with_routes=False`` skips the browsing routes and returns
        answers without targets (``routes == []``) — for callers that
        only need the ranking (a benchmark timing the routes apart from
        the search).

        A single query is a batch of one (:meth:`query_batch`).
        """
        return self.query_batch(
            [(var_ba, var_oa)],
            limit=limit,
            category=category,
            config=config,
            with_routes=with_routes,
            exclude_shots=[exclude_shot],
        )[0]

    def query_batch(
        self,
        points: Sequence[tuple[float, float]],
        limit: int | None = None,
        category: VideoCategory | None = None,
        config: QueryConfig | None = None,
        with_routes: bool = True,
        exclude_shots: Sequence[tuple[str, int] | None] | None = None,
    ) -> list[QueryAnswer]:
        """Answer B impression queries in one call.

        Equivalent to ``[self.query(ba, oa, ...) for ba, oa in
        points]`` (checked against the scan oracle by the property
        suite).  A batch of one is traced as the single query it is
        (``db.query``, not ``db.query_batch``).

        Args:
            points: ``(var_ba, var_oa)`` pairs, one per query.
            limit: per-query top-k cap (pushed down into the index
                when no category filter is active).
            category: optional classification scope shared by the batch.
            config: per-batch alpha/beta override.
            with_routes: as in :meth:`query`.
            exclude_shots: optional per-query exclusions, aligned with
                ``points`` (query-by-example probes).
        """
        single = len(points) == 1
        ctx = _current_trace()
        span = None
        if ctx is not None:
            span = ctx.begin("db.query" if single else "db.query_batch")
        try:
            batched = self.index.search_batch(
                [VarianceQuery(var_ba=ba, var_oa=oa) for ba, oa in points],
                config=config or self.config.query,
                limit=limit if category is None else None,
                exclude_shots=exclude_shots,
            )
            if category is not None:
                allowed = {
                    entry.video_id for entry in self.catalog.in_category(category)
                }
                batched = [
                    [m for m in matches if m.video_id in allowed][:limit]
                    for matches in batched
                ]
                if span is not None:
                    span.annotate(
                        category=category.label,
                        after_filter=sum(map(len, batched)),
                    )
            if span is not None:
                if not single:
                    span.annotate(n_queries=len(points))
                span.annotate(matches=sum(map(len, batched)))
            if not with_routes:
                return [QueryAnswer(matches=matches) for matches in batched]
            with _span("db.routes") as route_span:
                answers = [
                    QueryAnswer(matches, route_targets(matches, self._packed))
                    for matches in batched
                ]
                route_span.annotate(routes=sum(len(a.targets) for a in answers))
            return answers
        finally:
            if span is not None:
                span.end()

    def query_by_shot(
        self,
        video_id: str,
        shot_number: int,
        limit: int | None = None,
        category: VideoCategory | None = None,
    ) -> QueryAnswer:
        """Query-by-example: use an indexed shot's vector as the query."""
        probe = self.shot_entry(video_id, shot_number)
        return self.query(
            var_ba=probe.features.var_ba,
            var_oa=probe.features.var_oa,
            limit=limit,
            category=category,
            exclude_shot=(video_id, shot_number),
        )

    def remove(self, video_id: str) -> int:
        """Drop a video: catalog entry, scene tree and every index
        entry.  Returns the number of index entries removed.

        On a database bound to a root (:meth:`open`) the removal is
        committed durably before returning; otherwise the on-disk copy
        (if any) is untouched until the next :meth:`save`.
        """
        old = self._unregister(video_id)  # raises CatalogError when unknown
        if self._storage is not None:
            try:
                self._commit(video_id, None)
            except StorageError:
                self._register(old)
                raise
        return len(old.index_entries)

    def _register(self, record: VideoRecord) -> None:
        self.catalog.add(record.entry)
        for entry in record.index_entries:
            self.index.insert(entry)
        self._packed[record.video_id] = record.packed_tree

    def _unregister(self, video_id: str) -> VideoRecord:
        """Drop a video from memory, returning it (for rollback)."""
        entry = self.catalog.remove(video_id)  # raises CatalogError when unknown
        record = VideoRecord(
            entry=entry,
            tree=self._packed.pop(video_id),
            index_entries=tuple(self.index.entries_for(video_id)),
        )
        self.index.remove_video(video_id)
        return record

    # ------------------------------------------------------------------
    # record transfer (cluster rebalancing)
    # ------------------------------------------------------------------

    def export_video(self, video_id: str) -> VideoRecord:
        """Snapshot one video's derived state as a detached record.

        The record is safe to hold across database mutations (the
        catalog entry, index entries and packed tree are immutable) and
        is everything :meth:`adopt` needs to register the video on
        another database — the transfer primitive of the cluster
        rebalancer.  It carries the packed tree as held, so an export
        builds no :class:`SceneNode`, and its bytes are the record
        file's (a shard heals a rotted file from its own memory).
        """
        entry = self.catalog.get(video_id)  # raises CatalogError when unknown
        if video_id not in self._packed:
            raise CatalogError(f"video {video_id!r} has no scene tree")
        index_entries = tuple(self.index.entries_for(video_id))
        return VideoRecord(
            entry=entry, tree=self._packed[video_id], index_entries=index_entries
        )

    def adopt(self, record: VideoRecord) -> int:
        """Register a derived video: the one write path.

        :meth:`ingest` ends here, as do replica copies, rebalancing
        moves and repair.  The catalog row, index entries and scene
        tree from ``record`` are registered; a durable database then
        publishes the video's record file and commits it with one small
        manifest delta.  A failed publish leaves the disk at the prior
        state, so the registration is rolled back too — memory and disk
        always agree, and a retry does not trip the duplicate check.
        Returns the number of index entries registered.
        """
        video_id = record.entry.video_id
        if video_id in self.catalog:
            raise CatalogError(f"video {video_id!r} already ingested")
        self._register(record)
        if self._storage is not None:
            try:
                self._commit(video_id, record)
            except StorageError:
                self._unregister(video_id)
                raise
        return len(record.index_entries)

    def replace(self, record: VideoRecord) -> int:
        """Swap a held video's derived state for ``record`` in one
        commit: how repair heals a divergent or rotted copy with no
        moment at which the video is missing, on disk or in memory.

        Like every commit, it writes a fresh record file, even when
        ``record`` serializes to the bytes the manifest already records
        (the file on disk may be the rot being healed).  Raises
        :class:`CatalogError` when the video is not held; rolls back to
        the old copy when the publish fails.  Returns the number of
        index entries registered.
        """
        video_id = record.video_id
        old = self._unregister(video_id)
        self._register(record)
        if self._storage is not None:
            try:
                self._commit(video_id, record)
            except StorageError:
                self._unregister(video_id)
                self._register(old)
                raise
        return len(record.index_entries)

    def ask(self, text: str) -> QueryAnswer:
        """Run an impression-language query (see
        :mod:`repro.vdbms.query_language`).

        Example:
            >>> db.ask("background calm, foreground busy, limit 3")
            >>> db.ask('like shot 12 of "Wag the Dog"')
        """
        from .query_language import execute

        return execute(self, text)

    # ------------------------------------------------------------------
    # lookups & browsing
    # ------------------------------------------------------------------

    def shot_entry(self, video_id: str, shot_number: int) -> IndexEntry:
        """The index entry of one shot (1-based shot number)."""
        entry = self.index.lookup(video_id, shot_number)
        if entry is None:
            raise CatalogError(f"no indexed shot #{shot_number} in {video_id!r}")
        return entry

    def shots(self, video_id: str) -> list[Shot]:
        """The detected shots of one video, from its index rows (which
        hold each shot's 1-based inclusive frame range)."""
        if video_id not in self.catalog:
            raise CatalogError(f"unknown video {video_id!r}")
        rows = sorted(self.index.entries_for(video_id), key=lambda e: e.shot_number)
        return [Shot(e.shot_number - 1, e.start_frame - 1, e.end_frame) for e in rows]

    def scene_tree(self, video_id: str) -> SceneTree:
        """The browsing hierarchy of one video, as nodes: unpacked on the
        first call, then the same nodes every time."""
        return self.packed_tree(video_id).unpack()

    def packed_tree(self, video_id: str) -> PackedTree:
        """One video's scene tree as held: what the served ``/tree`` reads."""
        try:
            return self._packed[video_id]
        except KeyError:
            raise CatalogError(f"unknown video {video_id!r}") from None

    def browse(self, video_id: str) -> BrowsingSession:
        """Open a browsing cursor at the root of a video's scene tree."""
        return BrowsingSession(self.scene_tree(video_id))

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def save(self, root: str | Path, *, fs: LocalFS | None = None) -> Path:
        """Persist an unbound database's whole state under ``root``.

        One atomic publish (see :mod:`repro.vdbms.storage`): a crash
        mid-save leaves the previous save fully intact.  Records whose
        bytes match what the manifest tracks are carried over without a
        write, so a save that changes nothing keeps the generation;
        records of videos no longer in the database are dropped and
        their files garbage-collected after the commit.  A database
        bound by :meth:`open` commits each change itself and raises
        :class:`StorageError` here.

        Raw frames and detection features are not stored.  ``fs``
        overrides the filesystem backend (fault-injection seam).
        """
        if self._storage is not None:
            raise StorageError(
                f"database is bound to {self._storage.root}: it commits "
                "every change itself, so there is nothing to save"
            )
        storage = DatabaseStorage(root, fs=fs)
        self._publish_all(storage)
        return storage.root

    def _publish_all(self, storage: DatabaseStorage) -> None:
        """Publish the whole state: every record whose bytes differ from
        what the manifest tracks (read once), dropping the rest.  Rows
        are serialized from the index columns in one pass (no
        ``IndexEntry`` objects)."""
        manifest = storage.current_manifest()
        tracked = dict(manifest.files) if manifest is not None else {}
        rows = dict(self.index.video_rows())
        empty = ColumnarVarianceIndex.encode_rows(())
        payloads = {}
        for entry in self.catalog:
            logical = RECORD_PREFIX + entry.video_id
            data = record_bytes(
                entry, self._packed[entry.video_id], rows.get(entry.video_id, empty)
            )
            prior = tracked.pop(logical, None)
            if (
                prior is None
                or prior.blake2s != digest_bytes(data)
                or not (storage.root / prior.path).exists()
            ):
                payloads[logical] = data
        storage.publish(payloads, drop=list(tracked))  # the videos not held

    def _commit(self, video_id: str, record: VideoRecord | None) -> None:
        """Durably publish one video's change, its record or (``None``)
        its removal, as one commit: the only way a bound database
        writes."""
        assert self._storage is not None
        logical = RECORD_PREFIX + video_id
        if record is None:
            self._storage.publish({}, drop=[logical])
        else:
            self._storage.publish({logical: record.to_bytes()})

    def record_digest(self, video_id: str) -> str | None:
        """The blake2s of one video's record file, its fingerprint: the
        manifest digest on a durable database, otherwise the digest of
        the bytes a publish would write.  None for an unknown video."""
        if self._storage is not None:
            return self._storage.video_digest(video_id)
        try:
            record = self.export_video(video_id)
        except CatalogError:
            return None
        return digest_bytes(record.to_bytes())

    @classmethod
    def open(
        cls,
        root: str | Path,
        config: PipelineConfig | None = None,
        *,
        recover: bool = False,
        fs: LocalFS | None = None,
    ) -> "VideoDatabase":
        """Load-or-create a database *bound* to ``root``.

        A bound database is durable: every :meth:`ingest`,
        :meth:`adopt`, :meth:`replace` and :meth:`remove` commits that
        one video to disk (record write → fsync → delta or checkpoint
        rename) before returning, so a crash between operations never
        loses an acknowledged one and a crash mid-operation is invisible
        after reload.  Those commits are all it writes (:meth:`save`
        refuses it).  An existing root is read as :meth:`load` reads it:
        every record's digest verified, its rows loaded and its tree
        packed, not built.  A root holding a refused layout raises
        :class:`~repro.errors.StorageError` (see :meth:`load`).
        """
        storage = DatabaseStorage(root, fs=fs)
        if storage.exists():
            db = cls.load(root, config=config, recover=recover, fs=fs)
        else:
            db = cls(config=config)
        db._storage = storage
        return db

    @classmethod
    def load(
        cls,
        root: str | Path,
        config: PipelineConfig | None = None,
        *,
        recover: bool = False,
        fs: LocalFS | None = None,
    ) -> "VideoDatabase":
        """Reload a database saved with :meth:`save`.

        Every tracked file is verified (size + blake2s digest) before
        use.  A corrupt or missing record raises
        :class:`~repro.errors.StorageError` by default; with
        ``recover=True`` the video is left out instead (its id is
        recorded in :attr:`quarantined`; the manifest still tracks it)
        and the rest of the database loads normally.  An unreadable
        manifest chain always raises — there is no partial state worth
        serving without it — as do a root without a manifest and the
        refused layouts (version 2 and the pre-manifest layout), which
        are never read past the manifest.

        Records are streamed: each one is verified and parsed, its
        catalog entry and row columns kept, its tree document packed
        (:meth:`PackedTree.from_document`, which refuses an invalid
        tree, so the load raises :class:`StorageError`; no
        :class:`SceneNode` is built) and its bytes dropped; the index is
        then built by concatenating the columns and sorting once.

        Detection results (raw per-frame features) are not persisted;
        queries, browsing and :meth:`shots` work immediately.
        """
        storage = DatabaseStorage(root, fs=fs)
        manifest = storage.read_manifest()
        if manifest is None:
            raise StorageError(f"no database at {storage.root} (no manifest.json)")
        db = cls(config=config)

        def rows() -> Iterator[tuple[str, bytes]]:
            # One record's bytes alive at a time: the index keeps the
            # columns, the database the entry and the packed tree.
            for video_id in manifest.video_ids():
                try:
                    entry, tree, data = storage.verified_record(
                        RECORD_PREFIX + video_id, manifest
                    )
                except StorageError:
                    if not recover:
                        raise
                    db.quarantined.append(video_id)
                    continue
                db.catalog.add(entry)
                db._packed[video_id] = tree
                yield video_id, data

        try:
            db.index = ColumnarVarianceIndex.from_parts(rows())
        except IndexError_ as exc:
            raise StorageError(
                f"corrupt record rows under {storage.root}: {exc}"
            ) from exc
        return db
