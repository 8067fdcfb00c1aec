""":class:`VideoDatabase` — the integrated framework of the paper.

Ingesting a clip runs the full Step 1-2-3 pipeline:

1. camera-tracking SBD segments the clip and extracts per-frame signs;
2. the scene-tree builder assembles the browsing hierarchy;
3. per-shot ``(Var^BA, Var^OA)`` vectors enter the sorted index.

Queries are impression queries (Eqs. 7-8); answers carry both the
matching shots and the scene-tree nodes to start browsing from
(Sec. 4.2's hand-off).  The whole database round-trips through a
directory via :meth:`save` / :meth:`load`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

from ..config import PipelineConfig, QueryConfig
from ..errors import CatalogError, IndexError_, StorageError
from ..index.columnar import ColumnarVarianceIndex
from ..index.query import VarianceQuery
from ..index.routing import SceneRoute, route_to_scene_nodes
from ..index.table import IndexEntry, IndexTable
from ..obs import current_trace as _current_trace, span as _span
from ..scenetree.browse import BrowsingSession
from ..scenetree.builder import SceneTreeBuilder
from ..scenetree.nodes import SceneTree
from ..sbd.detector import CameraTrackingDetector, DetectionResult
from ..sbd.shots import Shot
from ..scenetree.serialize import scene_tree_from_dict, scene_tree_to_dict
from ..video.clip import VideoClip
from ..workloads.taxonomy import VideoCategory
from .catalog import Catalog, CatalogEntry
from .fsio import LocalFS
from .manifest import TREE_PREFIX
from .storage import DatabaseStorage

__all__ = ["IngestReport", "QueryAnswer", "VideoDatabase", "VideoRecord"]


@dataclass(frozen=True, slots=True)
class IngestReport:
    """What ingesting one clip produced."""

    video_id: str
    n_frames: int
    n_shots: int
    tree_height: int
    indexed_entries: int


@dataclass(frozen=True, slots=True)
class VideoRecord:
    """One video's complete derived state, detached from any database.

    The unit of transfer for the cluster rebalancer (and the fast
    corpus loaders in :mod:`repro.testing`): everything
    :meth:`VideoDatabase.adopt` needs to register the video on another
    database without re-running the Step 1-2-3 pipeline.  Raw frames
    and detection features are *not* carried — they are recomputable
    and are not persisted by :meth:`VideoDatabase.save` either.
    """

    entry: CatalogEntry
    tree: SceneTree
    index_entries: tuple[IndexEntry, ...]

    @property
    def video_id(self) -> str:
        return self.entry.video_id


@dataclass(frozen=True, slots=True)
class QueryAnswer:
    """A similarity query's result: shots plus browsing entry points."""

    matches: list[IndexEntry]
    routes: list[SceneRoute]

    def __len__(self) -> int:
        return len(self.matches)

    @property
    def suggestions(self) -> list[str]:
        """Human-readable ``shot -> scene node`` hand-offs."""
        return [route.suggestion for route in self.routes]


class VideoDatabase:
    """An in-process VDBMS over the paper's three techniques.

    Args:
        config: pipeline parameters (paper defaults when omitted).
    """

    def __init__(self, config: PipelineConfig | None = None) -> None:
        self.config = config or PipelineConfig()
        self.catalog = Catalog()
        self.index = ColumnarVarianceIndex()
        self.trees: dict[str, SceneTree] = {}
        self.detections: dict[str, DetectionResult] = {}
        #: Videos dropped by a recovering load (see :meth:`load`).
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
    def storage_root(self):
        """The bound storage directory (None for an in-memory database)."""
        return self._storage.root if self._storage is not None else None

    @property
    def storage(self):
        """The bound :class:`DatabaseStorage` (None when in-memory).

        Read-only integrity surfaces hang off this — ``fsck()``,
        ``tracked_records()``, ``check_tracked()`` — used by the cluster
        scrubber and anti-entropy repair.
        """
        return self._storage

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------

    def ingest(
        self,
        clip: VideoClip,
        category: VideoCategory | None = None,
        archetypes: dict[int, str]
        | Callable[[list[tuple[int, int]]], dict[int, str]]
        | None = None,
    ) -> IngestReport:
        """Run the full pipeline on ``clip`` and register everything.

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
        """
        if clip.name in self.catalog:
            raise CatalogError(f"video {clip.name!r} already ingested")
        # Compute everything before touching shared state.  The pipeline
        # (detect + tree + features) is the expensive part; deferring all
        # mutation to the final publish below means a failure mid-ingest
        # leaves the database untouched, and a concurrent reader never
        # observes a half-registered video (the service also holds the
        # shard's write lock across the whole call).
        detection = self._detector.detect(clip)
        if callable(archetypes):
            archetypes = archetypes(
                [(shot.start, shot.stop) for shot in detection.shots]
            )
        builder = SceneTreeBuilder(config=self.config.scene_tree)
        tree = builder.build_from_detection(detection)
        table = IndexTable()
        entries = table.add_detection_result(
            detection, video_id=clip.name, archetypes=archetypes
        )
        catalog_entry = CatalogEntry(
            video_id=clip.name,
            n_frames=len(clip),
            rows=clip.rows,
            cols=clip.cols,
            fps=clip.fps,
            n_shots=detection.n_shots,
            category=category,
        )
        # Publish: catalog first (it re-checks uniqueness), then the
        # derived structures.
        self.catalog.add(catalog_entry)
        for entry in entries:
            self.index.insert(entry)
        self.trees[clip.name] = tree
        self.detections[clip.name] = detection
        if self._storage is not None:
            # Durable mode: commit this ingest to disk via a manifest
            # swap before reporting success.  A failed publish leaves
            # the disk at the pre-ingest state (the manifest was not
            # swapped), so roll the in-memory registration back too —
            # memory and disk always agree, and a retry can re-run the
            # whole ingest without tripping the duplicate check.
            try:
                self._publish_incremental(new_tree_id=clip.name)
            except StorageError:
                self.catalog.remove(clip.name)
                self.index.remove_video(clip.name)
                self.trees.pop(clip.name, None)
                self.detections.pop(clip.name, None)
                raise
        return IngestReport(
            video_id=clip.name,
            n_frames=len(clip),
            n_shots=detection.n_shots,
            tree_height=tree.height,
            indexed_entries=len(entries),
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

        ``with_routes=False`` skips computing browsing routes and
        returns ``routes=[]`` — for callers that rank candidates from
        several databases and only route the merged winners (the
        cluster coordinator), so per-shard top-k work is not thrown
        away at the merge.

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
        """Answer B impression queries in one vectorized index pass.

        Equivalent to ``[self.query(ba, oa, ...) for ba, oa in
        points]`` (checked against the scan oracle by the property
        suite), but the columnar engine answers the whole batch with
        shared searchsorted calls, one flat Eq. 8 mask, and a single
        ranking sort — the per-call overhead that dominates small
        top-k queries is paid once.  A batch of one is traced as the
        single query it is (``db.query``, not ``db.query_batch``).

        Args:
            points: ``(var_ba, var_oa)`` pairs, one per query.
            limit: per-query top-k cap (pushed down into the batch
                pass when no category filter is active).
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
                return [QueryAnswer(matches=matches, routes=[]) for matches in batched]
            with _span("db.routes") as route_span:
                answers = [
                    QueryAnswer(
                        matches=matches,
                        routes=route_to_scene_nodes(matches, self.trees),
                    )
                    for matches in batched
                ]
                route_span.annotate(routes=sum(len(a.routes) for a in answers))
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
        """Drop a video: catalog entry, scene tree, detection cache,
        and every index entry.  Returns the number of index entries
        removed.

        On a database bound to a root (:meth:`open`) the removal is
        committed durably before returning; otherwise the on-disk copy
        (if any) is untouched until the next :meth:`save`.
        """
        entry = self.catalog.remove(video_id)  # raises CatalogError when unknown
        tree = self.trees.pop(video_id, None)
        detection = self.detections.pop(video_id, None)
        index_entries = self.index.entries_for(video_id)
        removed = self.index.remove_video(video_id)
        if self._storage is not None:
            try:
                self._publish_incremental()
            except StorageError:
                self.catalog.add(entry)
                for index_entry in index_entries:
                    self.index.insert(index_entry)
                if tree is not None:
                    self.trees[video_id] = tree
                if detection is not None:
                    self.detections[video_id] = detection
                raise
        return removed

    # ------------------------------------------------------------------
    # record transfer (cluster rebalancing)
    # ------------------------------------------------------------------

    def export_video(self, video_id: str) -> VideoRecord:
        """Snapshot one video's derived state as a detached record.

        The record is safe to hold across database mutations (the
        catalog entry, index entries, and tree nodes are immutable) and
        is everything :meth:`adopt` needs to register the video on
        another database — the transfer primitive of the cluster
        rebalancer.
        """
        entry = self.catalog.get(video_id)  # raises CatalogError when unknown
        if video_id not in self.trees:
            raise CatalogError(f"video {video_id!r} has no scene tree")
        index_entries = tuple(self.index.entries_for(video_id))
        return VideoRecord(
            entry=entry, tree=self.trees[video_id], index_entries=index_entries
        )

    def adopt(self, record: VideoRecord) -> int:
        """Register an exported video without re-running the pipeline.

        The mirror of :meth:`ingest` for already-derived state: the
        catalog row, index entries, and scene tree from ``record`` are
        published through the same checksummed manifest-swap path, with
        the same rollback-on-failed-publish guarantee.  Returns the
        number of index entries registered.
        """
        video_id = record.entry.video_id
        if video_id in self.catalog:
            raise CatalogError(f"video {video_id!r} already ingested")
        self.catalog.add(record.entry)
        for entry in record.index_entries:
            self.index.insert(entry)
        self.trees[video_id] = record.tree
        if self._storage is not None:
            try:
                self._publish_incremental(new_tree_id=video_id)
            except StorageError:
                self.catalog.remove(video_id)
                self.index.remove_video(video_id)
                self.trees.pop(video_id, None)
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
        """The detected shots of one video."""
        if video_id not in self.detections:
            raise CatalogError(f"unknown video {video_id!r}")
        return self.detections[video_id].shots

    def scene_tree(self, video_id: str) -> SceneTree:
        """The browsing hierarchy of one video."""
        if video_id not in self.trees:
            raise CatalogError(f"unknown video {video_id!r}")
        return self.trees[video_id]

    def browse(self, video_id: str) -> BrowsingSession:
        """Open a browsing cursor at the root of a video's scene tree."""
        return BrowsingSession(self.scene_tree(video_id))

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def save(
        self,
        root: str | Path,
        include_videos: bool = False,
        *,
        fs: LocalFS | None = None,
    ) -> Path:
        """Persist catalog, index and scene trees under ``root``.

        The whole state is committed through one atomic manifest swap
        (see :mod:`repro.vdbms.storage`): a crash mid-save leaves the
        previous save fully intact.  Scene trees whose content is
        unchanged are carried over without rewriting; tree files of
        removed videos are garbage-collected after the commit.

        Raw frames are only written with ``include_videos=True`` (they
        dominate disk usage); detection features are recomputed on
        demand after a load.  ``fs`` overrides the filesystem backend
        (fault-injection seam).
        """
        root = Path(root)
        if self._storage is not None and root == self._storage.root and fs is None:
            storage = self._storage
        else:
            storage = DatabaseStorage(root, fs=fs)
        storage.publish(self._full_state_payloads())
        return storage.root

    def _full_state_payloads(self) -> dict[str, Any]:
        payloads: dict[str, Any] = {
            "catalog": self.catalog.to_dict(),
            # Pre-serialized binary columns; the storage layer writes
            # bytes payloads verbatim.
            "index": self.index.to_bytes(),
        }
        for video_id, tree in self.trees.items():
            payloads[TREE_PREFIX + video_id] = scene_tree_to_dict(tree)
        return payloads

    def _publish_incremental(self, new_tree_id: str | None = None) -> None:
        """Commit the current state, rewriting as little as possible.

        Only the catalog, the index, and trees the current manifest
        does not already track (normally just the freshly ingested one)
        are serialized; every other tree is carried over by reference.
        """
        assert self._storage is not None
        manifest = self._storage.current_manifest()
        tracked = set(manifest.files) if manifest is not None else set()
        payloads: dict[str, Any] = {
            "catalog": self.catalog.to_dict(),
            "index": self.index.to_bytes(),
        }
        keep: list[str] = []
        for video_id, tree in self.trees.items():
            logical = TREE_PREFIX + video_id
            if video_id == new_tree_id or logical not in tracked:
                payloads[logical] = scene_tree_to_dict(tree)
            else:
                keep.append(logical)
        self._storage.publish(payloads, keep=keep)

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

        A bound database is durable: every :meth:`ingest` and
        :meth:`remove` commits to disk (staging write → fsync →
        manifest swap) before returning, so a crash between operations
        never loses an acknowledged one and a crash mid-operation is
        invisible after reload.  A root holding the pre-manifest layout
        raises :class:`~repro.errors.StorageError` (see :meth:`load`).
        """
        storage = DatabaseStorage(root, fs=fs)
        if storage.exists():
            db = cls.load(root, config=config, recover=recover, fs=fs)
            # A quarantined video's tree file is still on disk, rotted,
            # with an intact manifest digest; re-adopting the same
            # content must rewrite it rather than carry it over.
            for video_id in db.quarantined:
                storage.distrust(TREE_PREFIX + video_id)
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

        Every manifest-tracked file is verified (size + blake2s digest)
        before use.  A corrupt catalog or index always raises
        :class:`~repro.errors.StorageError` — there is no partial state
        worth serving without them.  A corrupt or missing scene tree
        raises too by default; with ``recover=True`` the affected
        video's catalog and index entries are dropped instead (its id
        is recorded in :attr:`quarantined`) and the rest of the
        database loads normally.  A root without a manifest (including
        the pre-manifest layout) or with a JSON index raises
        :class:`~repro.errors.StorageError`.

        Detection results (raw per-frame features) are not persisted;
        queries and browsing work immediately, while :meth:`shots`
        requires re-ingesting the raw clip.
        """
        storage = DatabaseStorage(root, fs=fs)
        manifest = storage.read_manifest()
        if manifest is None:
            raise StorageError(f"no database at {storage.root} (no manifest.json)")
        db = cls(config=config)
        db.catalog = Catalog.from_dict(storage.verified_json("catalog", manifest))
        index_bytes = storage.verified_bytes("index", manifest)
        try:
            db.index = ColumnarVarianceIndex.from_bytes(index_bytes)
        except IndexError_ as exc:
            raise StorageError(
                f"corrupt database file "
                f"{storage.root / manifest.files['index'].path}: {exc}"
            ) from exc
        bad: list[str] = []
        for video_id in db.catalog.ids():
            try:
                db.trees[video_id] = scene_tree_from_dict(
                    storage.verified_json(TREE_PREFIX + video_id, manifest)
                )
            except StorageError:
                if not recover:
                    raise
                bad.append(video_id)
        for video_id in bad:
            db.catalog.remove(video_id)
            db.index.remove_video(video_id)
            db.quarantined.append(video_id)
        return db
