"""A columnar, vectorized variance index — the query engine.

Eq. 7 is a range predicate on ``D^v``, so an index kept sorted by
``D^v`` locates the ``[D_q - alpha, D_q + alpha]`` band with two binary
searches and applies the Eq. 8 filter to the band only: ``O(log n +
band)`` instead of the ``O(n)`` table scan.  At 100k shots the
"uniquely suitable for large video databases" claim of Sec. 6 also
needs the band work itself to leave interpreter speed.

:class:`ColumnarVarianceIndex` packs the index into parallel numpy
arrays sorted by ``D^v``:

* ``var_ba``/``var_oa`` (float64) with derived ``d_v``/``sqrt_var_ba``
  columns — the Eq. 7/8 matching coordinates;
* ``shot_number``/``start_frame``/``end_frame`` (int32);
* interned video-id and archetype string tables (int32 codes), plus a
  lexicographic *rank* per video id so the string tie-break of
  ``VarianceQuery.rank_key`` is an integer comparison.

``range_scan`` becomes two :func:`numpy.searchsorted` calls, Eq. 8 a
boolean mask over the band, and ranking a vectorized distance plus an
:func:`numpy.lexsort` tie-break.  The engine is **decision-identical**
to the table scan :func:`repro.index.query.search`, the ground truth:
distances use the same correctly-rounded float64 operations
(``sqrt(dx*dx + dy*dy)``) as :meth:`VarianceQuery.rank_distance`, and
the lexsort keys mirror ``rank_key``'s ``(distance, d_v, sqrt_var_ba,
video_id, shot_number)`` total order exactly — the contract the
cluster scatter-gather merge relies on.

:meth:`search_batch` answers B impression queries as one
:class:`Matches` set: every query's ranked rows, gathered from the
columns at once — the engine room of ``VideoDatabase.query_batch``,
the cluster merge and the served payload, none of which builds a row
object.  :meth:`search` is a batch of one; its entries, and those an
in-process caller reads from a match set, are built by :meth:`_rows`.
The index holds no row objects.

Inserts append to a small pending buffer that is merged into the main
columns past a threshold (or on the first read), so per-shot insertion
costs O(1) instead of an O(n) array rebuild.  Readers call
:meth:`_prepare` first; the merge rebinds fresh arrays under a lock,
so concurrent readers (the service holds its read lock here) always
see a consistent snapshot.  Searches run one at a time, process-wide
(``_SEARCH_LOCK``): two at once only trade the GIL back and forth.

Persistence is a checksummed little-endian binary column format
(magic ``RVIX``), one video's rows per file: the tail of that video's
record (:mod:`repro.vdbms.storage`).  :meth:`video_rows` encodes every
video from the columns in one pass, :meth:`encode_rows` one video from
its entries, and :meth:`from_parts` concatenates the per-video columns
with O(columns) ``frombuffer`` reads and sorts once — no O(n) Python
object construction.
"""

from __future__ import annotations

import json
import math
import struct
import threading
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from hashlib import blake2s
from typing import Any, Collection, Iterable, Iterator, Sequence

import numpy as np

from ..config import QueryConfig
from ..errors import IndexError_
from ..features.vector import FeatureVector
from ..obs import current_trace as _current_trace
from .query import VarianceQuery
from .table import IndexEntry

__all__ = ["COLUMNAR_MAGIC", "ColumnarVarianceIndex", "Matches"]

#: First bytes of the binary column format.
COLUMNAR_MAGIC = b"RVIX"

#: Binary column format version ("version 1" was a JSON document,
#: which this build refuses).
_BINARY_VERSION = 2

#: magic, version, flags, n_entries, n_videos, n_archetypes, tables_len
_HEADER = struct.Struct("<4sHHQIII")

#: Trailing whole-file checksum (blake2s, raw digest).
_CHECKSUM_BYTES = 16

#: Pending inserts tolerated before a merge into the main columns.
_MERGE_THRESHOLD = 512

_INT32_MIN, _INT32_MAX = -(2**31), 2**31 - 1

#: Held by the reads that run numpy over the columns (each query of
#: :meth:`search_batch`, its gather, :meth:`entries_for`, :meth:`lookup`),
#: so two requests never search at once.  Each numpy call releases the GIL, so
#: two threads searching together hand it back and forth at every call
#: and take 1.6-2.1x the work of one thread; one at a time, a search
#: holds it ~0.1 ms.  Process-wide, because the GIL is.  Lock order: this
#: lock, then an index's own ``_lock`` (writers take only the latter).
_SEARCH_LOCK = threading.Lock()

#: (name, dtype) of the persisted columns, in file order.
_COLUMNS = (
    ("var_ba", "<f8"),
    ("var_oa", "<f8"),
    ("shot_number", "<i4"),
    ("start_frame", "<i4"),
    ("end_frame", "<i4"),
    ("video_idx", "<i4"),
    ("archetype_idx", "<i4"),
)

#: Bytes per row across the persisted columns.
_ROW_BYTES = sum(np.dtype(dtype).itemsize for _, dtype in _COLUMNS)

_NO_ROWS = np.empty(0, dtype=np.intp)

#: The numeric columns of a :class:`Matches` set, in record order.
_NUMERIC = (
    "shot_number", "start_frame", "end_frame", "var_ba", "var_oa", "sqrt_var_ba", "d_v"
)


def _checked(entry: IndexEntry) -> IndexEntry:
    """Reject entries whose ``D^v`` is NaN: NaN compares False against
    everything, so it would silently break the sort invariant and later
    range scans would drop arbitrary entries instead of failing."""
    if math.isnan(entry.d_v):
        raise IndexError_(
            f"entry {entry.shot_id} has NaN D^v "
            f"(Var^BA={entry.features.var_ba}, Var^OA={entry.features.var_oa}); "
            "NaN keys would corrupt the sorted index"
        )
    return entry


def _checked_int32(value: int, what: str) -> int:
    if not _INT32_MIN <= value <= _INT32_MAX:
        raise IndexError_(f"{what} {value} does not fit an int32 column")
    return value


def _first_appearance(
    codes: np.ndarray, table: list[str]
) -> tuple[np.ndarray, list[str]]:
    """Compact ``codes`` (indices into ``table``, -1 for none) to the
    table entries they use, renumbered by first appearance — so litter
    from removed videos never leaks into a file and equal rows encode
    to equal bytes."""
    used, first = np.unique(codes[codes >= 0], return_index=True)
    used = used[np.argsort(first, kind="stable")]
    remap = np.full(len(table) + 1, -1, dtype="<i4")  # [-1] stays -1
    remap[used] = np.arange(used.size, dtype="<i4")
    return remap[codes], [table[int(code)] for code in used]


def _encode(
    cols: dict[str, np.ndarray], videos: list[str], archetypes: list[str]
) -> bytes:
    """RVIX bytes of columns already in file order.

    Layout: header (magic ``RVIX``, version, counts, table length), a
    UTF-8 JSON blob with the used video-id/archetype tables, the seven
    columns, and a trailing blake2s-16 checksum over everything before
    it.  Deterministic: the string tables are compacted to the used
    codes in first-appearance order.
    """
    vid_col, video_table = _first_appearance(cols["video_idx"], videos)
    arch_col, arch_table = _first_appearance(cols["archetype_idx"], archetypes)
    tables = json.dumps({"videos": video_table, "archetypes": arch_table}).encode(
        "utf-8"
    )
    coded = {**cols, "video_idx": vid_col, "archetype_idx": arch_col}
    parts = [
        _HEADER.pack(
            COLUMNAR_MAGIC,
            _BINARY_VERSION,
            0,
            int(cols["var_ba"].shape[0]),
            len(video_table),
            len(arch_table),
            len(tables),
        ),
        tables,
    ]
    parts.extend(
        np.ascontiguousarray(coded[name], dtype=dtype).tobytes()
        for name, dtype in _COLUMNS
    )
    body = b"".join(parts)
    return body + blake2s(body, digest_size=_CHECKSUM_BYTES).digest()


@dataclass(eq=False, slots=True)
class Matches(SequenceABC):
    """Ranked matches of a batch of queries, as index rows.

    Query ``k``'s rows are ``offsets[k]:offsets[k + 1]``, most similar
    first: numpy arrays gathered from the index columns, with
    ``video_id`` and ``archetype`` taken from the intern tables.
    ``trees`` holds each row's packed scene tree, read by the database
    with the rows (None when not routed).  As a sequence, a match set is
    its queries' entry lists, built on first read by
    :meth:`ColumnarVarianceIndex._rows`.
    """

    offsets: list[int]
    video_id: list[str]
    shot_number: np.ndarray
    start_frame: np.ndarray
    end_frame: np.ndarray
    var_ba: np.ndarray
    var_oa: np.ndarray
    sqrt_var_ba: np.ndarray
    d_v: np.ndarray
    archetype: list[str | None]
    trees: list[Any] | None = None
    _lists: list[list] | None = field(default=None, init=False, repr=False)
    _entries: dict[int, list[IndexEntry]] = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def concat(cls, sets: Sequence[Matches]) -> Matches:
        """Every row of ``sets``, one set after another, as one query:
        the first step of a merge, which :meth:`take` finishes."""
        numeric = (np.concatenate([getattr(m, n) for m in sets] or [_NO_ROWS]) for n in _NUMERIC)
        video_id = [video for m in sets for video in m.video_id]
        archetype = [arch for m in sets for arch in m.archetype]
        trees = [tree for m in sets for tree in (m.trees or [None] * len(m.video_id))]
        return cls([0, len(video_id)], video_id, *numeric, archetype, trees)

    def take(self, rows: np.ndarray, offsets: list[int]) -> Matches:
        """The rows at positions ``rows``, split into queries at ``offsets``."""
        picks = rows.tolist()
        return Matches(
            offsets,
            [self.video_id[k] for k in picks],
            *(getattr(self, name)[rows] for name in _NUMERIC),
            [self.archetype[k] for k in picks],
            None if self.trees is None else [self.trees[k] for k in picks],
        )

    def records(self, k: int) -> Iterator[tuple]:
        """Query ``k``'s rows as Python values: ``(video_id, shot_number,
        start_frame, end_frame, var_ba, var_oa, sqrt_var_ba, d_v,
        archetype, tree)``, the columns converted once per match set."""
        if self._lists is None:
            self._lists = [
                self.video_id,
                *(getattr(self, name).tolist() for name in _NUMERIC),
                self.archetype,
                self.trees or [None] * len(self.video_id),
            ]
        lo, hi = self.offsets[k], self.offsets[k + 1]
        if lo == 0 and hi == len(self.video_id):
            return zip(*self._lists)
        return zip(*(column[lo:hi] for column in self._lists))

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, k: int) -> list[IndexEntry]:  # type: ignore[override]
        """Query ``k``'s matches as entries, built on the first read."""
        k = range(len(self))[k]
        if k not in self._entries:
            self._entries[k] = ColumnarVarianceIndex._rows(self, k)
        return self._entries[k]

    def __eq__(self, other: object) -> bool:
        return list(self) == list(other) if isinstance(other, SequenceABC) else NotImplemented


class ColumnarVarianceIndex:
    """Parallel numpy columns sorted by ``D^v``, with vectorized search
    and a binary column serialization.

    Args:
        entries: initial entries (any order; sorted internally).
    """

    def __init__(self, entries: Iterable[IndexEntry] = ()) -> None:
        self._lock = threading.Lock()
        # Interned string tables.  The tables only grow; codes in the
        # columns index into them.  ``_video_rank[code]`` is the video
        # id's position in lexicographic order (the rank_key tie-break),
        # rebuilt lazily after new ids are interned.
        self._video_ids: list[str] = []
        self._video_code: dict[str, int] = {}
        self._archetypes: list[str] = []
        self._archetype_code: dict[str, int] = {}
        self._video_rank = np.empty(0, dtype=np.int32)
        self._rank_dirty = False
        self._set_columns(
            {name: np.empty(0, dtype=dtype) for name, dtype in _COLUMNS}
        )
        #: Unsorted pending inserts, one row per column tuple.
        self._pending: list[tuple] = []
        for entry in entries:
            self.insert(entry)
        self._prepare()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _set_columns(self, cols: dict[str, np.ndarray]) -> None:
        """Rebind the main columns (plus derived ones) atomically-ish:
        each attribute assignment is atomic, and readers re-read them
        only after :meth:`_prepare` returns under the lock."""
        self._var_ba = cols["var_ba"]
        self._var_oa = cols["var_oa"]
        self._shot = cols["shot_number"]
        self._start = cols["start_frame"]
        self._end = cols["end_frame"]
        self._vid = cols["video_idx"]
        self._arch = cols["archetype_idx"]
        # Derived matching coordinates.  np.sqrt is correctly rounded
        # (IEEE 754), so these agree bit-for-bit with the math.sqrt
        # values the per-entry properties (IndexEntry.d_v) compute.
        self._sqrt_ba = np.sqrt(self._var_ba)
        self._d_v = self._sqrt_ba - np.sqrt(self._var_oa)
        # Row tie-ranks are derived lazily (first search) — rebinding
        # columns invalidates them.
        self._tie_rank: np.ndarray | None = None

    def _columns(self) -> dict[str, np.ndarray]:
        """The main columns by persisted name (``_COLUMNS`` order)."""
        return {
            "var_ba": self._var_ba,
            "var_oa": self._var_oa,
            "shot_number": self._shot,
            "start_frame": self._start,
            "end_frame": self._end,
            "video_idx": self._vid,
            "archetype_idx": self._arch,
        }

    def _intern_video(self, video_id: str) -> int:
        code = self._video_code.get(video_id)
        if code is None:
            code = len(self._video_ids)
            self._video_ids.append(video_id)
            self._video_code[video_id] = code
            self._rank_dirty = True
        return code

    def _intern_archetype(self, archetype: str | None) -> int:
        if archetype is None:
            return -1
        code = self._archetype_code.get(archetype)
        if code is None:
            code = len(self._archetypes)
            self._archetypes.append(archetype)
            self._archetype_code[archetype] = code
        return code

    def insert(self, entry: IndexEntry) -> None:
        """Insert one entry (O(1): appended to the pending buffer).

        Raises :class:`IndexError_` when the entry's ``D^v`` is NaN
        (which would break the sorted-column invariant) or a shot/frame
        number overflows the int32 columns.
        """
        _checked(entry)
        row = (
            float(entry.features.var_ba),
            float(entry.features.var_oa),
            _checked_int32(entry.shot_number, "shot number"),
            _checked_int32(entry.start_frame, "start frame"),
            _checked_int32(entry.end_frame, "end frame"),
            self._intern_video(entry.video_id),
            self._intern_archetype(entry.archetype),
        )
        self._pending.append(row)
        if len(self._pending) >= _MERGE_THRESHOLD:
            self._prepare()

    def _prepare(self) -> None:
        """Make the main columns complete and rank-ready for a read.

        Merges the pending buffer (stable sort: existing ties keep
        their order, pending ties follow in insertion order) and
        rebuilds the lexicographic video ranks if new ids were
        interned.  Guarded by a lock so concurrent readers racing the
        first read after an insert batch cannot interleave; columns are
        rebound, never mutated in place.
        """
        with self._lock:
            if self._pending:
                rows = self._pending
                fresh = {
                    name: np.array(
                        [row[k] for row in rows], dtype=dtype
                    )
                    for k, (name, dtype) in enumerate(_COLUMNS)
                }
                merged = {
                    name: np.concatenate([col, fresh[name]])
                    for name, col in self._columns().items()
                }
                d_v = np.sqrt(merged["var_ba"]) - np.sqrt(merged["var_oa"])
                order = np.argsort(d_v, kind="stable")
                self._set_columns(
                    {name: col[order] for name, col in merged.items()}
                )
                self._pending = []
            if self._rank_dirty:
                order = sorted(
                    range(len(self._video_ids)),
                    key=self._video_ids.__getitem__,
                )
                ranks = np.empty(len(order), dtype=np.int32)
                for rank, code in enumerate(order):
                    ranks[code] = rank
                self._video_rank = ranks
                self._rank_dirty = False
                # Video ranks feed the row tie-ranks.
                self._tie_rank = None

    def _tie_ranks(self) -> np.ndarray:
        """Per-row rank in the query-independent tie-break order.

        ``rank_key`` breaks distance ties by ``(d_v, sqrt_var_ba,
        video_id, shot_number)`` — a fixed total order on rows that
        does not depend on the query.  Precomputing each row's position
        in that order collapses the ranking sort from a five-key
        lexsort over the candidates to a sort on ``(distance,
        tie_rank)``.  Built on first use after a column rebind.
        """
        tie = self._tie_rank
        if tie is None:
            with self._lock:
                tie = self._tie_rank
                if tie is None:
                    n = self._var_ba.shape[0]
                    order = np.lexsort(
                        (
                            self._shot,
                            self._video_rank[self._vid],
                            self._sqrt_ba,
                            self._d_v,
                        )
                    )
                    tie = np.empty(n, dtype=np.int32)
                    tie[order] = np.arange(n, dtype=np.int32)
                    self._tie_rank = tie
        return tie

    def remove_video(self, video_id: str) -> int:
        """Drop every entry of one video; returns how many were removed."""
        code = self._video_code.get(video_id)
        if code is None:
            return 0
        self._prepare()
        mask = self._vid == code
        removed = int(mask.sum())
        if removed:
            keep = ~mask
            self._set_columns(
                {name: col[keep] for name, col in self._columns().items()}
            )
        return removed

    def __len__(self) -> int:
        return int(self._var_ba.shape[0]) + len(self._pending)

    def stats(self) -> dict[str, Any]:
        """Index shape summary for ``repro query --explain``.

        Read-only: reports the pending-buffer depth as-is instead of
        forcing a merge.  ``videos`` and ``archetypes`` count the codes
        the rows (merged or pending) reference — the intern tables only
        grow, so their lengths would still count removed videos."""
        rows = int(self._var_ba.shape[0])
        pending = list(self._pending)  # _COLUMNS tuples: [5] video, [6] archetype
        videos = set(np.unique(self._vid).tolist())
        videos.update(row[5] for row in pending)
        archetypes = set(np.unique(self._arch).tolist())
        archetypes.update(row[6] for row in pending)
        archetypes.discard(-1)
        stats: dict[str, Any] = {
            "rows": rows,
            "pending": len(pending),
            "videos": len(videos),
            "archetypes": len(archetypes),
            "merge_threshold": _MERGE_THRESHOLD,
        }
        if rows:
            # _d_v is sorted, so the endpoints are the Eq. 7 domain.
            stats["d_v_range"] = [float(self._d_v[0]), float(self._d_v[-1])]
            stats["sqrt_var_ba_max"] = float(self._sqrt_ba.max())
        return stats

    # ------------------------------------------------------------------
    # entry materialization
    # ------------------------------------------------------------------

    @staticmethod
    def _rows(matches: Matches, k: int = 0) -> list[IndexEntry]:
        """Query ``k``'s rows of a match set as entries: the one place
        index rows become :class:`IndexEntry` objects, for in-process
        callers (the served path writes its payload from the columns).
        Nothing is kept by the index, so memory does not grow with rows
        served."""
        # Positional arguments: keyword calls cost a dataclass __init__
        # about twice as much, and this runs for every row returned.
        return [
            IndexEntry(video_id, shot, start, end, FeatureVector(var_ba, var_oa), arch)
            for video_id, shot, start, end, var_ba, var_oa, _, _, arch, _ in (
                matches.records(k)
            )
        ]

    def _gather(self, rows: np.ndarray | slice, offsets: list[int] | None = None) -> Matches:
        """The column values at ``rows`` (positions or a slice) as a match
        set, split into queries at ``offsets`` (one query by default);
        video ids and archetypes come from the intern tables."""
        archetypes = self._archetypes + [None]  # code -1 is None
        shot = self._shot[rows]
        return Matches(
            offsets or [0, len(shot)],
            list(map(self._video_ids.__getitem__, self._vid[rows].tolist())),
            shot,
            self._start[rows],
            self._end[rows],
            self._var_ba[rows],
            self._var_oa[rows],
            self._sqrt_ba[rows],
            self._d_v[rows],
            list(map(archetypes.__getitem__, self._arch[rows].tolist())),
        )

    @property
    def entries(self) -> tuple[IndexEntry, ...]:
        """Every entry, in ``D^v`` order."""
        self._prepare()
        return tuple(self._rows(self._gather(slice(None))))

    def entries_for(self, video_id: str) -> list[IndexEntry]:
        """One video's entries in ``D^v`` order (vectorized filter)."""
        code = self._video_code.get(video_id)
        if code is None:
            return []
        with _SEARCH_LOCK:
            self._prepare()
            return self._rows(self._gather(np.nonzero(self._vid == code)[0]))

    def lookup(self, video_id: str, shot_number: int) -> IndexEntry | None:
        """One shot's entry, or None when absent."""
        code = self._video_code.get(video_id)
        if code is None:
            return None
        with _SEARCH_LOCK:
            self._prepare()
            hits = np.nonzero((self._vid == code) & (self._shot == shot_number))[0]
            return self._rows(self._gather(hits[:1]))[0] if hits.size else None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def _band(self, low: float, high: float) -> tuple[int, int]:
        """Index bounds of the Eq. 7 band (bisect semantics)."""
        if math.isnan(low) or math.isnan(high):
            raise IndexError_(f"range bounds must not be NaN, got [{low}, {high}]")
        if high < low:
            raise IndexError_(f"empty range [{low}, {high}]")
        lo = int(np.searchsorted(self._d_v, low, side="left"))
        hi = int(np.searchsorted(self._d_v, high, side="right"))
        return lo, hi

    def range_scan(self, low: float, high: float) -> list[IndexEntry]:
        """Entries with ``low <= D^v <= high`` (the Eq. 7 band)."""
        self._prepare()
        lo, hi = self._band(low, high)
        return self._rows(self._gather(slice(lo, hi)))

    def search(
        self,
        query: VarianceQuery,
        config: QueryConfig | None = None,
        limit: int | None = None,
        exclude_shot: tuple[str, int] | None = None,
    ) -> list[IndexEntry]:
        """Answer one impression query (same contract as the table scan
        :func:`repro.index.query.search`, decision-identical results):
        the entries of a batch of one (:meth:`search_batch`)."""
        return self._rows(self.search_batch([query], config, limit, [exclude_shot]))

    def search_batch(
        self,
        queries: Sequence[VarianceQuery],
        config: QueryConfig | None = None,
        limit: int | None = None,
        exclude_shots: Sequence[tuple[str, int] | None] | None = None,
        videos: Collection[str] | None = None,
    ) -> Matches:
        """Answer B impression queries as one match set: per query, the
        ranking of the table scan :func:`repro.index.query.search`.

        Two searchsorted calls find every query's Eq. 7 band; per query,
        Eq. 8 is a mask over the band (:meth:`_rank`); the ranked rows of
        the batch are then gathered at once.  A batch of one is traced
        as the ``index.search`` it is, a larger one as one
        ``index.search_batch`` span with the queries' counts summed.

        Args:
            queries: the impression queries.
            config: shared alpha/beta tolerances.
            limit: per-query top-k cap (None = full ranking).
            exclude_shots: optional per-query ``(video_id,
                shot_number)`` exclusions, aligned with ``queries``.
            videos: when given, only rows of these videos match (a
                category scope), masked before the top-k prune.
        """
        n_queries = len(queries)
        if exclude_shots is not None and len(exclude_shots) != n_queries:
            raise IndexError_(
                f"{len(exclude_shots)} exclusions for {n_queries} queries"
            )
        excludes = exclude_shots if exclude_shots is not None else [None] * n_queries
        config = config or QueryConfig()
        ctx = _current_trace()
        name = "index.search" if n_queries == 1 else "index.search_batch"
        span = ctx.begin(name) if ctx is not None else None
        band_rows = candidates = 0
        ranked: list[np.ndarray] = []
        offsets = [0]
        try:
            with _SEARCH_LOCK:
                pending = len(self._pending)
                self._prepare()
                lows = [query.d_v - config.alpha for query in queries]
                highs = [query.d_v + config.alpha for query in queries]
                los = self._d_v.searchsorted(lows, side="left").tolist()
                his = self._d_v.searchsorted(highs, side="right").tolist()
                scope = None
                if videos is not None:
                    scope = np.zeros(len(self._video_ids), dtype=bool)
                    scope[[self._video_code[v] for v in videos if v in self._video_code]] = True
            for query, exclude, lo, hi in zip(queries, excludes, los, his):
                with _SEARCH_LOCK:
                    rows, matched = self._rank(query, config, limit, exclude, scope, lo, hi)
                ranked.append(rows)
                offsets.append(offsets[-1] + rows.size)
                band_rows += hi - lo
                candidates += matched
            with _SEARCH_LOCK:
                rows = ranked[0] if n_queries == 1 else np.concatenate(ranked or [_NO_ROWS])
                matches = self._gather(rows, offsets)
            if span is not None:
                # Annotations only echo values already computed above —
                # the traced and untraced paths take identical decisions.
                if n_queries == 1:
                    span.annotate(band_low=lows[0], band_high=highs[0])
                else:
                    span.annotate(n_queries=n_queries)
                span.annotate(band_rows=band_rows, pending_merged=pending)
                span.annotate(candidates=candidates, pruned=band_rows - candidates)
                span.annotate(returned=len(rows))
            return matches
        finally:
            if span is not None:
                span.end()

    def _rank(
        self, query: VarianceQuery, config: QueryConfig, limit: int | None,
        exclude: tuple[str, int] | None, scope: np.ndarray | None, lo: int, hi: int,
    ) -> tuple[np.ndarray, int]:
        """One query's ranked row positions in its band ``lo:hi``, and
        how many rows passed its masks (the Eq. 8 candidates)."""
        if lo >= hi:
            return _NO_ROWS, 0
        q_dv, q_sba = query.d_v, query.sqrt_var_ba
        sba = self._sqrt_ba[lo:hi]
        mask = (sba >= q_sba - config.beta) & (sba <= q_sba + config.beta)
        if exclude is not None:
            ex_code = self._video_code.get(exclude[0], -1)
            if ex_code >= 0:
                mask &= ~((self._vid[lo:hi] == ex_code) & (self._shot[lo:hi] == exclude[1]))
        if scope is not None:
            mask &= scope[self._vid[lo:hi]]
        cand = mask.nonzero()[0]
        matched = int(cand.size)
        if not matched:
            return _NO_ROWS, 0
        cand += lo
        dx = q_dv - self._d_v[cand]
        dy = q_sba - self._sqrt_ba[cand]
        dist = np.sqrt(dx * dx + dy * dy)
        if limit is not None and 0 < limit < cand.size:
            # Top-k prune before the ranking sort: keep everything tied
            # with the k-th smallest distance (ties at the bar are
            # resolved by the tie-rank sort below), so the result is
            # exactly the first k of the full ranking.
            bar = np.partition(dist, limit - 1)[limit - 1]
            keep = dist <= bar
            cand = cand[keep]
            dist = dist[keep]
        tie = self._tie_ranks()[cand]
        # (distance, tie_rank) via two argsorts — tie_rank is unique
        # per row (no stability needed on the first pass), so this
        # reproduces the full rank_key order.
        ord0 = tie.argsort()
        order = ord0[dist[ord0].argsort(kind="stable")]
        if limit is not None:
            order = order[:limit]
        return cand[order], matched

    # ------------------------------------------------------------------
    # binary column persistence
    # ------------------------------------------------------------------

    def video_rows(self) -> Iterator[tuple[str, bytes]]:
        """Every video's rows as its own RVIX file, in one pass.

        Rows are grouped by video and put in the canonical order
        ``(D^v, shot_number)``, so a video's bytes depend only on its
        rows — not on insertion history or on the other videos — and
        equal :meth:`encode_rows` of the same entries.  Yields
        ``(video_id, bytes)`` in video-code order.
        """
        self._prepare()
        if not self._var_ba.shape[0]:
            return
        order = np.lexsort((self._shot, self._d_v, self._vid))
        bounds = np.flatnonzero(np.diff(self._vid[order])) + 1
        cols = self._columns()
        for rows in np.split(order, bounds):
            video_id = self._video_ids[int(self._vid[rows[0]])]
            yield video_id, _encode(
                {name: col[rows] for name, col in cols.items()},
                self._video_ids,
                self._archetypes,
            )

    @classmethod
    def encode_rows(cls, entries: Iterable[IndexEntry]) -> bytes:
        """One video's entries as RVIX bytes, canonical order (see
        :meth:`video_rows`); raises :class:`IndexError_` when the
        entries span several videos."""
        index = cls(entries)
        encoded = [data for _, data in index.video_rows()]
        if len(encoded) > 1:
            raise IndexError_(f"rows of {len(encoded)} videos in one record")
        return encoded[0] if encoded else _encode(index._columns(), [], [])

    @classmethod
    def from_parts(
        cls, parts: Iterable[tuple[str, bytes]]
    ) -> "ColumnarVarianceIndex":
        """Build from per-video RVIX files, ``(video_id, bytes)`` each.

        Every part is validated (and must hold rows of its video only);
        its columns are appended to one buffer per column, and the
        index is then sorted once by ``D^v`` — how a database opens its
        record files without building ``IndexEntry`` objects.  Parts
        are consumed lazily and not retained, so a caller streaming
        files never holds more than one file's bytes.
        """
        index = cls()
        buffers = {name: bytearray() for name, _ in _COLUMNS}
        for video_id, data in parts:
            videos, archetypes, cols = cls._parse_binary(data)
            if videos not in ([], [video_id]):
                raise IndexError_(f"rows of {videos!r} filed under {video_id!r}")
            # Trailing -1 maps "no archetype" (code -1) to itself.
            amap = np.array(
                [index._intern_archetype(a) for a in archetypes] + [-1], dtype="<i4"
            )
            cols["video_idx"] = np.full(
                cols["video_idx"].shape, index._intern_video(video_id), dtype="<i4"
            )
            cols["archetype_idx"] = amap[cols["archetype_idx"]]
            for name, col in cols.items():
                buffers[name] += col.tobytes()
        if buffers["var_ba"]:
            var_ba = np.frombuffer(buffers["var_ba"], dtype="<f8")
            var_oa = np.frombuffer(buffers["var_oa"], dtype="<f8")
            cls._check_variances(var_ba, var_oa)
            order = np.argsort(np.sqrt(var_ba) - np.sqrt(var_oa), kind="stable")
            del var_ba, var_oa
            # Sort one column at a time, freeing its buffer as it goes:
            # the open's peak memory stays near one copy of the rows.
            merged = {}
            for name, dtype in _COLUMNS:
                col = np.frombuffer(buffers.pop(name), dtype=dtype)[order]
                merged[name] = col.astype(np.dtype(dtype).newbyteorder("="), copy=False)
            index._set_columns(merged)
        index._prepare()
        return index

    @staticmethod
    def _parse_binary(
        data: bytes,
    ) -> tuple[list[str], list[str], dict[str, np.ndarray]]:
        """Validate the binary layout and return (tables, columns).

        Raises :class:`IndexError_` on any structural problem — torn
        tail, checksum mismatch, bad counts, out-of-range codes.  The
        variances are checked once on the merged rows
        (:meth:`from_parts`).
        """
        if len(data) < _HEADER.size + _CHECKSUM_BYTES:
            raise IndexError_(
                f"binary index truncated: {len(data)} bytes is shorter "
                "than the fixed header"
            )
        magic, version, _flags, n, n_videos, n_arch, tables_len = _HEADER.unpack_from(
            data
        )
        if magic != COLUMNAR_MAGIC:
            raise IndexError_(f"bad binary index magic {magic!r}")
        if version != _BINARY_VERSION:
            raise IndexError_(
                f"unsupported binary index version {version} "
                f"(this build reads {_BINARY_VERSION})"
            )
        expected = _HEADER.size + tables_len + n * _ROW_BYTES + _CHECKSUM_BYTES
        if len(data) != expected:
            raise IndexError_(
                f"binary index is {len(data)} bytes, header implies "
                f"{expected} (torn write?)"
            )
        body, checksum = data[:-_CHECKSUM_BYTES], data[-_CHECKSUM_BYTES:]
        if blake2s(body, digest_size=_CHECKSUM_BYTES).digest() != checksum:
            raise IndexError_("binary index checksum mismatch (corrupt file)")
        try:
            tables = json.loads(
                data[_HEADER.size : _HEADER.size + tables_len].decode("utf-8")
            )
            videos = list(tables["videos"])
            archetypes = list(tables["archetypes"])
        except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as exc:
            raise IndexError_(f"corrupt binary index string tables: {exc}") from exc
        if len(videos) != n_videos or len(archetypes) != n_arch:
            raise IndexError_(
                "binary index string tables disagree with the header counts"
            )
        cols: dict[str, np.ndarray] = {}
        offset = _HEADER.size + tables_len
        for name, dtype in _COLUMNS:
            col = np.frombuffer(data, dtype=dtype, count=n, offset=offset)
            cols[name] = col
            offset += col.nbytes
        if n:
            vid = cols["video_idx"]
            if vid.min() < 0 or vid.max() >= n_videos:
                raise IndexError_("binary index video codes out of range")
            arch = cols["archetype_idx"]
            if arch.min() < -1 or arch.max() >= n_arch:
                raise IndexError_("binary index archetype codes out of range")
        return videos, archetypes, cols

    @staticmethod
    def _check_variances(var_ba: np.ndarray, var_oa: np.ndarray) -> None:
        """Reject NaN or negative variances, and NaN ``D^v`` keys."""
        if np.isnan(var_ba).any() or np.isnan(var_oa).any():
            raise IndexError_("binary index contains NaN variances")
        if (var_ba < 0).any() or (var_oa < 0).any():
            raise IndexError_("binary index contains negative variances")
        d_v = np.sqrt(var_ba) - np.sqrt(var_oa)
        if np.isnan(d_v).any():
            raise IndexError_("binary index contains NaN D^v keys")
