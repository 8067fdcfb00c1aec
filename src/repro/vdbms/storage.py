"""On-disk layout of a video database, with crash-safe publishing.

    <root>/
      manifest.json                  the checkpoint (see vdbms.manifest)
      deltas/manifest-g<N>.json      one delta per publish since it
      records/<id>-g<N>.rvr          one record per video: catalog
                                     entry, scene tree, index rows
      staging/                       in-flight writes (pid + counter names)
      quarantine/                    where fsck --repair moves bad files

The video is the unit of storage and of commit.  Every publish goes
through :meth:`DatabaseStorage.publish`: the changed videos' records
are written to uniquely-named staging files, fsynced, and renamed to
fresh generation-suffixed names; only then does one small delta (or,
when the deltas since the last checkpoint would outgrow it, a new
``manifest.json`` checkpoint) get renamed into place — the commit
point.  A crash at *any* point leaves the previous chain in force, so
the previous database loads intact; leftover unreferenced files are
garbage-collected by the next successful publish or by ``repro fsck``.

A record's bytes are a pure function of the video (no generation, path
or shard inside), so every replica of a video is byte-identical and
the manifest digest is the video's fingerprint.

Loads verify every tracked file's size and blake2s digest before
parsing, so torn or bit-flipped files surface as a precise
:class:`~repro.errors.StorageIntegrityError` instead of wrong answers.

Two older layouts are refused, never read, written or deleted: a
version-2 directory (``catalog-g<N>.json`` + ``index-g<N>.bin`` +
``trees/<id>-g<N>.json`` behind a version-2 manifest) and the
pre-manifest layout (bare ``catalog.json`` + ``index.json`` +
``trees/<id>.json``).  Load, open and publish raise
:class:`~repro.errors.StorageError` naming the way to migrate, and
fsck reports the directory as not clean.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import re
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from ..errors import IndexError_, StorageError, StorageIntegrityError
from ..index.columnar import ColumnarVarianceIndex
from ..scenetree.serialize import PackedTree
from .catalog import CatalogEntry
from .fsio import LocalFS
from .manifest import RECORD_PREFIX, FileRecord, Manifest, digest_bytes

__all__ = [
    "DatabaseStorage",
    "FileCheck",
    "FsckReport",
    "parse_record",
    "record_bytes",
]

#: Process-wide staging-name counter; combined with the pid it makes
#: every staging file unique, so concurrent saves (or a crashed one's
#: litter) can never collide with a live write.
_STAGING_COUNTER = itertools.count(1)

#: The generation-suffixed names this build writes: the only files
#: publish may sweep and fsck may call untracked.  Names of the refused
#: layouts never match.
_RECORD_NAME = re.compile(r".+-g\d{8,}\.rvr")
_DELTA_NAME = re.compile(r"manifest-g(\d{8,})\.json")

#: Record file header: magic, format version, flags, metadata length.
_RECORD_MAGIC = b"RVRC"
_RECORD_VERSION = 1
_RECORD_HEADER = struct.Struct("<4sHHI")

def _safe_id(video_id: str) -> str:
    """File-system-safe, collision-free rendering of a video id.

    Sanitizing alone is not injective — distinct ids like ``a/b`` and
    ``a_b`` both sanitize to ``a_b`` and would silently overwrite each
    other's files.  A short content hash of the *raw* id is therefore
    always appended, so two ids share a filename only on a blake2s
    collision, while the sanitized prefix keeps filenames readable.
    """
    sanitized = "".join(
        c if c.isalnum() or c in "-_ ." else "_" for c in video_id
    )
    digest = hashlib.blake2s(video_id.encode("utf-8"), digest_size=4).hexdigest()
    return f"{sanitized}-{digest}"


def _json_bytes(payload: dict[str, Any]) -> bytes:
    return json.dumps(payload).encode("utf-8")


# ----------------------------------------------------------------------
# the record file
# ----------------------------------------------------------------------


def record_bytes(entry: CatalogEntry, tree: PackedTree, rows: bytes) -> bytes:
    """One video's record file: header, a compact JSON document with
    the catalog entry and scene-tree document, then the video's index
    rows in the RVIX column codec (``ColumnarVarianceIndex.encode_rows``
    or ``video_rows``).  A pure function of its inputs."""
    meta = json.dumps(
        {"entry": entry.to_dict(), "tree": tree.document()},
        separators=(",", ":"),
    ).encode("utf-8")
    header = _RECORD_HEADER.pack(_RECORD_MAGIC, _RECORD_VERSION, 0, len(meta))
    return header + meta + rows


def parse_record(data: bytes) -> tuple[CatalogEntry, PackedTree, bytes]:
    """Decode a record file (see :func:`record_bytes`) into its catalog
    entry, packed scene tree and index rows (RVIX bytes, validated when
    they are loaded: ``ColumnarVarianceIndex.from_parts``).

    Raises :class:`StorageError` on a structural defect: bad magic or
    version, a torn metadata block, or malformed metadata, an invalid
    tree included (:meth:`PackedTree.from_document`).
    """
    if len(data) < _RECORD_HEADER.size:
        raise StorageError(f"record truncated: {len(data)} bytes")
    magic, version, _flags, meta_len = _RECORD_HEADER.unpack_from(data)
    if magic != _RECORD_MAGIC:
        raise StorageError(f"bad record magic {magic!r}")
    if version != _RECORD_VERSION:
        raise StorageError(f"unsupported record version {version}")
    end = _RECORD_HEADER.size + meta_len
    if end > len(data):
        raise StorageError("record metadata runs past the end of the file")
    try:
        meta = json.loads(data[_RECORD_HEADER.size:end])
        entry = CatalogEntry.from_dict(meta["entry"])
        tree = PackedTree.from_document(meta["tree"])
    except Exception as exc:
        raise StorageError(f"corrupt record metadata: {exc}") from exc
    return entry, tree, data[end:]


def _parse_tracked_record(
    logical: str, record: FileRecord, data: bytes
) -> tuple[CatalogEntry, PackedTree, bytes]:
    """:func:`parse_record` of a tracked file, plus the check that it
    holds the video its logical name (``video:<id>``) says."""
    entry, tree, rows = parse_record(data)
    if RECORD_PREFIX + entry.video_id != logical:
        raise StorageError(
            f"{record.path} holds {entry.video_id!r}, not {logical!r}"
        )
    return entry, tree, rows


# ----------------------------------------------------------------------
# fsck report
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class FileCheck:
    """The verdict on one tracked file.

    ``status`` is one of ``ok``, ``missing``, ``size-mismatch``,
    ``checksum-mismatch``, ``corrupt-json``, ``corrupt-binary``, and
    ``unsupported`` (a version-2 manifest).
    """

    logical: str
    path: str
    status: str
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form of this check (for ``fsck --json``)."""
        return {
            "logical": self.logical,
            "path": self.path,
            "status": self.status,
            "detail": self.detail,
        }


@dataclass(slots=True)
class FsckReport:
    """Everything ``repro fsck`` learned about one database directory.

    ``mode`` is ``manifest`` (normal), ``version-2`` or
    ``pre-manifest`` (the refused layouts; never clean, never
    repaired), or ``empty`` (no database at all).  ``untracked`` lists
    managed-
    looking files the manifest does not reference — harmless litter from
    a torn publish, removable with ``--repair``.
    """

    root: str
    mode: str
    generation: int | None = None
    checks: list[FileCheck] = field(default_factory=list)
    untracked: list[str] = field(default_factory=list)

    def problems(self) -> list[FileCheck]:
        """Checks that failed (untracked litter is not a problem)."""
        return [check for check in self.checks if not check.ok]

    @property
    def clean(self) -> bool:
        return self.mode != "empty" and not self.problems()

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form of the report (for ``fsck --json``)."""
        return {
            "root": self.root,
            "mode": self.mode,
            "generation": self.generation,
            "clean": self.clean,
            "checks": [check.to_dict() for check in self.checks],
            "untracked": list(self.untracked),
        }


# ----------------------------------------------------------------------
# storage
# ----------------------------------------------------------------------


@dataclass(slots=True)
class _Chain:
    """The manifest chain on disk: the checkpoint's size, and the live
    deltas after it (paths and total bytes)."""

    checkpoint_bytes: int = 0
    delta_bytes: int = 0
    deltas: list[Path] = field(default_factory=list)


class _ChainError(StorageError):
    """An unreadable manifest chain, or a refused layout; names the
    file, its fsck status and the fsck mode."""

    def __init__(
        self, message: str, path: str, status: str, mode: str = "manifest"
    ) -> None:
        super().__init__(message)
        self.path = path
        self.status = status
        self.mode = mode


def _refused(root: Path, layout: str, mode: str, status: str) -> _ChainError:
    """The error for a layout this build neither reads nor touches."""
    return _ChainError(
        f"{root} holds {layout}, which this build does not read; migrate "
        "it by opening the database and saving it once with an earlier "
        "build that still reads that layout",
        "manifest.json",
        status,
        mode,
    )


class DatabaseStorage:
    """Reads and writes one database directory.

    Args:
        root: the database directory.
        fs: filesystem backend for the write path (fault-injection
            seam; the real filesystem when omitted).
    """

    def __init__(self, root: str | Path, fs: LocalFS | None = None) -> None:
        self.root = Path(root)
        self.fs = fs if fs is not None else LocalFS()
        # The manifest (and chain) this object committed last (publish
        # fast path).
        self._committed: Manifest | None = None
        self._chain = _Chain()
        # A generation whose commit file may be on disk although its
        # publish failed and so did the repair checkpoint after it: the
        # next publish writes a checkpoint past it.
        self._floor = 0

    # ------------------------------------------------------------------
    # layout helpers
    # ------------------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.root / "manifest.json"

    @property
    def deltas_dir(self) -> Path:
        return self.root / "deltas"

    @property
    def staging_dir(self) -> Path:
        return self.root / "staging"

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    def record_path(self, video_id: str) -> Path | None:
        """The committed record file of one video, or None."""
        manifest = self.read_manifest()
        if manifest is None:
            return None
        record = manifest.files.get(RECORD_PREFIX + video_id)
        return self.root / record.path if record is not None else None

    def _target_relpath(self, logical: str, generation: int) -> str:
        """Where a freshly-written record of one publish lives."""
        if not logical.startswith(RECORD_PREFIX):
            raise StorageError(f"unknown logical file {logical!r}")
        video_id = logical[len(RECORD_PREFIX):]
        return f"records/{_safe_id(video_id)}-g{generation:08d}.rvr"

    def _delta_path(self, generation: int) -> Path:
        return self.deltas_dir / f"manifest-g{generation:08d}.json"

    def _staging_path(self, name: str) -> Path:
        """A write target no other save (live or crashed) can collide
        with: pid + process-wide counter + the final file's name."""
        return self.staging_dir / f"{os.getpid()}-{next(_STAGING_COUNTER):06d}-{name}"

    def initialize(self) -> None:
        """Create the directory skeleton."""
        for directory in ("records", "deltas", "staging"):
            self.fs.mkdir(self.root / directory)

    def exists(self) -> bool:
        """True when the root holds a saved database; raises
        :class:`StorageError` on the pre-manifest layout instead of
        calling it empty."""
        self._refuse_pre_manifest()
        return self.manifest_path.exists()

    def _refuse_pre_manifest(self) -> None:
        """Raise :class:`StorageError` when the root holds the
        pre-manifest layout (a bare ``catalog.json``, no manifest): this
        build does not read it, and a publish into it would sweep it."""
        if (self.root / "catalog.json").exists() and not self.manifest_path.exists():
            raise _refused(
                self.root,
                "the pre-manifest layout (catalog.json without manifest.json)",
                "pre-manifest",
                "missing",
            )

    # ------------------------------------------------------------------
    # manifest I/O
    # ------------------------------------------------------------------

    def read_manifest(self) -> Manifest | None:
        """The committed manifest — checkpoint plus deltas, folded — or
        None for an empty directory.

        Raises :class:`StorageError` when the checkpoint or a delta
        cannot be parsed, or a delta is missing from the chain — that
        is real corruption, because every commit is atomic — and on the
        refused layouts (version 2, pre-manifest).
        """
        return self._read_chain()[0]

    def _delta_files(self) -> list[tuple[int, Path]]:
        """Every delta file on disk, by generation."""
        if not self.deltas_dir.is_dir():
            return []
        found = []
        for path in self.deltas_dir.iterdir():
            match = _DELTA_NAME.fullmatch(path.name)
            if match is not None:
                found.append((int(match.group(1)), path))
        return sorted(found)

    def _read_json(self, path: Path, what: str) -> tuple[bytes, dict[str, Any]]:
        relpath = path.relative_to(self.root).as_posix()
        try:
            data = path.read_bytes()
            payload = json.loads(data)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise _ChainError(
                f"corrupt {what} {path}: {exc}", relpath, "corrupt-json"
            ) from exc
        if not isinstance(payload, dict):
            raise _ChainError(
                f"corrupt {what} {path}: not an object", relpath, "corrupt-json"
            )
        return data, payload

    def _read_chain(self) -> tuple[Manifest | None, _Chain]:
        """Read the checkpoint, then the deltas after it in generation
        order.  Deltas at or below the checkpoint's generation were
        folded into it (litter a crash left before their deletion)."""
        if not self.manifest_path.exists():
            self._refuse_pre_manifest()
            return None, _Chain()
        data, payload = self._read_json(self.manifest_path, "manifest")
        if payload.get("version") == 2:
            raise _refused(
                self.root,
                "manifest version 2 (one catalog, one index and one tree "
                "file per video)",
                "version-2",
                "unsupported",
            )
        try:
            manifest = Manifest.from_dict(payload)
        except StorageError as exc:
            raise _ChainError(
                str(exc), self.manifest_path.name, "corrupt-json"
            ) from exc
        chain = _Chain(checkpoint_bytes=len(data))
        for generation, path in self._delta_files():
            if generation <= manifest.generation:
                continue
            if generation != manifest.generation + 1:
                missing = self._delta_path(manifest.generation + 1)
                raise _ChainError(
                    f"manifest chain broken: {missing.name} is missing "
                    f"but {path.name} exists",
                    missing.relative_to(self.root).as_posix(),
                    "missing",
                )
            data, payload = self._read_json(path, "manifest delta")
            try:
                manifest.apply_delta(payload)
            except StorageError as exc:
                raise _ChainError(
                    f"corrupt manifest delta {path}: {exc}",
                    path.relative_to(self.root).as_posix(),
                    "corrupt-json",
                ) from exc
            chain.delta_bytes += len(data)
            chain.deltas.append(path)
        return manifest, chain

    def current_manifest(self) -> Manifest | None:
        """The committed manifest: read from disk once, then kept, since
        the object this is called on is its root's only writer (see
        :meth:`publish`)."""
        if self._committed is None:
            manifest, chain = self._read_chain()
            if manifest is not None:
                self._committed, self._chain = manifest, chain
            return manifest
        return self._committed

    # ------------------------------------------------------------------
    # digest enumeration (reconciler / scrubber API)
    # ------------------------------------------------------------------

    def tracked_records(self) -> dict[str, "FileRecord"]:
        """Logical name -> committed :class:`FileRecord`, from the
        current manifest.

        The cluster scrubber walks these; two shards compare one video
        by the ``blake2s`` each side's manifest records for
        ``video:<id>`` (:meth:`video_digest`) — no file reads, no
        re-hashing.  Empty for unsaved roots.
        """
        manifest = self.current_manifest()
        if manifest is None:
            return {}
        return dict(manifest.files)

    def video_digest(self, video_id: str) -> str | None:
        """The committed blake2s of one video's record file, or None
        when the manifest does not track that video (one lookup)."""
        manifest = self.current_manifest()
        if manifest is None:
            return None
        record = manifest.files.get(RECORD_PREFIX + video_id)
        return record.blake2s if record is not None else None

    def check_tracked(self, logical: str) -> "FileCheck":
        """Re-verify one tracked file against its manifest digest *now*
        (the integrity scrubber's primitive).  Never raises: problems
        come back as the :class:`FileCheck` status, exactly like
        :meth:`fsck` rows."""
        manifest = self.current_manifest()
        record = None if manifest is None else manifest.files.get(logical)
        if record is None:
            return FileCheck(
                logical=logical,
                path="",
                status="missing",
                detail=f"manifest tracks no file for {logical!r}",
            )
        status, detail = self._check_record(logical, record)
        return FileCheck(
            logical=logical, path=record.path, status=status, detail=detail
        )

    # ------------------------------------------------------------------
    # the publish protocol
    # ------------------------------------------------------------------

    def publish(
        self, records: dict[str, bytes], drop: Iterable[str] = ()
    ) -> Manifest:
        """Atomically commit a change of the database state.

        Args:
            records: logical name (``video:<id>``) → record bytes; each
                is written to a fresh file, and the new state tracks it.
            drop: logical names the new state no longer tracks (their
                files are deleted after the commit).  Every other
                record is carried over by reference.

        With nothing to write or drop the current manifest is returned
        untouched, generation included.  The commit is one small delta
        file, or a new ``manifest.json`` checkpoint when there is none
        yet or the deltas since it would hold more bytes than it does.

        A failure raises :class:`StorageError` once the previous state
        is back in force on disk: past the commit file's rename, by
        committing that state again as a checkpoint.  It unlinks its
        staged files, and the records it renamed into place unless that
        repair failed (the commit may then still be in force).
        """
        # Single-writer fast path: after the first publish this object
        # is the only writer of the root (the engine's/shard's write
        # lock enforces that), so the chain it committed last time is
        # still the one on disk — no need to re-read and re-parse it on
        # every ingest.  Independent reader objects always see disk
        # (read_manifest itself never caches), and refuse a
        # pre-manifest root before anything is created in it.
        if self._committed is not None:
            old, chain = self._committed, self._chain
        else:
            old, chain = self._read_chain()
        self.initialize()
        old_files = dict(old.files) if old is not None else {}
        generation = max(old.generation if old is not None else 0, self._floor) + 1

        changed = {
            logical: FileRecord(
                path=self._target_relpath(logical, generation),
                blake2s=digest_bytes(data),
                n_bytes=len(data),
            )
            for logical, data in records.items()
        }
        dropped = [
            logical
            for logical in dict.fromkeys(drop)
            if logical in old_files and logical not in records
        ]
        checkpoint = old is None or self._floor > 0
        if not (changed or dropped or checkpoint):
            self._committed, self._chain = old, chain
            return old

        # Files the new state no longer references: garbage once it is
        # committed.  Found from the old records, never by name.
        stale = [old_files.pop(logical).path for logical in dropped]
        stale.extend(old_files[l].path for l in changed if l in old_files)
        old_files.update(changed)
        manifest = Manifest(generation=generation, files=old_files)
        commit = _json_bytes(Manifest.delta(generation, changed, dropped))
        if checkpoint or chain.delta_bytes + len(commit) > chain.checkpoint_bytes:
            checkpoint = True
            commit = _json_bytes(manifest.to_dict())
            target = self.manifest_path
        else:
            target = self._delta_path(generation)
        staged: list[Path] = []
        placed: list[Path] = []
        renamed = False
        try:
            # Stage every record first, then sync, then rename: the
            # first fsync's journal commit typically carries the other
            # staged writes along, so a publish costs ~one data flush
            # instead of one per file.  Nothing is visible until the
            # commit file is renamed into place below.
            renames: list[tuple[Path, Path]] = []
            for logical, data in records.items():
                final = self.root / changed[logical].path
                stage = self._staging_path(final.name)
                self.fs.write_bytes(stage, data)
                staged.append(stage)
                renames.append((stage, final))
            for stage, _ in renames:
                self.fs.fsync(stage)
            for stage, final in renames:
                self.fs.replace(stage, final)
                staged.remove(stage)
                placed.append(final)
            if renames:
                self.fs.fsync_dir(self.root / "records")
            # The commit point: everything before this is invisible to
            # load(); everything after is cleanup.
            stage = self._staging_path(target.name)
            self.fs.write_bytes(stage, commit)
            staged.append(stage)
            self.fs.fsync(stage)
            self.fs.replace(stage, target)
            renamed = True
            staged.pop()
            self.fs.fsync_dir(target.parent)
        except OSError as exc:
            # The save failed but the process lives on.  Unless the
            # commit file was renamed, the old chain is still in force.
            if renamed:
                # The commit may survive, yet the caller rolls back:
                # recommit the old state as a checkpoint past it.  That
                # sets and drops nothing, so it needs no repair itself;
                # if it fails, _floor makes the next publish one.
                self._floor = generation
                self._committed = old if old is not None else Manifest(generation=0)
                self._chain = chain
                if changed or dropped:
                    with contextlib.suppress(StorageError):
                        self.publish({})
            # Drop our litter so a retry starts clean: the staged files,
            # and the placed records unless the repair failed.
            if not (renamed and self._floor):
                staged += placed
            for stage in staged:
                try:
                    self.fs.unlink(stage)
                except OSError:
                    pass
            raise StorageError(f"publish failed: {exc}") from exc
        self._floor = 0
        if checkpoint:
            chain = _Chain(checkpoint_bytes=len(commit))
        else:
            chain = _Chain(
                chain.checkpoint_bytes,
                chain.delta_bytes + len(commit),
                [*chain.deltas, target],
            )
        self._committed, self._chain = manifest, chain
        self._collect_garbage(manifest, None if old is None else stale, checkpoint)
        return manifest

    def _collect_garbage(
        self, manifest: Manifest, stale: list[str] | None, checkpoint: bool
    ) -> None:
        """Delete files the committed chain does not reference.

        The only garbage a successful publish can create is ``stale``
        — the files of the records it dropped or replaced — the deltas
        a checkpoint folded in, and staging litter: cost scales with
        what the publish changed, not a directory scan.  ``stale=None`` (the first publish, with no
        superseded manifest) falls back to sweeping every file this
        build writes.  Orphans from *crashed* publishes are out of
        scope either way: fsck reports them as untracked.

        Best-effort: a failure here cannot un-commit the publish, so
        errors are swallowed — the next publish or fsck retries.
        """
        if stale is not None:
            candidates = {self.root / relpath for relpath in stale}
            if self.staging_dir.is_dir():
                candidates.update(
                    p for p in self.staging_dir.iterdir() if p.is_file()
                )
        else:
            referenced = {record.path for record in manifest.files.values()}
            candidates = {
                p
                for p in self._managed_files()
                if p.relative_to(self.root).as_posix() not in referenced
            }
        if checkpoint:
            candidates.update(
                path
                for generation, path in self._delta_files()
                if generation <= manifest.generation
            )
        for path in sorted(candidates):
            try:
                self.fs.unlink(path)
            except OSError:
                pass

    def _managed_files(self) -> list[Path]:
        """Every file publish/fsck considers part of the database state:
        the record and delta names this build writes, plus staging
        litter."""
        found = [
            p for p in self.root.glob("records/*") if _RECORD_NAME.fullmatch(p.name)
        ]
        found.extend(path for _, path in self._delta_files())
        if self.staging_dir.is_dir():
            found.extend(p for p in self.staging_dir.iterdir() if p.is_file())
        return sorted(found)

    # ------------------------------------------------------------------
    # verified reads
    # ------------------------------------------------------------------

    def verified_bytes(self, logical: str, manifest: Manifest) -> bytes:
        """Read one tracked file's raw bytes, checking size and digest.

        Raises :class:`StorageError` when the manifest does not track
        ``logical`` or the file is missing, and
        :class:`StorageIntegrityError` when the bytes on disk do not
        match the manifest record.
        """
        record = manifest.files.get(logical)
        if record is None:
            raise StorageError(
                f"manifest (generation {manifest.generation}) has no entry "
                f"for {logical!r}"
            )
        path = self.root / record.path
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            raise StorageError(
                f"missing database file {path} (tracked as {logical!r})"
            ) from None
        if len(data) != record.n_bytes:
            raise StorageIntegrityError(
                f"{path}: {len(data)} bytes on disk, manifest records "
                f"{record.n_bytes} (torn write?)"
            )
        if digest_bytes(data) != record.blake2s:
            raise StorageIntegrityError(
                f"{path}: blake2s digest does not match the manifest "
                f"(corrupt {logical!r})"
            )
        return data

    def verified_record(
        self, logical: str, manifest: Manifest
    ) -> tuple[CatalogEntry, PackedTree, bytes]:
        """Read and decode one tracked record (see :meth:`verified_bytes`
        and :func:`parse_record`); the record must hold the video its
        logical name says."""
        data = self.verified_bytes(logical, manifest)
        return _parse_tracked_record(logical, manifest.files[logical], data)

    # ------------------------------------------------------------------
    # fsck
    # ------------------------------------------------------------------

    def fsck(self) -> FsckReport:
        """Classify the health of the chain and every tracked file
        (read-only).

        Never raises on corruption — problems become
        :class:`FileCheck` rows so callers (the CLI, the kill-point
        sweep) can assert on the classification.  A broken chain (an
        unreadable checkpoint or delta, or a missing delta) or a refused
        layout is one row for logical ``manifest``; deltas at or below
        the checkpoint's generation are untracked litter.
        """
        report = FsckReport(root=str(self.root), mode="empty")
        try:
            manifest, chain = self._read_chain()
        except _ChainError as exc:
            report.mode = exc.mode
            report.checks.append(
                FileCheck("manifest", exc.path, exc.status, str(exc))
            )
            return report
        if manifest is None:
            return report
        report.mode = "manifest"
        report.generation = manifest.generation
        for logical, record in manifest.files.items():
            status, detail = self._check_record(logical, record)
            report.checks.append(
                FileCheck(
                    logical=logical, path=record.path, status=status, detail=detail
                )
            )
        referenced = {self.root / r.path for r in manifest.files.values()}
        referenced.update(chain.deltas)
        report.untracked = [
            p.relative_to(self.root).as_posix()
            for p in self._managed_files()
            if p not in referenced
        ]
        return report

    def _check_record(self, logical: str, record: FileRecord) -> tuple[str, str]:
        """Classify one manifest record's file: the fsck primitive.

        Size and digest first; a file whose digest matches must also
        decode as a record (a failure there means the writer produced a
        bad file) holding the video its logical name says.
        """
        path = self.root / record.path
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return "missing", f"{record.path} does not exist"
        except OSError as exc:
            return "missing", f"{record.path} unreadable: {exc}"
        if len(data) != record.n_bytes:
            return (
                "size-mismatch",
                f"{len(data)} bytes on disk, manifest records {record.n_bytes}",
            )
        if digest_bytes(data) != record.blake2s:
            return "checksum-mismatch", "blake2s digest does not match the manifest"
        try:
            entry, _, rows = _parse_tracked_record(logical, record, data)
            ColumnarVarianceIndex.from_parts([(entry.video_id, rows)])
        except (StorageError, IndexError_) as exc:
            return "corrupt-binary", str(exc)
        return "ok", ""

    def quarantine(self, relpath: str) -> Path:
        """Move one file into ``quarantine/`` (fsck --repair helper)."""
        source = self.root / relpath
        self.fs.mkdir(self.quarantine_dir)
        target = self.quarantine_dir / source.name.replace("/", "_")
        if target.exists():
            target = self.quarantine_dir / (
                f"{os.getpid()}-{next(_STAGING_COUNTER):06d}-{source.name}"
            )
        self.fs.replace(source, target)
        return target
