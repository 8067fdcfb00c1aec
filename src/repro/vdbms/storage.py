"""On-disk layout of a video database, with crash-safe publishing.

    <root>/
      manifest.json               the commit point (see vdbms.manifest)
      catalog-g<NNNNNNNN>.json    the video catalog, one file per write
      index-g<NNNNNNNN>.bin       the variance index (binary columns)
      trees/<id>-g<NNNNNNNN>.json one scene tree per video
      videos/<id>.rvid            raw clips (optional; large; untracked)
      staging/                    in-flight writes (pid + counter names)
      quarantine/                 where fsck --repair moves bad files

Every save goes through :meth:`DatabaseStorage.publish`: changed
components are serialized, written to uniquely-named staging files,
fsynced, renamed to fresh generation-suffixed names, and only then does
an atomic manifest swap commit the new state.  A crash at *any* point
leaves the previous manifest in force, so the previous database loads
intact; leftover unreferenced files are garbage-collected by the next
successful publish or by ``repro fsck``.

Loads verify every manifest-tracked file's size and blake2s digest
before parsing, so torn or bit-flipped files surface as a precise
:class:`~repro.errors.StorageIntegrityError` instead of wrong answers.

The pre-manifest layout (bare ``catalog.json`` + ``index.json`` +
``trees/<id>.json``) is refused, never read or deleted: load, open and
publish raise :class:`~repro.errors.StorageError` naming the way to
migrate, and fsck reports the directory as not clean.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from ..errors import IndexError_, StorageError, StorageIntegrityError
from ..index.columnar import ColumnarVarianceIndex
from ..video.clip import VideoClip
from ..video.io import read_rvid, write_rvid
from .catalog import Catalog
from .fsio import LocalFS
from .manifest import TREE_PREFIX, FileRecord, Manifest, digest_bytes

__all__ = ["DatabaseStorage", "FileCheck", "FsckReport"]

#: Process-wide staging-name counter; combined with the pid it makes
#: every staging file unique, so concurrent saves (or a crashed one's
#: litter) can never collide with a live write.
_STAGING_COUNTER = itertools.count(1)

#: The generation-suffixed names :meth:`DatabaseStorage._target_relpath`
#: writes: the only data files publish may sweep and fsck may call
#: untracked.  Pre-manifest names (``catalog.json``, ``index.json``,
#: ``trees/<id>-<hash>.json``) never match.
_ROOT_DATA_NAME = re.compile(r"(catalog-g\d{8,}\.json|index-g\d{8,}\.bin)")
_TREE_DATA_NAME = re.compile(r".+-g\d{8,}\.json")


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
# fsck report
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class FileCheck:
    """The verdict on one tracked file.

    ``status`` is one of ``ok``, ``missing``, ``size-mismatch``,
    ``checksum-mismatch``, ``corrupt-json``, ``corrupt-binary``.
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

    ``mode`` is ``manifest`` (normal), ``pre-manifest`` (the refused
    layout; never clean, never repaired), or ``empty`` (no database at
    all).  ``untracked`` lists managed-
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
        # The manifest this object committed last (publish fast path).
        self._committed: Manifest | None = None
        # Logical names whose on-disk bytes are known not to match the
        # manifest digest (bit rot found by a recovering load).  publish
        # must not carry these forward on a digest match — the digest
        # describes the intended bytes, not what the disk holds.
        self._distrusted: set[str] = set()

    # ------------------------------------------------------------------
    # layout helpers
    # ------------------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.root / "manifest.json"

    @property
    def staging_dir(self) -> Path:
        return self.root / "staging"

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    def video_path(self, video_id: str) -> Path:
        """Path of one video's raw frames under videos/."""
        return self.root / "videos" / f"{_safe_id(video_id)}.rvid"

    def current_tree_path(self, video_id: str) -> Path | None:
        """The committed scene-tree file of one video, or None."""
        manifest = self.read_manifest()
        if manifest is None:
            return None
        record = manifest.files.get(TREE_PREFIX + video_id)
        return self.root / record.path if record is not None else None

    def _target_relpath(self, logical: str, generation: int) -> str:
        """Where a freshly-written component of one publish lives: the
        index is binary columns, everything else JSON."""
        suffix = f"g{generation:08d}"
        if logical == "catalog":
            return f"catalog-{suffix}.json"
        if logical == "index":
            return f"index-{suffix}.bin"
        if logical.startswith(TREE_PREFIX):
            video_id = logical[len(TREE_PREFIX):]
            return f"trees/{_safe_id(video_id)}-{suffix}.json"
        raise StorageError(f"unknown logical file {logical!r}")

    def _staging_path(self, name: str) -> Path:
        """A write target no other save (live or crashed) can collide
        with: pid + process-wide counter + the final file's name."""
        return self.staging_dir / f"{os.getpid()}-{next(_STAGING_COUNTER):06d}-{name}"

    def initialize(self) -> None:
        """Create the directory skeleton."""
        self.fs.mkdir(self.root / "videos")
        self.fs.mkdir(self.root / "trees")
        self.fs.mkdir(self.staging_dir)

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
            raise StorageError(
                f"{self.root} holds the pre-manifest layout (catalog.json "
                "without manifest.json), which this build does not read; "
                "migrate it by opening the database and saving it once "
                "with an earlier build that still reads that layout"
            )

    # ------------------------------------------------------------------
    # manifest I/O
    # ------------------------------------------------------------------

    def read_manifest(self) -> Manifest | None:
        """The committed manifest, or None for an empty directory.

        Raises :class:`StorageError` when a manifest exists but cannot
        be parsed — that is real corruption, because manifest writes
        are atomic — and on the pre-manifest layout.
        """
        if not self.manifest_path.exists():
            self._refuse_pre_manifest()
            return None
        try:
            payload = json.loads(self.manifest_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise StorageError(
                f"corrupt manifest {self.manifest_path}: {exc}"
            ) from exc
        return Manifest.from_dict(payload)

    def current_manifest(self) -> Manifest | None:
        """The committed manifest, skipping the disk read when this
        object was the last writer of the root (see :meth:`publish`)."""
        if self._committed is not None:
            return self._committed
        return self.read_manifest()

    def distrust(self, logical: str) -> None:
        """Mark a tracked component's on-disk file as not matching its
        manifest digest (bit rot found by a recovering load).

        The next :meth:`publish` that receives ``logical`` as a payload
        rewrites the file even when the serialized bytes match the
        recorded digest — without this, re-ingesting a quarantined
        video whose content is unchanged would be carried over as a
        "no-op" and leave the rotted bytes on disk.
        """
        self._distrusted.add(logical)

    # ------------------------------------------------------------------
    # digest enumeration (anti-entropy / scrubber API)
    # ------------------------------------------------------------------

    def tracked_records(self) -> dict[str, "FileRecord"]:
        """Logical name -> committed :class:`FileRecord`, from the
        current manifest.

        This is the digest-enumeration API the cluster repair subsystem
        builds on: two shards compare a video by comparing the
        ``blake2s`` each side's manifest records for ``tree:<id>`` —
        no file reads, no re-hashing.  Empty for unsaved roots.
        """
        manifest = self.current_manifest()
        if manifest is None:
            return {}
        return dict(manifest.files)

    def video_digest(self, video_id: str) -> str | None:
        """The committed blake2s of one video's scene-tree file, or
        None when the manifest does not track that video."""
        record = self.tracked_records().get(TREE_PREFIX + video_id)
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
        self, payloads: dict[str, Any], keep: Iterable[str] = ()
    ) -> Manifest:
        """Atomically commit a new database state.

        Args:
            payloads: logical name (``catalog``, ``index``,
                ``tree:<video_id>``) → JSON-compatible document.  The
                new manifest references exactly ``payloads | keep``;
                anything else the old manifest tracked is dropped (and
                its file deleted after commit).
            keep: logical names carried over unchanged from the current
                manifest without rewriting their files.

        Payloads whose serialized bytes match the current manifest's
        digest are carried over too (no write).  When nothing changes at
        all the current manifest is returned untouched — a no-op save
        does not even bump the generation.
        """
        # Single-writer fast path: after the first publish this object
        # is the only writer of the root (the engine's/shard's write
        # lock enforces that), so the manifest it committed last time
        # is still the one on disk — no need to re-read and re-parse it
        # on every ingest.  Independent reader objects always see disk
        # (read_manifest itself never caches), and refuse a pre-manifest
        # root before anything is created in it.
        old = (
            self._committed
            if self._committed is not None
            else self.read_manifest()
        )
        self.initialize()
        old_files = dict(old.files) if old is not None else {}
        generation = (old.generation if old is not None else 0) + 1

        new_files: dict[str, FileRecord] = {}
        to_write: dict[str, bytes] = {}
        for logical, payload in payloads.items():
            # Components may hand over pre-serialized bytes (the binary
            # index) or a JSON-compatible document.
            data = payload if isinstance(payload, bytes) else _json_bytes(payload)
            digest = digest_bytes(data)
            prior = old_files.get(logical)
            if (
                prior is not None
                and logical not in self._distrusted
                and prior.blake2s == digest
                and prior.n_bytes == len(data)
                and (self.root / prior.path).exists()
            ):
                new_files[logical] = prior
                continue
            record = FileRecord(
                path=self._target_relpath(logical, generation),
                blake2s=digest,
                n_bytes=len(data),
            )
            new_files[logical] = record
            to_write[logical] = data
        for logical in keep:
            if logical in new_files:
                continue
            prior = old_files.get(logical)
            if prior is None:
                raise StorageError(
                    f"cannot carry {logical!r} forward: not in the current manifest"
                )
            new_files[logical] = prior

        if old is not None and new_files == old_files:
            self._committed = old
            return old

        manifest = Manifest(generation=generation, files=new_files)
        staged: list[Path] = []
        try:
            touched_dirs: set[Path] = set()
            # Stage every file first, then sync, then rename: the first
            # fsync's journal commit typically carries the other staged
            # writes along, so a publish costs ~one data flush instead
            # of one per file.  Crash safety is unchanged — nothing is
            # visible until the manifest swap below.
            renames: list[tuple[Path, Path]] = []
            for logical, data in to_write.items():
                final = self.root / new_files[logical].path
                stage = self._staging_path(final.name)
                self.fs.write_bytes(stage, data)
                staged.append(stage)
                renames.append((stage, final))
            for stage, _ in renames:
                self.fs.fsync(stage)
            for stage, final in renames:
                self.fs.replace(stage, final)
                staged.remove(stage)
                touched_dirs.add(final.parent)
            for directory in sorted(touched_dirs):
                self.fs.fsync_dir(directory)
            # The commit point: everything before this is invisible to
            # load(); everything after is cleanup.
            manifest_bytes = _json_bytes(manifest.to_dict())
            stage = self._staging_path("manifest.json")
            self.fs.write_bytes(stage, manifest_bytes)
            staged.append(stage)
            self.fs.fsync(stage)
            self.fs.replace(stage, self.manifest_path)
            staged.pop()
            self.fs.fsync_dir(self.root)
        except OSError as exc:
            # The save failed but the process lives on: drop our staging
            # litter so a retry (or a later save) starts clean.  The old
            # manifest is still in force, so the database is unharmed.
            for stage in staged:
                try:
                    self.fs.unlink(stage)
                except OSError:
                    pass
            raise StorageError(f"publish failed: {exc}") from exc
        self._committed = manifest
        # Rewritten (or dropped) components have fresh, trusted files.
        self._distrusted = {
            name
            for name in self._distrusted
            if name in new_files and name not in to_write
        }
        self._collect_garbage(manifest, old)
        return manifest

    def _collect_garbage(self, manifest: Manifest, old: Manifest | None = None) -> None:
        """Delete managed files the committed manifest does not track.

        With the superseded manifest in hand, the only garbage a
        successful publish can create is the set of files that manifest
        tracked and the new one dropped, plus staging litter — a set
        difference, not a directory scan.  Without one (the first
        publish) fall back to sweeping every managed file.  Orphans from
        *crashed* publishes are out of scope either way: fsck reports
        them as untracked.

        Best-effort: a failure here cannot un-commit the publish, so
        errors are swallowed — the next publish or fsck retries.
        """
        referenced = {record.path for record in manifest.files.values()}
        if old is not None:
            stale = {
                record.path for record in old.files.values()
            } - referenced
            candidates = {self.root / relpath for relpath in stale}
            if self.staging_dir.is_dir():
                candidates.update(
                    p for p in self.staging_dir.iterdir() if p.is_file()
                )
        else:
            candidates = {
                p
                for p in self._managed_files()
                if p.relative_to(self.root).as_posix() not in referenced
            }
        for path in candidates:
            try:
                self.fs.unlink(path)
            except OSError:
                pass

    def _managed_files(self) -> list[Path]:
        """Every file publish/fsck considers part of the database state:
        the data file names this build writes, plus staging litter."""
        found = [p for p in self.root.glob("*") if _ROOT_DATA_NAME.fullmatch(p.name)]
        found.extend(
            p for p in self.root.glob("trees/*") if _TREE_DATA_NAME.fullmatch(p.name)
        )
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

    def verified_json(self, logical: str, manifest: Manifest) -> dict[str, Any]:
        """Read one tracked JSON file (see :meth:`verified_bytes`)."""
        data = self.verified_bytes(logical, manifest)
        try:
            return json.loads(data)
        except json.JSONDecodeError as exc:  # pragma: no cover - digest
            # matched, so this means the *writer* serialized bad JSON
            record = manifest.files[logical]
            raise StorageError(
                f"corrupt database file {self.root / record.path}: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    # raw clips
    # ------------------------------------------------------------------

    def save_video(self, clip: VideoClip) -> Path:
        """Persist the raw clip (optional — clips are large, untracked)."""
        path = self.video_path(clip.name)
        path.parent.mkdir(parents=True, exist_ok=True)
        return write_rvid(clip, path)

    def load_video(self, video_id: str) -> VideoClip:
        """Load a stored raw clip."""
        path = self.video_path(video_id)
        if not path.exists():
            raise StorageError(f"no stored video for {video_id!r} at {path}")
        return read_rvid(path)

    # ------------------------------------------------------------------
    # fsck
    # ------------------------------------------------------------------

    def fsck(self) -> FsckReport:
        """Classify the health of every tracked file (read-only).

        Never raises on corruption — problems become
        :class:`FileCheck` rows so callers (the CLI, the kill-point
        sweep) can assert on the classification.
        """
        report = FsckReport(root=str(self.root), mode="empty")
        try:
            self._refuse_pre_manifest()
        except StorageError as exc:
            report.mode = "pre-manifest"
            report.checks.append(
                FileCheck("manifest", "manifest.json", "missing", str(exc))
            )
            return report
        if self.manifest_path.exists():
            report.mode = "manifest"
            try:
                manifest = self.read_manifest()
            except StorageError as exc:
                report.checks.append(
                    FileCheck(
                        logical="manifest",
                        path=self.manifest_path.name,
                        status="corrupt-json",
                        detail=str(exc),
                    )
                )
                return report
            assert manifest is not None
            report.generation = manifest.generation
            catalog: Catalog | None = None
            for logical, record in manifest.files.items():
                status, detail = self._check_record(logical, record)
                if status == "ok" and logical == "catalog":
                    try:
                        catalog = Catalog.from_dict(
                            json.loads((self.root / record.path).read_bytes())
                        )
                    except Exception as exc:
                        status, detail = "corrupt-json", str(exc)
                report.checks.append(
                    FileCheck(logical=logical, path=record.path, status=status, detail=detail)
                )
            if catalog is not None:
                for video_id in catalog.ids():
                    if TREE_PREFIX + video_id not in manifest.files:
                        report.checks.append(
                            FileCheck(
                                logical=TREE_PREFIX + video_id,
                                path="",
                                status="missing",
                                detail=f"catalog lists {video_id!r} but the "
                                "manifest tracks no scene tree for it",
                            )
                        )
            referenced = {self.root / r.path for r in manifest.files.values()}
            report.untracked = [
                str(p.relative_to(self.root))
                for p in self._managed_files()
                if p not in referenced
            ]
            return report
        return report

    def _check_record(self, logical: str, record: FileRecord) -> tuple[str, str]:
        """Classify one manifest record's file: the fsck primitive.

        The logical name decides the file's kind: the ``index`` record
        must hold binary columns, every other record JSON.
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
        if logical == "index":
            # The digest matched, so a failure here means the writer
            # produced bad columns — or a build from before the binary
            # format wrote a JSON index.
            try:
                ColumnarVarianceIndex.validate_bytes(data)
            except IndexError_ as exc:
                return "corrupt-binary", str(exc)
            return "ok", ""
        try:
            json.loads(data)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # pragma: no cover
            return "corrupt-json", str(exc)  # digest matched: writer bug
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
