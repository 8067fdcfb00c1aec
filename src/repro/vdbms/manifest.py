"""The database manifest: the single commit point of every save.

A database directory is whatever its ``manifest.json`` says it is.
The manifest records, for every logical component — the catalog, the
variance index, and one scene tree per video — the concrete file that
holds it plus that file's byte size and blake2s digest:

.. code-block:: json

    {
      "version": 2,
      "generation": 7,
      "files": {
        "catalog":     {"path": "catalog-g00000007.json",
                        "blake2s": "…", "bytes": 412},
        "index":       {"path": "index-g00000007.bin",
                        "blake2s": "…", "bytes": 3180},
        "tree:figure5": {"path": "trees/figure5-1a2b3c4d-g00000003.json",
                        "blake2s": "…", "bytes": 901}
      }
    }

Because data files are written under *new* (generation-suffixed) names
and the manifest is swapped in atomically afterwards, a crash at any
point leaves the old manifest — and therefore the old, fully intact
database — in force.  Files a torn publish left behind are simply not
referenced and are garbage-collected by the next successful publish or
by ``repro fsck``.

Digests are computed over the bytes the writer *intended* to put on
disk, never re-read from the file, so silent corruption during the
write itself is caught on the next load.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any

from ..errors import StorageError

__all__ = ["MANIFEST_VERSION", "TREE_PREFIX", "FileRecord", "Manifest", "digest_bytes"]

#: Current manifest format.  "Version 1" is the manifest-less layout
#: (bare ``catalog.json`` + ``index.json``), which this build refuses.
MANIFEST_VERSION = 2

#: Logical-name prefix of per-video scene trees (``tree:<video_id>``).
TREE_PREFIX = "tree:"


def digest_bytes(data: bytes) -> str:
    """The manifest's content digest: blake2s-128 over the file bytes."""
    return hashlib.blake2s(data, digest_size=16).hexdigest()


@dataclass(frozen=True, slots=True)
class FileRecord:
    """One tracked file: where it lives and what its bytes must be."""

    path: str  # relative to the database root, POSIX separators
    blake2s: str
    n_bytes: int

    def to_dict(self) -> dict[str, Any]:
        """The record's manifest.json representation."""
        return {"path": self.path, "blake2s": self.blake2s, "bytes": self.n_bytes}

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "FileRecord":
        """Parse one manifest file record; raises ``StorageError`` if malformed."""
        try:
            return cls(
                path=str(payload["path"]),
                blake2s=str(payload["blake2s"]),
                n_bytes=int(payload["bytes"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise StorageError(f"malformed manifest file record {payload!r}") from exc


@dataclass(slots=True)
class Manifest:
    """The committed state of one database directory."""

    generation: int
    files: dict[str, FileRecord] = field(default_factory=dict)

    def tree_ids(self) -> list[str]:
        """Video ids that have a tracked scene tree, manifest order."""
        return [
            logical[len(TREE_PREFIX):]
            for logical in self.files
            if logical.startswith(TREE_PREFIX)
        ]

    def to_dict(self) -> dict[str, Any]:
        """The manifest.json payload (current ``MANIFEST_VERSION``)."""
        return {
            "version": MANIFEST_VERSION,
            "generation": self.generation,
            "files": {
                logical: record.to_dict() for logical, record in self.files.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Manifest":
        """Parse a manifest payload; raises ``StorageError`` on any defect."""
        version = payload.get("version")
        if version != MANIFEST_VERSION:
            raise StorageError(
                f"unsupported manifest version {version!r} "
                f"(this build reads version {MANIFEST_VERSION})"
            )
        raw_files = payload.get("files")
        if not isinstance(raw_files, dict):
            raise StorageError("manifest 'files' must be an object")
        try:
            generation = int(payload["generation"])
        except (KeyError, TypeError, ValueError) as exc:
            raise StorageError("manifest 'generation' must be an integer") from exc
        return cls(
            generation=generation,
            files={
                str(logical): FileRecord.from_dict(record)
                for logical, record in raw_files.items()
            },
        )
