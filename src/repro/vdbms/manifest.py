"""The database manifest: the single commit point of every save.

A database directory is whatever its manifest chain says it is: the
checkpoint ``manifest.json`` plus the deltas committed after it.  The
folded manifest records, for every video, the record file that holds
its catalog entry, scene tree and index rows, plus that file's byte
size and blake2s digest.  The checkpoint:

.. code-block:: json

    {
      "version": 3,
      "generation": 7,
      "files": {
        "video:figure5": {"path": "records/figure5-1a2b3c4d-g00000003.rvr",
                          "blake2s": "…", "bytes": 2317}
      }
    }

and one delta, ``deltas/manifest-g00000008.json``, committing the next
generation:

.. code-block:: json

    {
      "version": 3,
      "generation": 8,
      "set": {"video:friends": {"path": "records/friends-9c8d7e6f-g00000008.rvr",
                                "blake2s": "…", "bytes": 2874}},
      "drop": ["video:figure5"]
    }

Because record files are written under *new* (generation-suffixed)
names and the checkpoint or delta naming them is renamed into place
afterwards, a crash at any point leaves the old chain — and therefore
the old, fully intact database — in force.  Files a torn publish left
behind are simply not referenced and are garbage-collected by the next
successful publish or by ``repro fsck``.

Digests are computed over the bytes the writer *intended* to put on
disk, never re-read from the file, so silent corruption during the
write itself is caught on the next load.

Version 2 (one catalog, one index and one tree file per video, no
deltas) is refused, like the pre-manifest layout before it (see
:mod:`repro.vdbms.storage`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Iterable

from ..errors import StorageError

__all__ = [
    "MANIFEST_VERSION",
    "RECORD_PREFIX",
    "FileRecord",
    "Manifest",
    "digest_bytes",
]

#: The one manifest format this build reads and writes.  Version 2 and
#: "version 1" (the manifest-less layout: bare ``catalog.json`` +
#: ``index.json``) are refused.
MANIFEST_VERSION = 3

#: Logical-name prefix of per-video records (``video:<video_id>``).
RECORD_PREFIX = "video:"


def digest_bytes(data: bytes) -> str:
    """The manifest's content digest: blake2s-128 over the file bytes."""
    return hashlib.blake2s(data, digest_size=16).hexdigest()


def _generation(payload: dict[str, Any]) -> int:
    try:
        return int(payload["generation"])
    except (KeyError, TypeError, ValueError) as exc:
        raise StorageError("manifest 'generation' must be an integer") from exc


def _records(raw: Any, what: str) -> dict[str, "FileRecord"]:
    if not isinstance(raw, dict):
        raise StorageError(f"manifest {what!r} must be an object")
    return {
        str(logical): FileRecord.from_dict(record) for logical, record in raw.items()
    }


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
    """The committed state of one database directory (the folded chain)."""

    generation: int
    files: dict[str, FileRecord] = field(default_factory=dict)

    def video_ids(self) -> list[str]:
        """Video ids that have a tracked record, manifest order."""
        return [
            logical[len(RECORD_PREFIX):]
            for logical in self.files
            if logical.startswith(RECORD_PREFIX)
        ]

    def to_dict(self) -> dict[str, Any]:
        """The checkpoint payload (current ``MANIFEST_VERSION``)."""
        return {
            "version": MANIFEST_VERSION,
            "generation": self.generation,
            "files": {
                logical: record.to_dict() for logical, record in self.files.items()
            },
        }

    @staticmethod
    def delta(
        generation: int, changed: dict[str, FileRecord], dropped: Iterable[str]
    ) -> dict[str, Any]:
        """The payload of a delta committing ``generation``: the records
        it sets and the logical names it drops."""
        return {
            "version": MANIFEST_VERSION,
            "generation": generation,
            "set": {logical: record.to_dict() for logical, record in changed.items()},
            "drop": list(dropped),
        }

    def apply_delta(self, payload: dict[str, Any]) -> None:
        """Fold one delta payload in; it must commit the next generation.

        Raises ``StorageError`` on a malformed delta or a generation
        that does not follow this manifest's.
        """
        if payload.get("version") != MANIFEST_VERSION:
            raise StorageError(
                f"unsupported delta version {payload.get('version')!r}"
            )
        generation = _generation(payload)
        if generation != self.generation + 1:
            raise StorageError(
                f"delta commits generation {generation}, expected "
                f"{self.generation + 1}"
            )
        changed = _records(payload.get("set"), "set")
        dropped = payload.get("drop")
        if not isinstance(dropped, list):
            raise StorageError("manifest 'drop' must be a list")
        for logical in dropped:
            self.files.pop(str(logical), None)
        self.files.update(changed)
        self.generation = generation

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Manifest":
        """Parse a checkpoint payload; raises ``StorageError`` on any defect."""
        version = payload.get("version")
        if version != MANIFEST_VERSION:
            raise StorageError(
                f"unsupported manifest version {version!r} "
                f"(this build reads version {MANIFEST_VERSION})"
            )
        return cls(
            generation=_generation(payload),
            files=_records(payload.get("files"), "files"),
        )
