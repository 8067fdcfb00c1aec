"""The binary index format (RVIX): roundtrip, determinism, corruption
detection, and fsck.

The columnar index persists one video's rows per checksummed
little-endian column file: the tail of that video's record, encoded by
``encode_rows``/``video_rows`` and decoded by ``from_parts``.  These
tests pin the format contract: a byte-identical rewrite of unchanged
rows (so the publish layer's content dedup still works, and replicas
stay byte-identical), and detection — not silent service — of any
truncation or bit flip.  The publish path that writes the records has
its own kill-point sweeps (``tests/test_faults_killpoints.py``).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import IndexError_, StorageError, StorageIntegrityError
from repro.features.vector import FeatureVector
from repro.index import ColumnarVarianceIndex, IndexEntry
from repro.index.columnar import COLUMNAR_MAGIC
from repro.index.query import VarianceQuery
from repro.testing import synth_database
from repro.vdbms.database import VideoDatabase
from repro.vdbms.storage import DatabaseStorage, parse_record


def _entries(seed: int, n: int = 60) -> list[IndexEntry]:
    rng = np.random.default_rng(seed)
    videos = ["clip-α", "clip-β", "a/b c", "plain"]
    archetypes = [None, "closeup", "wide-shot", "über-shot"]
    return [
        IndexEntry(
            video_id=videos[k % len(videos)],
            shot_number=k,
            start_frame=k * 24,
            end_frame=k * 24 + 23,
            features=FeatureVector(
                var_ba=float(rng.uniform(0, 500)), var_oa=float(rng.uniform(0, 500))
            ),
            archetype=archetypes[k % len(archetypes)],
        )
        for k in range(n)
    ]


def _video_rows(seed: int, n: int = 60) -> bytes:
    """One video's rows as RVIX bytes (the tail of its record)."""
    return ColumnarVarianceIndex.encode_rows(
        replace(entry, video_id="clip-α") for entry in _entries(seed, n)
    )


def _reload(data: bytes, video_id: str = "clip-α") -> ColumnarVarianceIndex:
    """Decode one video's RVIX bytes the way a database open does."""
    return ColumnarVarianceIndex.from_parts([(video_id, data)])


class TestRoundtrip:
    def test_bytes_roundtrip_preserves_entries_and_decisions(self):
        index = ColumnarVarianceIndex(_entries(1))
        parts = list(index.video_rows())
        assert len(parts) == 4
        assert all(data.startswith(COLUMNAR_MAGIC) for _, data in parts)
        reloaded = ColumnarVarianceIndex.from_parts(parts)
        assert [e.to_row() for e in reloaded.entries] == [
            e.to_row() for e in index.entries
        ]
        assert [e.archetype for e in reloaded.entries] == [
            e.archetype for e in index.entries
        ]
        query = VarianceQuery(var_ba=144.0, var_oa=64.0)
        assert [(e.video_id, e.shot_number) for e in reloaded.search(query)] == [
            (e.video_id, e.shot_number) for e in index.search(query)
        ]

    def test_to_bytes_is_deterministic(self):
        """The rows a record's ``to_bytes`` ends with are a pure
        function of the video's entries: insertion order, the other
        videos and a reload do not change a byte."""
        entries = _entries(2)
        parts = list(ColumnarVarianceIndex(entries).video_rows())
        assert dict(ColumnarVarianceIndex(entries[::-1]).video_rows()) == dict(parts)
        for video_id, data in parts:
            assert data == ColumnarVarianceIndex.encode_rows(
                e for e in entries if e.video_id == video_id
            )
        # encode -> from_parts -> encode is byte-identical: the intern
        # tables are compacted to first-appearance order on every
        # encoding, so an unchanged video dedups to a no-op at the
        # publish layer.
        reloaded = ColumnarVarianceIndex.from_parts(parts)
        assert list(reloaded.video_rows()) == parts
        again = ColumnarVarianceIndex.from_parts(reloaded.video_rows())
        assert list(again.video_rows()) == parts

    def test_empty_index_roundtrip(self):
        assert list(ColumnarVarianceIndex().video_rows()) == []
        reloaded = _reload(ColumnarVarianceIndex.encode_rows(()))
        assert len(reloaded) == 0
        assert reloaded.entries == ()

    def test_pending_rows_included_in_serialization(self):
        index = ColumnarVarianceIndex()
        for entry in _entries(3, n=10):
            index.insert(entry)
        assert index.stats()["pending"] == 10
        reloaded = ColumnarVarianceIndex.from_parts(index.video_rows())
        assert len(reloaded) == 10


class TestCorruptionDetection:
    def test_truncation_is_detected_at_every_boundary(self):
        data = _video_rows(4)
        for cut in (0, 3, len(data) // 4, len(data) // 2, len(data) - 1):
            with pytest.raises(IndexError_):
                _reload(data[:cut])
        with pytest.raises(IndexError_):
            _reload(data + b"\x00")

    def test_bit_flips_are_detected_everywhere(self):
        data = _video_rows(5, n=20)
        # Header, string tables, each column region, and the digest
        # trailer itself — a flip anywhere must raise, never serve.
        for offset in range(4, len(data), max(1, len(data) // 37)):
            corrupted = bytearray(data)
            corrupted[offset] ^= 0x40
            with pytest.raises(IndexError_):
                _reload(bytes(corrupted))

    def test_wrong_magic_and_garbage_payloads(self):
        with pytest.raises(IndexError_):
            _reload(b"NOPE" + b"\x00" * 64)
        with pytest.raises(IndexError_):
            _reload(b"\x01\x02 not json")


class TestMigration:
    """A save writes records whose tails are RVIX rows."""

    def test_save_load_cycle_keeps_binary_format(self, tmp_path):
        root = tmp_path / "db"
        synth_database(13, n_videos=2).save(root)
        manifest = DatabaseStorage(root).read_manifest()
        for record in manifest.files.values():
            assert record.path.endswith(".rvr")
            entry, _, rows = parse_record((root / record.path).read_bytes())
            # The record's tail is one RVIX file holding its rows.
            assert rows.startswith(COLUMNAR_MAGIC)
            assert len(_reload(rows, entry.video_id)) == entry.n_shots
            assert rows == ColumnarVarianceIndex.encode_rows(
                VideoDatabase.load(root).index.entries_for(entry.video_id)
            )


class TestFsckOnBinary:
    def test_clean_database_passes(self, tmp_path):
        root = tmp_path / "db"
        synth_database(14, n_videos=2).save(root)
        report = DatabaseStorage(root).fsck()
        assert report.clean
        assert all(
            c.logical.startswith("video:") and c.path.endswith(".rvr")
            for c in report.checks
        )

    def test_flipped_byte_in_binary_index_is_caught(self, tmp_path):
        root = tmp_path / "db"
        synth_database(15, n_videos=2).save(root)
        storage = DatabaseStorage(root)
        record = next(iter(storage.read_manifest().files.values()))
        path = root / record.path
        data = bytearray(path.read_bytes())
        data[-20] ^= 0xFF  # inside the record's index rows
        path.write_bytes(bytes(data))
        report = storage.fsck()
        assert not report.clean
        statuses = {c.status for c in report.problems()}
        assert "checksum-mismatch" in statuses
        with pytest.raises((StorageError, StorageIntegrityError)):
            VideoDatabase.load(root)
