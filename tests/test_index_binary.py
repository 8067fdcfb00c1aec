"""The binary index format (RVIX): roundtrip, determinism, corruption
detection, refusal of the older JSON index, and fsck.

The columnar index persists as a checksummed little-endian column
file.  These tests pin the format contract: a byte-identical rewrite
of an unchanged index (so the publish layer's content dedup still
works), detection — not silent service — of any truncation or bit
flip, and a loud refusal of the JSON index older builds wrote.  The
publish path that writes the file has its own kill-point sweeps
(``tests/test_faults_killpoints.py``).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import IndexError_, StorageError, StorageIntegrityError
from repro.features.vector import FeatureVector
from repro.index import ColumnarVarianceIndex, IndexEntry
from repro.index.columnar import COLUMNAR_MAGIC
from repro.index.query import VarianceQuery
from repro.testing import synth_database
from repro.vdbms.database import VideoDatabase
from repro.vdbms.manifest import FileRecord, digest_bytes
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


class TestRoundtrip:
    def test_bytes_roundtrip_preserves_entries_and_decisions(self):
        index = ColumnarVarianceIndex(_entries(1))
        data = index.to_bytes()
        assert data.startswith(COLUMNAR_MAGIC)
        reloaded = ColumnarVarianceIndex.from_bytes(data)
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
        index = ColumnarVarianceIndex(_entries(2))
        data = index.to_bytes()
        assert index.to_bytes() == data
        # to_bytes -> from_bytes -> to_bytes is byte-identical: the
        # intern tables are compacted to first-appearance order on every
        # serialization, so an unchanged index dedups to a no-op at the
        # publish layer.
        reloaded = ColumnarVarianceIndex.from_bytes(data)
        assert reloaded.to_bytes() == data
        again = ColumnarVarianceIndex.from_bytes(reloaded.to_bytes())
        assert again.to_bytes() == data

    def test_empty_index_roundtrip(self):
        data = ColumnarVarianceIndex().to_bytes()
        reloaded = ColumnarVarianceIndex.from_bytes(data)
        assert len(reloaded) == 0
        assert reloaded.entries == ()

    def test_pending_rows_included_in_serialization(self):
        index = ColumnarVarianceIndex(merge_threshold=1_000)
        for entry in _entries(3, n=10):
            index.insert(entry)
        reloaded = ColumnarVarianceIndex.from_bytes(index.to_bytes())
        assert len(reloaded) == 10


class TestCorruptionDetection:
    def test_truncation_is_detected_at_every_boundary(self):
        data = ColumnarVarianceIndex(_entries(4)).to_bytes()
        for cut in (0, 3, len(data) // 4, len(data) // 2, len(data) - 1):
            with pytest.raises(IndexError_):
                ColumnarVarianceIndex.from_bytes(data[:cut])
        with pytest.raises(IndexError_):
            ColumnarVarianceIndex.from_bytes(data + b"\x00")

    def test_bit_flips_are_detected_everywhere(self):
        data = ColumnarVarianceIndex(_entries(5, n=20)).to_bytes()
        # Header, string tables, each column region, and the digest
        # trailer itself — a flip anywhere must raise, never serve.
        for offset in range(4, len(data), max(1, len(data) // 37)):
            corrupted = bytearray(data)
            corrupted[offset] ^= 0x40
            with pytest.raises(IndexError_):
                ColumnarVarianceIndex.from_bytes(bytes(corrupted))

    def test_wrong_magic_and_garbage_payloads(self):
        with pytest.raises(IndexError_):
            ColumnarVarianceIndex.from_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(IndexError_):
            ColumnarVarianceIndex.from_bytes(b"\x01\x02 not json")

    def test_validate_bytes_accepts_good_rejects_bad(self):
        data = ColumnarVarianceIndex(_entries(6, n=8)).to_bytes()
        ColumnarVarianceIndex.validate_bytes(data)
        with pytest.raises(IndexError_):
            ColumnarVarianceIndex.validate_bytes(data[:-1])


class TestMigration:
    def test_manifest_tracked_json_index_is_refused(self, tmp_path):
        """Builds between the manifest and the binary index committed
        the index as a JSON document (under a version-2 manifest); this
        build fails loudly on it."""
        from tests.test_storage_manifest import write_version_2

        root = tmp_path / "db"
        db = synth_database(12, n_videos=2)
        write_version_2(db, root)
        storage = DatabaseStorage(root)
        manifest = storage.read_manifest()
        document = {
            "version": 1,
            "entries": [
                {
                    "video_id": e.video_id,
                    "shot_number": e.shot_number,
                    "start_frame": e.start_frame,
                    "end_frame": e.end_frame,
                    "var_ba": e.features.var_ba,
                    "var_oa": e.features.var_oa,
                    "archetype": e.archetype,
                }
                for e in db.index.entries
            ],
        }
        data = json.dumps(document).encode("utf-8")
        relpath = f"index-g{manifest.generation + 1:08d}.json"
        (root / relpath).write_bytes(data)
        payload = json.loads(storage.manifest_path.read_text())
        payload["generation"] += 1
        payload["files"]["index"] = FileRecord(
            relpath, digest_bytes(data), len(data)
        ).to_dict()
        storage.manifest_path.write_text(json.dumps(payload))

        with pytest.raises(StorageError, match="binary index magic"):
            VideoDatabase.load(root)
        with pytest.raises(StorageError, match="binary index magic"):
            VideoDatabase.open(root)
        report = storage.fsck()
        assert not report.clean
        by_logical = {c.logical: c.status for c in report.checks}
        assert by_logical["index"] == "corrupt-binary"
        assert by_logical["catalog"] == "ok"

    def test_save_load_cycle_keeps_binary_format(self, tmp_path):
        root = tmp_path / "db"
        synth_database(13, n_videos=2).save(root)
        manifest = DatabaseStorage(root).read_manifest()
        for record in manifest.files.values():
            assert record.path.endswith(".rvr")
            entry, _, rows = parse_record((root / record.path).read_bytes())
            # The record's tail is one RVIX file holding its rows.
            assert rows.startswith(COLUMNAR_MAGIC)
            ColumnarVarianceIndex.validate_bytes(rows)
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
