"""Property-based persistence checks over seeded random databases.

No external property-testing dependency: ``numpy``'s seeded generator
drives ~50 structurally random databases (random video counts, shot
counts, sign streams, awkward ids, optional categories) through the
save → load → save cycle.  The properties:

* persistence is a fixed point — the second save produces byte-for-byte
  identical files for every manifest-tracked component;
* queries answer identically before and after a reload;
* random adopt/replace/remove sequences, committed through
  checkpoint-and-delta chains, reload exactly as memory holds them, and
  every record digest equals the in-memory serialization;
* ``_safe_id`` is injective over colliding-by-sanitization ids.
"""

import numpy as np
import pytest

from repro.testing import synth_database, synth_record
from repro.vdbms.database import VideoDatabase
from repro.vdbms.manifest import RECORD_PREFIX, digest_bytes
from repro.vdbms.storage import DatabaseStorage, _safe_id

SEEDS = range(50)


def _tracked_bytes(root):
    """logical name -> on-disk bytes for every manifest-tracked file."""
    storage = DatabaseStorage(root)
    manifest = storage.read_manifest()
    return {
        logical: (root / record.path).read_bytes()
        for logical, record in manifest.files.items()
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_save_load_save_is_byte_identical(seed, tmp_path):
    db = synth_database(seed)
    first = tmp_path / "first"
    second = tmp_path / "second"
    db.save(first)
    loaded = VideoDatabase.load(first)
    loaded.save(second)
    assert _tracked_bytes(first) == _tracked_bytes(second)
    # And the manifests agree on generation and records.
    m1 = DatabaseStorage(first).read_manifest()
    m2 = DatabaseStorage(second).read_manifest()
    assert m1.generation == m2.generation == 1
    assert m1.files == m2.files


@pytest.mark.parametrize("seed", [0, 7, 13, 21, 34])
def test_queries_identical_after_reload(seed, tmp_path):
    db = synth_database(seed, n_videos=3)
    db.save(tmp_path / "db")
    loaded = VideoDatabase.load(tmp_path / "db")
    probes = [(4.0, 9.0), (50.0, 120.0), (300.0, 10.0)]
    for var_ba, var_oa in probes:
        before = db.query(var_ba, var_oa, limit=10)
        after = loaded.query(var_ba, var_oa, limit=10)
        assert [m.shot_id for m in before.matches] == [
            m.shot_id for m in after.matches
        ]
        assert [r.suggestion for r in before.routes] == [
            r.suggestion for r in after.routes
        ]


def test_saving_a_reloaded_database_in_place_is_a_noop(tmp_path):
    db = synth_database(11, n_videos=2)
    root = tmp_path / "db"
    db.save(root)
    storage = DatabaseStorage(root)
    before = storage.read_manifest()
    VideoDatabase.load(root).save(root)
    after = storage.read_manifest()
    assert after.generation == before.generation
    assert after.files == before.files


def _state(db):
    """Video id -> the record bytes the database would write."""
    return {vid: db.export_video(vid).to_bytes() for vid in db.catalog.ids()}


@pytest.mark.parametrize("seed", range(20))
def test_random_chains_reload_exactly(seed, tmp_path):
    rng = np.random.default_rng([seed, 5])
    root = tmp_path / "db"
    db = VideoDatabase.open(root)
    storage = DatabaseStorage(root)
    commits = {"delta": 0, "checkpoint": 0}
    live: list[str] = []
    for step in range(int(rng.integers(15, 45))):
        roll = rng.random()
        if live and roll < 0.25:
            db.remove(live.pop(int(rng.integers(len(live)))))
        elif live and roll < 0.35:
            video_id = live[int(rng.integers(len(live)))]
            db.replace(synth_record(video_id, rng))
        else:
            video_id = f"v{step:02d}/{seed}"
            db.adopt(synth_record(video_id, rng))
            live.append(video_id)
        deltas = list(storage.deltas_dir.iterdir())
        commits["delta" if deltas else "checkpoint"] += 1
        if rng.random() < 0.15:
            assert _state(VideoDatabase.load(root)) == _state(db)
    assert commits["delta"] and commits["checkpoint"]
    reloaded = VideoDatabase.load(root)
    assert sorted(reloaded.catalog.ids()) == sorted(db.catalog.ids()) == sorted(live)
    assert _state(reloaded) == _state(db)
    manifest = storage.read_manifest()
    assert set(manifest.files) == {RECORD_PREFIX + vid for vid in live}
    for video_id, data in _state(db).items():
        record = manifest.files[RECORD_PREFIX + video_id]
        assert record.blake2s == digest_bytes(data)
        assert (root / record.path).read_bytes() == data
    for point in [(4.0, 9.0), (50.0, 120.0), (300.0, 10.0)]:
        before, after = db.query(*point, limit=10), reloaded.query(*point, limit=10)
        assert [m.shot_id for m in before.matches] == [m.shot_id for m in after.matches]
        assert before.suggestions == after.suggestions
    assert storage.fsck().clean


class TestSafeIdInjectivity:
    ADVERSARIAL = [
        ("a/b", "a_b"),
        ("a b", "a_b"),
        ("a.b", "a_b"),
        ("x:y", "x_y"),
        ("x*y", "x?y"),
        ("", "_"),
        ("trailing/", "trailing_"),
        ("ünïcode", "u_nicode"),
    ]

    def test_adversarial_pairs_distinct(self):
        for left, right in self.ADVERSARIAL:
            assert _safe_id(left) != _safe_id(right), (left, right)

    def test_random_ids_injective(self):
        import numpy as np

        rng = np.random.default_rng(99)
        alphabet = list("ab_/:. *")
        ids = {
            "".join(rng.choice(alphabet, size=rng.integers(1, 9)))
            for _ in range(400)
        }
        rendered = {_safe_id(video_id) for video_id in ids}
        assert len(rendered) == len(ids)

    def test_stable(self):
        assert _safe_id("a/b") == _safe_id("a/b")
