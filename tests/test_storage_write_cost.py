"""Write cost of a durable ingest: one video, not the whole database.

A publish writes the changed video's record file and commits it with
one small manifest delta; a new checkpoint is written only once the
deltas since the last one would outgrow it.  So the bytes an ingest
writes do not grow with the corpus, and over many ingests checkpoints
at most double the record and delta bytes.  A metering filesystem sums
the bytes each publish passes to ``write_bytes``.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import numpy as np

from repro.testing import synth_database
from repro.vdbms.database import VideoDatabase
from repro.vdbms.fsio import LocalFS
from repro.video.clip import VideoClip


class MeteredFS(LocalFS):
    """Sums the bytes passed to ``write_bytes``, by the kind of file
    written (staging names end with the final file's name)."""

    def __init__(self) -> None:
        self.written: Counter[str] = Counter()

    def write_bytes(self, path: Path, data: bytes) -> None:
        """Count ``data`` under its file kind, then write it."""
        name = Path(path).name
        if name.endswith(".rvr"):
            kind = "record"
        elif "manifest-g" in name:
            kind = "delta"
        elif name.endswith("manifest.json"):
            kind = "checkpoint"
        else:
            kind = "other"
        self.written[kind] += len(data)
        super().write_bytes(path, data)

    @property
    def total(self) -> int:
        return sum(self.written.values())


def _clip(name: str) -> VideoClip:
    frames = np.empty((12, 16, 16, 3), dtype=np.uint8)
    for shot, color in enumerate(((230, 60, 40), (40, 200, 60), (50, 80, 220))):
        frames[shot * 4 : (shot + 1) * 4] = np.array(color, dtype=np.uint8)
    return VideoClip(name, frames, fps=3.0)


def _ingest_bytes(tmp_path: Path, n_videos: int) -> MeteredFS:
    root = tmp_path / f"db-{n_videos}"
    synth_database(21, n_videos=n_videos).save(root)
    fs = MeteredFS()
    VideoDatabase.open(root, fs=fs).ingest(_clip("the-same-clip"))
    return fs


def test_ingest_writes_the_same_bytes_at_any_corpus_size(tmp_path):
    small = _ingest_bytes(tmp_path, 4)
    large = _ingest_bytes(tmp_path, 200)
    assert abs(small.total - large.total) <= 1024, (small.written, large.written)
    # Neither publish checkpointed: one record plus one delta.
    for fs in (small, large):
        assert set(fs.written) == {"record", "delta"}, fs.written
    assert large.total < 4096


def test_checkpoints_at_most_double_the_record_and_delta_bytes(tmp_path):
    fs = MeteredFS()
    db = VideoDatabase.open(tmp_path / "db", fs=fs)
    checkpoints = []
    for k in range(300):
        before = fs.written["checkpoint"]
        db.ingest(_clip(f"clip-{k:03d}"))
        if fs.written["checkpoint"] > before:
            checkpoints.append(fs.written["checkpoint"] - before)
    assert fs.written["other"] == 0
    own = fs.written["record"] + fs.written["delta"]
    assert fs.total <= 2 * own + max(checkpoints), fs.written
    # The policy did fold deltas into new checkpoints along the way.
    assert len(checkpoints) >= 3
    assert len(VideoDatabase.load(tmp_path / "db").catalog) == 300
