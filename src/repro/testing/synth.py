"""Deterministic synthetic databases assembled without detection.

Running the full Step 1-2-3 pipeline costs seconds per clip; the
property-based and fault-injection suites need *hundreds* of databases.
This module skips the pipeline: it seeds random sign streams, builds
real scene trees from them (the builder itself is exercised), and
registers matching catalog and index rows directly.  The resulting
:class:`~repro.vdbms.database.VideoDatabase` is structurally
indistinguishable from an ingested one as far as persistence and
querying are concerned.

Everything is driven by ``numpy.random.default_rng(seed)``, so a
failing seed reproduces exactly.
"""

from __future__ import annotations

import numpy as np

from ..config import PipelineConfig
from ..features.vector import FeatureVector
from ..index.table import IndexEntry
from ..scenetree.builder import SceneTreeBuilder
from ..vdbms.catalog import CatalogEntry
from ..vdbms.database import VideoDatabase, VideoRecord
from ..workloads.taxonomy import VideoCategory

__all__ = ["add_synth_video", "synth_database", "synth_record"]

_GENRES = ("comedy", "crime", "western", "horror", "fantasy")
_FORMS = ("feature", "television series")
#: Id decorations covering the awkward cases (_safe_id collisions,
#: slashes, spaces, colons) so persistence tests hit them by default.
_ID_DECOR = ("", "clip/", "take ", "x:", "a_b.")


def synth_record(video_id: str, rng: np.random.Generator) -> VideoRecord:
    """One synthetic video's derived state (tree + catalog row + index
    rows) as a detached record, for :meth:`VideoDatabase.adopt`."""
    n_shots = int(rng.integers(3, 7))
    shot_signs = [
        rng.integers(-1, 2, size=(int(rng.integers(3, 7)), 3)).astype(np.int8)
        for _ in range(n_shots)
    ]
    tree = SceneTreeBuilder().build(shot_signs, video_id)
    category = None
    if rng.random() < 0.5:
        category = VideoCategory(
            genres=(str(rng.choice(_GENRES)),),
            forms=(str(rng.choice(_FORMS)),),
        )
    entry = CatalogEntry(
        video_id=video_id,
        n_frames=int(sum(len(s) for s in shot_signs)),
        rows=120,
        cols=160,
        fps=3.0,
        n_shots=n_shots,
        category=category,
    )
    rows = []
    start = 1
    for k, signs in enumerate(shot_signs):
        features = FeatureVector(
            var_ba=float(rng.uniform(0.0, 400.0)),
            var_oa=float(rng.uniform(0.0, 400.0)),
        )
        rows.append(
            IndexEntry(
                video_id=video_id,
                shot_number=k + 1,
                start_frame=start,
                end_frame=start + len(signs) - 1,
                features=features,
            )
        )
        start += len(signs)
    return VideoRecord(entry=entry, tree=tree, index_entries=tuple(rows))


def add_synth_video(
    db: VideoDatabase, video_id: str, rng: np.random.Generator
) -> None:
    """Register one synthetic video in memory only (no publish, even
    on a durable database; use ``db.adopt(synth_record(...))`` for
    that)."""
    record = synth_record(video_id, rng)
    db.catalog.add(record.entry)
    for entry in record.index_entries:
        db.index.insert(entry)
    db.trees[video_id] = record.tree


def synth_database(
    seed: int,
    n_videos: int | None = None,
    config: PipelineConfig | None = None,
) -> VideoDatabase:
    """A fully-populated random database, deterministic per ``seed``."""
    rng = np.random.default_rng(seed)
    db = VideoDatabase(config)
    count = n_videos if n_videos is not None else int(rng.integers(1, 4))
    for v in range(count):
        decor = _ID_DECOR[int(rng.integers(0, len(_ID_DECOR)))]
        add_synth_video(db, f"{decor}synth-{seed}-{v}", rng)
    return db
