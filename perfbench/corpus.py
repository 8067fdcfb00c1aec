"""Seeded corpora and request streams for the repo benchmark.

Everything here is a pure function of the seed: the same seed gives the
same videos, the same query-point pool and the same request sequence on
every connection.  The program under test only ever sees the generated
inputs (saved databases and HTTP requests).

Corpus shape.  Every video has ``SHOTS_PER_VIDEO`` shots whose
``(Var^BA, Var^OA)`` vectors are uniform over the paper's range, so the
Eq. 7 band of a uniform query point holds about a tenth of the corpus.
Scene trees come from real :class:`SceneTreeBuilder` runs over
scene-structured sign streams (scenes of 3-8 shots cutting between 2-3
camera set-ups), which gives trees of height ~7 like edited footage.
Building one such tree costs ~30 ms, so a seed builds a pool of
``TREE_TEMPLATES`` trees and each video takes one of them: the routes
and browse payloads see realistic trees while a 1,000-video corpus
builds in about a second.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.cluster import ClusterCoordinator
from repro.features.vector import FeatureVector
from repro.index.columnar import ColumnarVarianceIndex
from repro.index.table import IndexEntry
from repro.scenetree.builder import SceneTreeBuilder
from repro.scenetree.nodes import SceneTree
from repro.vdbms.catalog import CatalogEntry
from repro.vdbms.database import VideoDatabase, VideoRecord

SHOTS_PER_VIDEO = 100
FRAMES_PER_SIGN_SHOT = 4
TREE_TEMPLATES = 16
VAR_MAX = 400.0

#: Single queries ask for the top 10; batches carry 64 fresh points.
LIMIT = 10
BATCH_SIZE = 64
#: Query points come from a pool; a Pareto draw sends 80% of queries to
#: 20% of it (100 hot points), so the 256-entry result cache both hits
#: and misses.
POINT_POOL = 500
PARETO_RATIO = 0.8

#: Request mix of the query stream: 75% /query, 10% /query/batch, 15%
#: browse split evenly between the tree and shots views.  The stream
#: deals shuffled decks of 40 requests, so every seed gets the same
#: shares (batches cost ~70x a query; a random draw would let the batch
#: count, and with it CPU per request, swing by ~10% between seeds).
DECK = {"query": 30, "batch": 4, "tree": 3, "shots": 3}

#: Synthetic ingests: 8 shots of 12 frames (the service's own clip spec).
INGEST_SHOTS = 8
INGEST_FRAMES_PER_SHOT = 12

CLUSTER_SHARDS = 4
CLUSTER_REPLICATION = 2


@dataclass(frozen=True)
class Workload:
    """One traffic mix: corpus size, layout and what each connection runs.

    Every workload drives exactly two persistent connections: the
    ``query_streams`` first run the query stream, the rest run
    closed-loop ingests during the timed window.
    """

    name: str
    n_videos: int
    cluster: bool
    query_streams: int


WORKLOADS = {
    # The ROADMAP's 100k shots: kernel, routes, cache and HTTP, no writes.
    "search_single": Workload("search_single", 1_000, False, 2),
    # 20k shots on 4 shards x 2 copies: scatter-gather and merge dominate.
    "search_cluster": Workload("search_cluster", 200, True, 2),
    # 5k shots; one connection ingests while the other queries.
    "ingest_mixed": Workload("ingest_mixed", 50, False, 1),
}
CONNECTIONS = 2


class Pareto:
    """80/20 draw over an ordered value list (pyrqg's ParetoDistribution).

    The first ``1 - ratio`` share of ``values`` is the common set and
    receives ``ratio`` of the draws; the rest share the remainder.
    """

    def __init__(self, values: list[Any], ratio: float = PARETO_RATIO) -> None:
        self.values = values
        self.ratio = ratio
        self.split = max(1, int(len(values) * (1.0 - ratio)))

    def draw(self, rng: np.random.Generator) -> Any:
        if rng.random() < self.ratio or self.split >= len(self.values):
            return self.values[int(rng.integers(self.split))]
        return self.values[int(rng.integers(self.split, len(self.values)))]


def _scene_signs(rng: np.random.Generator, n_shots: int) -> list[np.ndarray]:
    """Background sign streams of one edited clip, scene by scene."""
    signs: list[np.ndarray] = []
    while len(signs) < n_shots:
        setups = [rng.integers(0, 256, size=3) for _ in range(int(rng.integers(2, 4)))]
        for k in range(int(rng.integers(3, 9))):
            jitter = rng.integers(-3, 4, size=(FRAMES_PER_SIGN_SHOT, 3))
            signs.append(np.clip(setups[k % len(setups)] + jitter, 0, 255).astype(np.int16))
    return signs[:n_shots]


def video_ids(n_videos: int, prefix: str = "video") -> list[str]:
    return [f"{prefix}-{v:04d}" for v in range(n_videos)]


def build_records(seed: int, n_videos: int, prefix: str = "video") -> list[VideoRecord]:
    """The corpus: ``n_videos`` derived video records of 100 shots."""
    rng = np.random.default_rng([seed, 1, *prefix.encode()])
    templates = [
        SceneTreeBuilder().build(_scene_signs(rng, SHOTS_PER_VIDEO), f"template-{k}")
        for k in range(TREE_TEMPLATES)
    ]
    records: list[VideoRecord] = []
    for video_id in video_ids(n_videos, prefix):
        template = templates[int(rng.integers(TREE_TEMPLATES))]
        tree = SceneTree(template.root, template.leaves, clip_name=video_id)
        var_ba = rng.uniform(0.0, VAR_MAX, SHOTS_PER_VIDEO)
        var_oa = rng.uniform(0.0, VAR_MAX, SHOTS_PER_VIDEO)
        entries = tuple(
            IndexEntry(
                video_id=video_id,
                shot_number=k + 1,
                start_frame=k * FRAMES_PER_SIGN_SHOT,
                end_frame=(k + 1) * FRAMES_PER_SIGN_SHOT - 1,
                features=FeatureVector(var_ba=float(var_ba[k]), var_oa=float(var_oa[k])),
            )
            for k in range(SHOTS_PER_VIDEO)
        )
        entry = CatalogEntry(
            video_id=video_id,
            n_frames=SHOTS_PER_VIDEO * FRAMES_PER_SIGN_SHOT,
            rows=60,
            cols=80,
            fps=3.0,
            n_shots=SHOTS_PER_VIDEO,
        )
        records.append(VideoRecord(entry=entry, tree=tree, index_entries=entries))
    return records


def memory_database(records: list[VideoRecord]) -> VideoDatabase:
    """One in-memory database holding every record (the reference)."""
    db = VideoDatabase()
    for record in records:
        db.catalog.add(record.entry)
        db.trees[record.video_id] = record.tree
    db.index = ColumnarVarianceIndex(
        entry for record in records for entry in record.index_entries
    )
    return db


def persist(records: list[VideoRecord], root: Path, cluster: bool) -> VideoDatabase | None:
    """Write the corpus where ``repro serve --db root`` will open it.

    A single database is built in memory and saved in one publish; it is
    returned, as it is also the oracle.  A cluster goes through
    ``ClusterCoordinator.create`` + ``adopt``, so every video is
    published durably on its home and replica shard; returns None.
    """
    if not cluster:
        db = memory_database(records)
        db.save(root)
        return db
    coordinator = ClusterCoordinator.create(
        root, CLUSTER_SHARDS, replication=CLUSTER_REPLICATION
    )
    try:
        for record in records:
            coordinator.adopt(record)
    finally:
        coordinator.close()
    return None


def point_pool(seed: int) -> list[tuple[float, float]]:
    rng = np.random.default_rng([seed, 2])
    return [
        (float(a), float(b)) for a, b in rng.uniform(0.0, VAR_MAX, size=(POINT_POOL, 2))
    ]


def fresh_points(rng: np.random.Generator, n: int) -> list[tuple[float, float]]:
    return [(float(a), float(b)) for a, b in rng.uniform(0.0, VAR_MAX, size=(n, 2))]


@dataclass(frozen=True)
class Request:
    """One HTTP request of a stream."""

    op: str
    method: str
    path: str
    body: dict[str, Any] | None = None


class QueryStream:
    """The seeded query/batch/browse request sequence of one connection."""

    def __init__(self, seed: int, stream: int, n_videos: int) -> None:
        self.rng = np.random.default_rng([seed, 3, stream])
        self.points = Pareto(point_pool(seed))
        ids = video_ids(n_videos)
        order = np.random.default_rng([seed, 4]).permutation(len(ids))
        self.videos = Pareto([ids[k] for k in order])
        self._deck = [op for op, count in DECK.items() for _ in range(count)]
        self._dealt: list[str] = []

    def next(self) -> Request:
        if not self._dealt:
            self._dealt = [self._deck[k] for k in self.rng.permutation(len(self._deck))]
        op = self._dealt.pop()
        if op == "query":
            var_ba, var_oa = self.points.draw(self.rng)
            return Request(
                op, "POST", "/query", {"var_ba": var_ba, "var_oa": var_oa, "limit": LIMIT}
            )
        if op == "batch":
            queries = [
                {"var_ba": a, "var_oa": b} for a, b in fresh_points(self.rng, BATCH_SIZE)
            ]
            return Request(op, "POST", "/query/batch", {"queries": queries, "limit": LIMIT})
        return Request(op, "GET", f"/videos/{self.videos.draw(self.rng)}/{op}")


class IngestStream:
    """The seeded synthetic-ingest specs of one connection."""

    def __init__(self, seed: int, stream: int) -> None:
        self.rng = np.random.default_rng([seed, 5, stream])
        self.prefix = f"ingest-{seed}-{stream}"
        self.count = 0

    def next(self) -> dict[str, Any]:
        self.count += 1
        return {
            "source": "synthetic",
            "video_id": f"{self.prefix}-{self.count:05d}",
            "n_shots": INGEST_SHOTS,
            "frames_per_shot": INGEST_FRAMES_PER_SHOT,
            "seed": int(self.rng.integers(1 << 20)),
        }
