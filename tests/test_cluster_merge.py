"""The cluster merge over match-set columns ranks exactly as the scan.

Shots that tie on distance, ``D^v`` and ``sqrt(Var^BA)`` live on
different shards of a 4-shard, R=2 cluster, in videos whose ids differ
only by case, by trailing ``"\\x00"`` characters, by one non-ASCII
character, or as a prefix, so the ranking is decided by the video id
in Python ``str`` order and then by the shot number.  Every answer,
single or batch, at limits 1, 3 and None, must equal the table scan
:func:`repro.index.query.search` over every shot.

A divergent replica (two copies of a video holding different rows, as
before a repair) must still answer each shot once, from the copy of
the last shard that answered with it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ClusterCoordinator
from repro.config import QueryConfig
from repro.features.vector import FeatureVector
from repro.index.query import VarianceQuery, search
from repro.index.table import IndexEntry, IndexTable
from repro.scenetree.builder import SceneTreeBuilder
from repro.vdbms.catalog import CatalogEntry
from repro.vdbms.database import VideoRecord

pytestmark = pytest.mark.cluster

#: Ids equal but for case, trailing NULs, one non-ASCII character or a
#: prefix: a numpy ``<U`` array would compare "clip" and "clip\x00"
#: equal, and byte order would put "clïp" elsewhere than ``str`` does.
VIDEO_IDS = [
    "clip", "Clip", "CLIP", "clip\x00", "clip\x00\x00", "clipé", "clipe", "clïp",
    "cli", "clip-2",
]

#: Per video, the ``(Var^BA, Var^OA)`` of its shots.  Shots 1 and 3
#: tie on every coordinate; shot 2 ties with them on distance and
#: ``D^v`` for the first query below (sqrt(Var^BA) 11 vs 10).
SHOTS = [(100.0, 25.0), (121.0, 36.0), (100.0, 25.0), (81.0, 16.0), (100.0, 16.0)]

#: Query points: between the tie groups, on one of them, and on none.
POINTS = [(110.25, 30.25), (100.0, 25.0), (121.0, 36.0), (90.0, 30.0)]

CONFIG = QueryConfig(alpha=5.0, beta=5.0)


def _record(video_id: str, shots: list[tuple[float, float]]) -> VideoRecord:
    signs = [
        np.full((3, 3), k % 3 - 1, dtype=np.int8) for k in range(len(shots))
    ]
    tree = SceneTreeBuilder().build(signs, video_id)
    entry = CatalogEntry(
        video_id=video_id,
        n_frames=3 * len(shots),
        rows=120,
        cols=160,
        fps=3.0,
        n_shots=len(shots),
    )
    rows = tuple(
        IndexEntry(video_id, k + 1, 3 * k + 1, 3 * k + 3, FeatureVector(ba, oa))
        for k, (ba, oa) in enumerate(shots)
    )
    return VideoRecord(entry=entry, tree=tree, index_entries=rows)


def _ids(entries) -> list[tuple[str, int]]:
    return [(entry.video_id, entry.shot_number) for entry in entries]


@pytest.fixture(scope="module")
def tied():
    cluster = ClusterCoordinator.ephemeral(4, replication=2)
    records = [_record(video_id, SHOTS) for video_id in VIDEO_IDS]
    for record in records:
        cluster.adopt(record)
    table = IndexTable(entry for record in records for entry in record.index_entries)
    yield cluster, table
    cluster.close()


def test_tied_videos_span_the_shards(tied):
    cluster, _ = tied
    holders = {cluster.holders_of(video_id) for video_id in VIDEO_IDS}
    assert len({shard for held in holders for shard in held}) == 4
    assert len(holders) >= 4


@pytest.mark.parametrize("limit", [1, 3, None])
def test_single_and_batch_rank_as_the_scan(tied, limit):
    cluster, table = tied
    want = [
        _ids(search(table, VarianceQuery(*point), CONFIG, limit=limit))
        for point in POINTS
    ]
    assert all(want)
    singles = [
        _ids(cluster.query(*point, limit=limit, config=CONFIG).matches)
        for point in POINTS
    ]
    batch = [
        _ids(answer.matches)
        for answer in cluster.query_batch(POINTS, limit=limit, config=CONFIG)
    ]
    assert singles == want
    assert batch == want


def test_video_ids_rank_in_str_order(tied):
    """Shot 1 of every video ties on every coordinate with every other
    video's: the full ranking lists them in ``sorted()`` order."""
    cluster, _ = tied
    answer = cluster.query(100.0, 25.0, config=CONFIG)
    tied_first = [
        entry.video_id for entry in answer.matches if entry.shot_number == 1
    ]
    assert tied_first == sorted(VIDEO_IDS)


def _per_shard_oracle(cluster, point, limit):
    """The merge contract: each shard's top ``limit``, in answer order,
    each shot keeping the last copy seen, then ranked and capped."""
    query = VarianceQuery(*point)
    kept: dict[tuple[str, int], IndexEntry] = {}
    for shard in cluster.shards:
        rows = IndexTable(shard.db.index.entries)
        for entry in search(rows, query, CONFIG, limit=limit):
            kept[(entry.video_id, entry.shot_number)] = entry
    return sorted(kept.values(), key=query.rank_key)[:limit]


@pytest.mark.parametrize("stale_first", [True, False])
def test_divergent_copies_keep_the_last_shards_row(stale_first):
    """Two copies of one video disagree on shot 1's row.  Each copy's
    row matches the query, at different distances with other shots in
    between, so dropping adjacent duplicates after the rank sort would
    keep both."""
    cluster = ClusterCoordinator.ephemeral(4, replication=2)
    try:
        for video_id in VIDEO_IDS[:6]:
            cluster.adopt(_record(video_id, SHOTS))
        first, last = sorted(cluster.holders_of("clip"))  # answer order
        moved = [(104.04, 29.16), *SHOTS[1:]]  # shot 1 at distance 0.28, not 0
        cluster.shard(first if stale_first else last).db.replace(_record("clip", moved))
        point = (100.0, 25.0)
        for limit in (None, 3, 8):
            got = cluster.query(*point, limit=limit, config=CONFIG).matches
            assert _ids(got).count(("clip", 1)) <= 1
            assert [(e.video_id, e.shot_number, e.features) for e in got] == [
                (e.video_id, e.shot_number, e.features)
                for e in _per_shard_oracle(cluster, point, limit)
            ]
        answers = cluster.query_batch([point, (121.0, 36.0)], config=CONFIG)
        [row] = [e for e in answers[0].matches if _ids([e]) == [("clip", 1)]]
        expected = (SHOTS if stale_first else moved)[0]
        assert (row.features.var_ba, row.features.var_oa) == expected
        for answer, other in zip(answers, [point, (121.0, 36.0)]):
            assert _ids(answer.matches) == _ids(_per_shard_oracle(cluster, other, None))
    finally:
        cluster.close()


def test_merged_rows_keep_their_routes(tied):
    """Each merged row keeps the packed tree its shard read with it, so
    its route is the Sec. 4.2 node of its own video."""
    cluster, _ = tied
    answer = cluster.query(110.25, 30.25, limit=12, config=CONFIG)
    assert len(answer.routes) == 12
    for route in answer.routes:
        tree = cluster.packed_tree(route.entry.video_id).unpack()
        frame = tree.node_for_shot(route.entry.shot_number - 1).representative_frame
        want = None if frame is None else tree.largest_scene_with_representative(frame)
        assert (route.node.label if route.node else None) == (
            want.label if want else None
        )
