"""The served answer format, pinned against an object-built oracle.

:func:`repro.testing.reference.answer_payload` builds a served answer
from the in-process view — ``answer.matches`` entries and
``answer.routes`` scene nodes.  The engine writes the same document
from the index columns.  Both, and their ``json.dumps`` bytes, must be
equal: for a single query (miss and cached hit), a batch, a
category-scoped batch and a batch without a limit, on one database;
on a 4-shard R=2 cluster with a shard killed (failover); and on an
R=1 cluster with a shard killed (a partial answer).
"""

from __future__ import annotations

import json

import pytest

from repro.cluster import ClusterCoordinator
from repro.config import QueryConfig
from repro.service.engine import ServiceEngine
from repro.testing import synth_database
from repro.testing.reference import answer_payload

pytestmark = pytest.mark.cluster

_WIDE = {"alpha": 60.0, "beta": 60.0}
_POINTS = [(120.0, 80.0), (50.0, 50.0), (300.0, 9.0), (5.0, 200.0)]
_QUERIES = [{"var_ba": ba, "var_oa": oa} for ba, oa in _POINTS]


def _same(got: dict, want: dict) -> None:
    assert got == want
    assert json.dumps(got) == json.dumps(want)


def _oracle(engine, points, **kwargs) -> list[dict]:
    answers = engine.cluster.query_batch(points, config=QueryConfig(**_WIDE), **kwargs)
    return [answer_payload(answer) for answer in answers]


def _cluster(n_shards: int, replication: int) -> ClusterCoordinator:
    cluster = ClusterCoordinator.ephemeral(n_shards, replication=replication)
    source = synth_database(7, n_videos=8)
    for entry in source.catalog:
        cluster.adopt(source.export_video(entry.video_id))
    return cluster


@pytest.fixture
def engine():
    engine = ServiceEngine(synth_database(7, n_videos=8))
    yield engine
    engine.shutdown(drain=False)


def test_single_query_miss_and_hit(engine):
    for limit in (3, None):
        [want] = _oracle(engine, _POINTS[:1], limit=limit)
        miss, cached = engine.query(*_POINTS[0], limit=limit, **_WIDE)
        assert not cached and want["count"] > 0
        _same(miss, want)
        hit, cached = engine.query(*_POINTS[0], limit=limit, **_WIDE)
        assert cached
        _same(hit, want)
    empty, _ = engine.query(1.0, 399.0, limit=3)
    [want] = engine.cluster.query_batch([(1.0, 399.0)], limit=3)
    _same(empty, answer_payload(want))
    assert empty["count"] == 0


@pytest.mark.parametrize("limit", [1, 4, None])
def test_batches(engine, limit):
    got = engine.query_batch(_QUERIES, limit=limit, **_WIDE)
    _same(got, {"count": len(_POINTS), "results": _oracle(engine, _POINTS, limit=limit)})
    category = next(
        entry.category for entry in engine.db.catalog if entry.category is not None
    )
    scoped = engine.query_batch(_QUERIES, limit=limit, category=category, **_WIDE)
    want = _oracle(engine, _POINTS, limit=limit, category=category)
    _same(scoped, {"count": len(_POINTS), "results": want})
    in_scope = {entry.video_id for entry in engine.db.catalog.in_category(category)}
    assert all(m["video_id"] in in_scope for r in want for m in r["matches"])
    if limit is None:
        assert sum(r["count"] for r in want) < sum(r["count"] for r in got["results"])


@pytest.mark.parametrize(
    ("n_shards", "replication", "partial"), [(4, 2, False), (2, 1, True)]
)
def test_cluster_with_a_shard_killed(n_shards, replication, partial):
    engine = ServiceEngine(_cluster(n_shards, replication))
    try:
        whole = engine.query_batch(_QUERIES, limit=5, **_WIDE)
        _same(whole, {"count": len(_POINTS), "results": _oracle(engine, _POINTS, limit=5)})
        engine.kill_shard(1)
        for limit in (5, None):
            got = engine.query_batch(_QUERIES, limit=limit, **_WIDE)
            want = _oracle(engine, _POINTS, limit=limit)
            _same(got, {"count": len(_POINTS), "results": want})
            assert all(result["partial"] is partial for result in want)
            assert all(result["shards_failed"] for result in want)
        single, cached = engine.query(*_POINTS[0], limit=5, **_WIDE)
        assert not cached
        _same(single, _oracle(engine, _POINTS[:1], limit=5)[0])
        if not partial:
            assert single["matches"] == whole["results"][0]["matches"]
    finally:
        engine.shutdown(drain=False)
