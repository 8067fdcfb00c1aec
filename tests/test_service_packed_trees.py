"""The served path reads packed trees and builds no scene-tree node.

A database opened from disk holds each scene tree packed
(:class:`~repro.scenetree.serialize.PackedTree`).  ``/query`` (a miss
and a cached hit), ``/query/batch``, ``/videos/<id>/tree`` and
``/videos/<id>/shots`` are answered from the packed columns and the
route targets computed at packing, on one opened database and on a
reopened 2-shard R=2 cluster: no packed tree is unpacked.  The served
routes still name the nodes an in-process caller's routes do.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterCoordinator
from repro.config import QueryConfig
from repro.scenetree.serialize import PackedTree
from repro.service.engine import ServiceEngine
from repro.testing import synth_database
from repro.vdbms.database import VideoDatabase

pytestmark = pytest.mark.cluster

#: Wide tolerances, so every probe matches shots of several videos.
_WIDE = {"alpha": 60.0, "beta": 60.0}


def _spy_unpacks(monkeypatch) -> list[PackedTree]:
    """Every packed tree unpacked from now on."""
    seen: list[PackedTree] = []
    unpack = PackedTree.unpack

    def spy(self: PackedTree):
        seen.append(self)
        return unpack(self)

    monkeypatch.setattr(PackedTree, "unpack", spy)
    return seen


def _opened_database(root):
    synth_database(3, n_videos=4).save(root)
    return VideoDatabase.open(root)


def _opened_cluster(root):
    cluster = ClusterCoordinator.create(root, 2, replication=2)
    source = synth_database(3, n_videos=4)
    for entry in source.catalog:
        cluster.adopt(source.export_video(entry.video_id))
    cluster.close()
    return ClusterCoordinator.open(root)


@pytest.mark.parametrize("opener", [_opened_database, _opened_cluster])
def test_served_requests_unpack_no_tree(tmp_path, monkeypatch, opener):
    served = opener(tmp_path / "db")
    unpacks = _spy_unpacks(monkeypatch)
    engine = ServiceEngine(served)
    try:
        video_id = engine.cluster.video_ids()[0]
        probe = engine.cluster.shot_entries(video_id)[0].features
        point = {"var_ba": probe.var_ba, "var_oa": probe.var_oa}
        miss, cached = engine.query(**point, limit=5, **_WIDE)
        assert not cached
        hit, cached = engine.query(**point, limit=5, **_WIDE)
        assert cached and hit == miss
        batch = engine.query_batch([point, {"var_ba": 50.0, "var_oa": 50.0}], **_WIDE)
        tree = engine.tree_payload(video_id)
        shots = engine.shots_payload(video_id)
        assert miss["routes"] and all(route["scene_node"] for route in miss["routes"])
        assert batch["count"] == 2 and tree["n_shots"] == shots["count"]
        assert unpacks == []

        # The served routes name the nodes the in-process routes do.
        answer = engine.cluster.query(
            probe.var_ba, probe.var_oa, limit=5, config=QueryConfig(**_WIDE)
        )
        assert [route["scene_node"] for route in miss["routes"]] == [
            route.node.label for route in answer.routes
        ]
        assert unpacks
    finally:
        engine.shutdown(drain=False)
