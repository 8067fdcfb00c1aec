"""The served query path writes answers from index columns.

``/query`` (a miss and a cached hit), ``/query/batch`` and a
category-scoped batch go through :class:`ServiceEngine` on an opened
database and on a reopened 2-shard R=2 cluster without building one
:class:`~repro.index.table.IndexEntry`: ``ColumnarVarianceIndex._rows``,
the one place index rows become entries, is never called.  An
in-process caller reading ``answer.matches`` still gets its entries
through it.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterCoordinator
from repro.config import QueryConfig
from repro.index.columnar import ColumnarVarianceIndex
from repro.service.engine import ServiceEngine
from repro.testing import synth_database
from repro.vdbms.database import VideoDatabase

pytestmark = pytest.mark.cluster

#: Wide tolerances, so every probe matches shots of several videos.
_WIDE = {"alpha": 60.0, "beta": 60.0}


def _spy_rows(monkeypatch) -> list[int]:
    """The query positions of every entry list built from now on."""
    built: list[int] = []
    rows = ColumnarVarianceIndex._rows

    def spy(matches, k=0):
        built.append(k)
        return rows(matches, k)

    monkeypatch.setattr(ColumnarVarianceIndex, "_rows", staticmethod(spy))
    return built


def _opened_database(root):
    synth_database(5, n_videos=6).save(root)
    return VideoDatabase.open(root)


def _opened_cluster(root):
    cluster = ClusterCoordinator.create(root, 2, replication=2)
    source = synth_database(5, n_videos=6)
    for entry in source.catalog:
        cluster.adopt(source.export_video(entry.video_id))
    cluster.close()
    return ClusterCoordinator.open(root)


@pytest.mark.parametrize("opener", [_opened_database, _opened_cluster])
def test_served_queries_build_no_entries(tmp_path, monkeypatch, opener):
    served = opener(tmp_path / "db")
    engine = ServiceEngine(served)
    try:
        category = next(
            entry.category
            for entry in engine.cluster.catalog_entries()
            if entry.category is not None
        )
        built = _spy_rows(monkeypatch)
        point = {"var_ba": 120.0, "var_oa": 80.0}
        miss, cached = engine.query(**point, limit=5, **_WIDE)
        assert not cached and miss["count"] == 5
        hit, cached = engine.query(**point, limit=5, **_WIDE)
        assert cached and hit == miss
        queries = [point, {"var_ba": 50.0, "var_oa": 50.0}, {"var_ba": 300.0, "var_oa": 9.0}]
        batch = engine.query_batch(queries, limit=4, **_WIDE)
        scoped = engine.query_batch(queries, category=category, **_WIDE)
        assert batch["count"] == scoped["count"] == 3
        assert all(result["matches"] for result in batch["results"])
        assert any(result["matches"] for result in scoped["results"])
        assert built == []

        answer = engine.cluster.query(
            point["var_ba"], point["var_oa"], limit=5, config=QueryConfig(**_WIDE)
        )
        assert [m.shot_id for m in answer.matches] == [
            m["shot_id"] for m in miss["matches"]
        ]
        assert built == [0]
    finally:
        engine.shutdown(drain=False)
