"""The one read path against the scan oracle.

``VideoDatabase.query`` is a batch of one, so comparing it with
``query_batch`` would compare the path with itself.  This suite checks
``query_batch`` — batches of one and of many — against the plain scan of
:func:`repro.index.query.search` over the same entries, followed by the
category filter and the cap, and checks every answer's routes against
:func:`~repro.index.routing.route_to_scene_nodes` over the oracle's
matches.  Seeded corpora from :func:`repro.testing.synth_database`
(about half its videos carry a random category).  The same oracle
checks ``ServiceEngine.query`` and ``query_batch`` over a plain
database, which the engine serves as a one-shard cluster.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import QueryConfig
from repro.index.query import VarianceQuery, search
from repro.index.routing import route_to_scene_nodes
from repro.index.table import IndexTable
from repro.service.engine import ServiceEngine
from repro.testing.synth import synth_database
from repro.workloads.taxonomy import VideoCategory

SEEDS = list(range(30))
BATCH_SIZES = (1, 7)
LIMITS = (None, 1, 10)
#: Tolerances from the paper's strict 1.0 up to "every shot matches".
TOLERANCES = (1.0, 4.0, 40.0)


def _oracle(db, point, config, limit, category, exclude):
    table = IndexTable(db.index.entries)
    matches = search(table, VarianceQuery(*point), config, exclude_shot=exclude)
    if category is not None:
        allowed = {entry.video_id for entry in db.catalog.in_category(category)}
        matches = [m for m in matches if m.video_id in allowed]
    return matches if limit is None else matches[:limit]


def _case(seed: int):
    """A corpus, a shared category and tolerances, and per-query points
    with exclusions: half probe an indexed shot and leave it out
    (query-by-example), half are uniform with no exclusion."""
    rng = np.random.default_rng(20_000 + seed)
    db = synth_database(seed, n_videos=int(rng.integers(2, 9)))
    categories = [e.category for e in db.catalog if e.category is not None]
    category = (
        categories[int(rng.integers(len(categories)))]
        if categories
        else VideoCategory(genres=("comedy",), forms=("feature",))
    )
    config = QueryConfig(
        alpha=float(rng.choice(TOLERANCES)), beta=float(rng.choice(TOLERANCES))
    )
    entries = db.index.entries
    points, excludes = [], []
    for k in range(max(BATCH_SIZES)):
        if k % 2 == 0:
            probe = entries[int(rng.integers(len(entries)))]
            points.append((probe.features.var_ba, probe.features.var_oa))
            excludes.append((probe.video_id, probe.shot_number))
        else:
            points.append(tuple(float(v) for v in rng.uniform(0.0, 400.0, 2)))
            excludes.append(None)
    return db, category, config, points, excludes


@pytest.mark.parametrize("seed", SEEDS)
def test_query_batch_matches_the_scan_oracle(seed):
    db, category, config, points, excludes = _case(seed)
    for size in BATCH_SIZES:
        batch, batch_excludes = points[:size], excludes[:size]
        for limit in LIMITS:
            for scope in (None, category):
                answers = db.query_batch(
                    batch,
                    limit=limit,
                    category=scope,
                    config=config,
                    exclude_shots=batch_excludes,
                )
                assert len(answers) == size
                for point, exclude, answer in zip(batch, batch_excludes, answers):
                    expected = _oracle(db, point, config, limit, scope, exclude)
                    assert answer.matches == expected, (size, limit, scope, point)
                    assert answer.routes == route_to_scene_nodes(expected, db.trees)


@pytest.mark.parametrize("seed", SEEDS[:10])
def test_single_query_and_unexcluded_batch_match_the_oracle(seed):
    db, category, config, points, _ = _case(seed)
    for limit in LIMITS:
        for scope in (None, category):
            answers = db.query_batch(points, limit=limit, category=scope, config=config)
            for point, answer in zip(points, answers):
                expected = _oracle(db, point, config, limit, scope, None)
                assert answer.matches == expected
                single = db.query(*point, limit=limit, category=scope, config=config)
                assert single.matches == expected
                assert single.routes == route_to_scene_nodes(expected, db.trees)


def _served_key(payload):
    """Ranked shot ids and routes of one served answer."""
    matches = [(m["video_id"], m["shot_number"]) for m in payload["matches"]]
    routes = [
        (r["shot_id"], r["scene_node"], r["representative_frame"], r["suggestion"])
        for r in payload["routes"]
    ]
    return matches, routes


def _oracle_key(db, matches):
    """The served form of the oracle's matches and their routes."""
    routes = [
        (
            route.entry.shot_id,
            route.node.label if route.node is not None else None,
            route.node.representative_frame if route.node is not None else None,
            route.suggestion,
        )
        for route in route_to_scene_nodes(matches, db.trees)
    ]
    return [(m.video_id, m.shot_number) for m in matches], routes


@pytest.mark.parametrize("seed", SEEDS[:10])
def test_engine_over_a_plain_database_matches_the_oracle(seed):
    """A plain database is served as a one-shard cluster: the engine's
    single and batch answers are the oracle's, complete, from one shard."""
    db, category, config, points, _ = _case(seed)
    engine = ServiceEngine(db, n_workers=1, watchdog_interval=0)
    scope_kw = {"alpha": config.alpha, "beta": config.beta}
    try:
        for limit in (None, 10):
            for scope in (None, category):
                for size in BATCH_SIZES:
                    batch = points[:size]
                    served = engine.query_batch(
                        [{"var_ba": ba, "var_oa": oa} for ba, oa in batch],
                        limit=limit,
                        category=scope,
                        **scope_kw,
                    )
                    assert served["count"] == size
                    for point, payload in zip(batch, served["results"]):
                        expected = _oracle(db, point, config, limit, scope, None)
                        assert _served_key(payload) == _oracle_key(db, expected)
                        assert payload["shards_queried"] == 1
                        assert payload["partial"] is False
                for point in points:
                    payload, _ = engine.query(
                        *point, limit=limit, category=scope, **scope_kw
                    )
                    expected = _oracle(db, point, config, limit, scope, None)
                    assert _served_key(payload) == _oracle_key(db, expected)
                    assert payload["shards_queried"] == 1
                    assert payload["partial"] is False
    finally:
        engine.shutdown(timeout=10)
