"""Correctness of the served answers against the in-process oracle.

Before anything is timed, a seeded sample of ``POST /query`` and
``POST /query/batch`` answers is compared with ``VideoDatabase.query``
and ``query_batch`` on an in-memory database holding the same corpus:
the matched shot ids, their rank order and each match's scene-tree
route node must be identical.  For the cluster workload the oracle is
one single database with all of the cluster's shots, so the check also
proves that scatter-gather returns the single-database answer.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from corpus import BATCH_SIZE, LIMIT, Pareto, fresh_points, point_pool, video_ids
from load import Client
from repro.vdbms.database import QueryAnswer, VideoDatabase

SINGLE_SAMPLE = 12
BATCH_SAMPLE = 2
BROWSE_SAMPLE = 4

Key = tuple[tuple[tuple[str, int], ...], tuple[tuple[str, str | None], ...]]


def served_key(payload: dict[str, Any]) -> Key:
    """Ranked matches and routes of one HTTP answer."""
    matches = tuple((m["video_id"], m["shot_number"]) for m in payload["matches"])
    routes = tuple((r["shot_id"], r["scene_node"]) for r in payload["routes"])
    return matches, routes


def oracle_key(answer: QueryAnswer) -> Key:
    """Ranked matches and routes of one in-process answer."""
    matches = tuple((e.video_id, e.shot_number) for e in answer.matches)
    routes = tuple(
        (r.entry.shot_id, r.node.label if r.node is not None else None)
        for r in answer.routes
    )
    return matches, routes


def compare(label: str, got: Key, want: Key) -> list[str]:
    """Mismatch descriptions (empty when the answers are identical)."""
    if got == want:
        return []
    if got[0] != want[0]:
        return [f"{label}: matches {list(got[0])[:4]}... != oracle {list(want[0])[:4]}..."]
    return [f"{label}: routes {list(got[1])[:4]}... != oracle {list(want[1])[:4]}..."]


def check_served(client: Client, oracle: VideoDatabase, seed: int, n_videos: int) -> list[str]:
    """Compare a seeded sample of served answers with ``oracle``.

    Every single-query point is asked twice, so the second answer comes
    from the result cache and is checked too.  Returns the mismatches.
    """
    rng = np.random.default_rng([seed, 6])
    points = Pareto(point_pool(seed))
    errors: list[str] = []
    nonempty = 0
    for k in range(SINGLE_SAMPLE):
        var_ba, var_oa = points.draw(rng)
        want = oracle_key(oracle.query(var_ba, var_oa, limit=LIMIT))
        nonempty += bool(want[0])
        for attempt in ("miss", "hit"):
            payload = client.json(
                "POST", "/query", {"var_ba": var_ba, "var_oa": var_oa, "limit": LIMIT}
            )
            errors += compare(f"query {k} ({attempt})", served_key(payload), want)
            if payload.get("partial"):
                errors.append(f"query {k} ({attempt}): partial answer")
    for b in range(BATCH_SAMPLE):
        batch = fresh_points(rng, BATCH_SIZE)
        answers = oracle.query_batch(batch, limit=LIMIT)
        payload = client.json(
            "POST",
            "/query/batch",
            {"queries": [{"var_ba": a, "var_oa": o} for a, o in batch], "limit": LIMIT},
        )
        if payload["count"] != len(answers):
            errors.append(f"batch {b}: {payload['count']} results for {len(answers)} queries")
        for k, (result, answer) in enumerate(zip(payload["results"], answers)):
            errors += compare(f"batch {b}[{k}]", served_key(result), oracle_key(answer))
            if result.get("partial"):
                errors.append(f"batch {b}[{k}]: partial answer")
    ids = video_ids(n_videos)
    for k in range(BROWSE_SAMPLE):
        video_id = ids[int(rng.integers(len(ids)))]
        tree = client.json("GET", f"/videos/{video_id}/tree")
        if tree["n_shots"] != oracle.scene_tree(video_id).n_shots:
            errors.append(f"tree {video_id}: {tree['n_shots']} shots")
        shots = client.json("GET", f"/videos/{video_id}/shots")
        want_shots = sorted(oracle.index.entries_for(video_id), key=lambda e: e.shot_number)
        if [row["shot"] for row in shots["shots"]] != [e.shot_id for e in want_shots]:
            errors.append(f"shots {video_id}: rows differ from the oracle")
    if not nonempty:
        errors.append("every sampled query came back empty: the check proves nothing")
    return errors
