"""``repro query --explain`` and the HTTP trace surface agree.

Runs the CLI against a durable database built from the paper's three
golden clips and asserts the EXPLAIN output carries the decision
evidence an operator needs (band-probe bounds, candidate/pruned
counts, per-stage timings, index statistics) — then
issues the same query over HTTP with ``X-Trace-Id`` and checks
``/debug/traces`` exposes the matching span structure.
"""

from __future__ import annotations

import json
import re
import threading
import urllib.request

import pytest

from repro import cli
from repro.service.engine import ServiceEngine
from repro.service.server import create_server
from repro.testing.golden import GOLDEN_SPECS, build_clip
from repro.vdbms.database import VideoDatabase

pytestmark = pytest.mark.obs


@pytest.fixture(scope="module")
def golden_db_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("obs-golden") / "db"
    db = VideoDatabase.open(root)
    for spec in GOLDEN_SPECS:
        db.ingest(build_clip(spec))
    return root


def test_explain_prints_the_decision_evidence(golden_db_root, capsys):
    rc = cli.main(
        [
            "query",
            "background calm, foreground calm, limit 5",
            "--db",
            str(golden_db_root),
            "--explain",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    # The span tree with its timings...
    assert re.search(r"trace [0-9a-f]+.*ms total", out)
    assert "db.query" in out and "index.search" in out
    assert re.search(r"\d+\.\d{3} ms", out)
    # ...the band-probe evidence...
    assert "band_low=" in out and "band_high=" in out
    assert "band_rows=" in out
    assert "candidates=" in out and "pruned=" in out
    # ...and the index statistics block.
    assert "index statistics:" in out
    assert re.search(r"rows\s+\d+", out)
    assert "d_v_range" in out


def test_explain_covers_the_batch_kernel(golden_db_root, tmp_path, capsys):
    batch_file = tmp_path / "batch.json"
    batch_file.write_text(
        json.dumps(
            {
                "queries": [
                    {"var_ba": 1.0, "var_oa": 1.0},
                    {"var_ba": 4.0, "var_oa": 2.0},
                ],
                "limit": 3,
            }
        ),
        encoding="utf-8",
    )
    rc = cli.main(
        [
            "query",
            "--db",
            str(golden_db_root),
            "--batch-file",
            str(batch_file),
            "--explain",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "db.query_batch" in out and "index.search_batch" in out
    assert "n_queries=2" in out
    assert "band_rows=" in out


def test_explain_off_by_default(golden_db_root, capsys):
    rc = cli.main(
        [
            "query",
            "background calm, foreground calm, limit 5",
            "--db",
            str(golden_db_root),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "trace" not in out
    assert "index statistics" not in out


def test_http_trace_matches_the_explain_structure(golden_db_root):
    engine = ServiceEngine(VideoDatabase.open(golden_db_root), n_workers=1,
                           watchdog_interval=0)
    server = create_server(engine)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://{host}:{port}"
    try:
        request = urllib.request.Request(
            f"{base}/query?var_ba=1.0&var_oa=1.0&limit=5",
            headers={"X-Trace-Id": "explain-parity"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            payload = json.loads(response.read().decode("utf-8"))
        assert payload["trace_id"] == "explain-parity"

        with urllib.request.urlopen(f"{base}/debug/traces", timeout=30) as r:
            debug = json.loads(r.read().decode("utf-8"))
        doc = next(
            d for d in debug["traces"] if d["trace_id"] == "explain-parity"
        )
        from repro.obs import iter_spans

        names = {node["name"] for _, node in iter_spans(doc)}
        # The same read-path stages EXPLAIN prints, under a request root.
        assert {"request", "cache.get", "db.query", "index.search"} <= names
        search = next(
            node for _, node in iter_spans(doc) if node["name"] == "index.search"
        )
        ann = search["annotations"]
        assert {"band_low", "band_high", "band_rows", "candidates",
                "pruned"} <= set(ann)
        assert ann["band_rows"] == ann["candidates"] + ann["pruned"]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        engine.shutdown()
