"""The benchmark's own tests: smoke runs, output schema, correctness check.

Run from the repository root::

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from check import check_served
from corpus import WORKLOADS, build_records, memory_database
from load import Client
from repro.service.engine import ServiceEngine
from repro.service.server import create_server

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "3", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_schema(workload: str, trace: int):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float), m["name"]
        if not trace:
            assert got["value"] > 0, m["name"]
    record = json.loads((BENCH / "out" / f"{workload}-seed3-trace{trace}.json").read_text())
    if trace:
        assert {"layers", "spans"} <= set(record)
    else:
        assert record["epochs"] and record["shares"]["op_counts"]["query"] > 0


def test_fails_without_the_program(tmp_path: Path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = _run(tmp_path, "search_single", 0)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.fixture
def served():
    """An in-process server over a small corpus, plus its oracle."""
    records = build_records(5, 6)
    engine = ServiceEngine(memory_database(records))
    server = create_server(engine)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = Client(server.server_address[1])
    try:
        yield engine, client, memory_database(records)
    finally:
        client.close()
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        engine.shutdown()


def test_check_passes_on_correct_answers(served):
    _engine, client, oracle = served
    assert check_served(client, oracle, seed=5, n_videos=6) == []


def _tamper(engine: ServiceEngine, change) -> None:
    original = engine._answer_payload

    def wrong(answer):
        payload = original(answer)
        if payload["matches"]:
            change(payload)
        return payload

    engine._answer_payload = wrong


def test_check_catches_wrong_rank_order(served):
    engine, client, oracle = served

    def swap(payload):
        payload["matches"].reverse()

    _tamper(engine, swap)
    errors = check_served(client, oracle, seed=5, n_videos=6)
    assert any("matches" in e for e in errors), errors


def test_check_catches_wrong_route(served):
    engine, client, oracle = served

    def reroute(payload):
        payload["routes"][0]["scene_node"] = "SN_wrong"

    _tamper(engine, reroute)
    errors = check_served(client, oracle, seed=5, n_videos=6)
    assert any("routes" in e for e in errors), errors
