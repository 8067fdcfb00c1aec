"""Tests for the command-line interface (repro.cli)."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.service.engine import clip_from_spec
from repro.testing import synth_database
from repro.vdbms.database import VideoDatabase
from repro.video.avi import write_avi
from repro.video.clip import VideoClip
from repro.video.io import write_rvid


@pytest.fixture(scope="module")
def demo_db(tmp_path_factory):
    """A demo database built once for the read-only commands."""
    db_dir = str(tmp_path_factory.mktemp("clidb"))
    assert main(["demo", "--db", db_dir]) == 0
    return db_dir


def _cut_clip(name="cli-clip"):
    frames = np.zeros((18, 60, 80, 3), dtype=np.uint8)
    frames[:9] = 60
    frames[9:] = 200
    return VideoClip(name, frames, fps=3.0)


class TestDemoAndInfo:
    def test_demo_builds_database(self, demo_db, capsys):
        assert main(["info", "--db", demo_db]) == 0
        out = capsys.readouterr().out
        assert "figure5" in out
        assert "friends-restaurant" in out

    def test_demo_is_idempotent(self, demo_db, capsys):
        assert main(["demo", "--db", demo_db]) == 0
        out = capsys.readouterr().out
        assert "already present" in out

    def test_info_on_missing_db(self, tmp_path, capsys):
        assert main(["info", "--db", str(tmp_path / "nope")]) == 1
        assert "error:" in capsys.readouterr().err


class TestIngest:
    def test_ingest_rvid(self, tmp_path, capsys):
        path = write_rvid(_cut_clip("rvid-clip"), tmp_path / "c.rvid")
        db_dir = str(tmp_path / "db")
        assert main(["ingest", str(path), "--db", db_dir]) == 0
        out = capsys.readouterr().out
        assert "2 shots" in out

    def test_ingest_avi_decimates(self, tmp_path, capsys):
        clip = _cut_clip("avi-clip")
        clip30 = VideoClip(
            "avi-clip", np.repeat(clip.frames, 10, axis=0), fps=30.0
        )
        path = write_avi(clip30, tmp_path / "c.avi")
        db_dir = str(tmp_path / "db")
        assert main(["ingest", str(path), "--db", db_dir]) == 0
        out = capsys.readouterr().out
        assert "18 frames" in out  # 180 @ 30fps -> 18 @ 3fps

    def test_ingest_with_category(self, tmp_path, capsys):
        path = write_rvid(_cut_clip("cat-clip"), tmp_path / "c.rvid")
        db_dir = str(tmp_path / "db")
        assert main(
            ["ingest", str(path), "--db", db_dir, "--genre", "comedy"]
        ) == 0
        assert main(["info", "--db", db_dir]) == 0
        assert "comedy feature" in capsys.readouterr().out

    def test_ingest_into_existing_database_writes_one_record(
        self, tmp_path, monkeypatch
    ):
        """An ingest commits the new video's record and one manifest
        delta; it never republishes the whole database, so the other
        records' files stay as they were."""
        db_dir = tmp_path / "db"
        synth_database(3, n_videos=3).save(db_dir)
        before = {
            path: (path.read_bytes(), path.stat().st_mtime_ns)
            for path in (db_dir / "records").iterdir()
        }

        def publish_all(self, storage):
            raise AssertionError("ingest republished the whole database")

        monkeypatch.setattr(VideoDatabase, "_publish_all", publish_all)
        clip = write_rvid(_cut_clip("one-more"), tmp_path / "c.rvid")
        assert main(["ingest", str(clip), "--db", str(db_dir)]) == 0
        for path, (data, mtime) in before.items():
            assert (path.read_bytes(), path.stat().st_mtime_ns) == (data, mtime)
        assert len(list((db_dir / "records").iterdir())) == len(before) + 1
        assert len(list((db_dir / "deltas").iterdir())) == 1
        assert "one-more" in VideoDatabase.load(db_dir).catalog

    def test_ingest_unsupported_format(self, tmp_path, capsys):
        bad = tmp_path / "movie.mp4"
        bad.write_bytes(b"x")
        assert main(["ingest", str(bad), "--db", str(tmp_path / "db")]) == 1
        assert "unsupported" in capsys.readouterr().err


class TestOneClipReader:
    """The CLI and the service's ``file`` ingest source read a clip file
    through one reader, which also decimates it to the analysis rate."""

    def test_unsupported_suffix_says_the_same_both_ways(self, tmp_path, capsys):
        bad = tmp_path / "movie.mp4"
        bad.write_bytes(b"x")
        assert main(["ingest", str(bad), "--db", str(tmp_path / "db")]) == 1
        printed = capsys.readouterr().err.strip()
        with pytest.raises(ReproError) as raised:
            clip_from_spec({"source": "file", "path": str(bad)})
        assert printed == f"error: {raised.value}"
        assert "unsupported video format '.mp4'" in printed

    def test_a_fast_clip_gets_the_same_record_both_ways(self, tmp_path):
        clip = _cut_clip("fast-clip")
        fast = VideoClip("fast-clip", np.repeat(clip.frames, 3, axis=0), fps=9.0)
        path = write_rvid(fast, tmp_path / "fast.rvid")
        assert main(["ingest", str(path), "--db", str(tmp_path / "db")]) == 0
        served_clip, _ = clip_from_spec({"source": "file", "path": str(path)})
        assert served_clip.fps == 3.0 and len(served_clip) == 18
        served = VideoDatabase()
        served.ingest(served_clip)
        digest = VideoDatabase.open(tmp_path / "db").record_digest("fast-clip")
        assert digest is not None
        assert served.record_digest("fast-clip") == digest


class TestReadCommands:
    def test_shots(self, demo_db, capsys):
        assert main(["shots", "figure5", "--db", demo_db]) == 0
        out = capsys.readouterr().out
        assert "#1@figure5" in out and "#10@figure5" in out

    def test_shots_unknown_video(self, demo_db, capsys):
        assert main(["shots", "nope", "--db", demo_db]) == 1

    def test_tree(self, demo_db, capsys):
        assert main(["tree", "figure5", "--db", demo_db]) == 0
        out = capsys.readouterr().out
        assert "SN_1^1" in out and "height 3" in out

    def test_query_impression(self, demo_db, capsys):
        assert main(
            ["query", "background still, foreground calm, limit 3", "--db", demo_db]
        ) == 0
        out = capsys.readouterr().out
        assert "D^v" in out

    def test_query_example_form(self, demo_db, capsys):
        assert main(["query", "like shot 9 of figure5", "--db", demo_db]) == 0

    def test_query_bad_syntax(self, demo_db, capsys):
        assert main(["query", "backgroundzzz", "--db", demo_db]) == 1

    @pytest.mark.parametrize("limit", [-1, 0])
    def test_batch_file_limit_below_one_is_refused(
        self, demo_db, tmp_path, capsys, limit
    ):
        batch = tmp_path / "batch.json"
        batch.write_text(
            json.dumps({"queries": [{"var_ba": 1.0, "var_oa": 1.0}], "limit": limit})
        )
        assert main(["query", "--db", demo_db, "--batch-file", str(batch)]) == 2
        assert "limit must be a positive integer" in capsys.readouterr().err


class TestExperimentCommand:
    def test_runs_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "matches paper" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "table99"]) == 1
        assert "unknown experiment" in capsys.readouterr().err


class TestBrowseCommand:
    def _run(self, demo_db, script, capsys):
        import io

        from repro.cli import _build_parser, _cmd_browse

        parser = _build_parser()
        args = parser.parse_args(["browse", "figure5", "--db", demo_db])
        code = _cmd_browse(args, input_stream=io.StringIO(script))
        return code, capsys.readouterr().out

    def test_navigation_session(self, demo_db, capsys):
        code, out = self._run(demo_db, "ls\ncd 0\npath\nup\nquit\n", capsys)
        assert code == 0
        assert "SN_5^2" in out          # root child listed
        assert "->" in out              # path printed

    def test_summary_and_story(self, demo_db, capsys):
        code, out = self._run(demo_db, "summary 3\ncd 1\nstory\nquit\n", capsys)
        assert code == 0
        assert out.count("frame") >= 5

    def test_error_recovery(self, demo_db, capsys):
        code, out = self._run(demo_db, "cd 99\nup\nup\nup\nup\nbogus\nquit\n", capsys)
        assert code == 0                # errors are reported, not fatal
        assert "error:" in out
        assert "unknown command" in out

    def test_eof_terminates(self, demo_db, capsys):
        code, _ = self._run(demo_db, "ls\n", capsys)  # no quit; EOF ends it
        assert code == 0


class TestStoryboardCommand:
    def test_writes_contact_sheet(self, tmp_path, capsys):
        path = write_rvid(_cut_clip("board-clip"), tmp_path / "c.rvid")
        out = tmp_path / "board.ppm"
        assert main(["storyboard", str(path), "-o", str(out)]) == 0
        assert out.exists()
        assert out.read_bytes().startswith(b"P6")
        assert "2 shots" in capsys.readouterr().out

    def test_default_output_path(self, tmp_path, capsys):
        path = write_rvid(_cut_clip("board2"), tmp_path / "c2.rvid")
        assert main(["storyboard", str(path)]) == 0
        assert (tmp_path / "c2.ppm").exists()


class TestRemoveCommand:
    def test_remove_round_trip(self, tmp_path, capsys):
        db_dir = str(tmp_path / "db")
        assert main(["demo", "--db", db_dir]) == 0
        assert main(["remove", "figure5", "--db", db_dir]) == 0
        out = capsys.readouterr().out
        assert "10 index entries" in out
        assert main(["info", "--db", db_dir]) == 0
        info = capsys.readouterr().out
        assert "figure5" not in info
        assert "friends-restaurant" in info

    def test_remove_unknown(self, demo_db, capsys):
        assert main(["remove", "nope", "--db", demo_db]) == 1


class TestServeAndLoadgen:
    """End-to-end acceptance: `repro serve` + `repro loadgen` round trip."""

    def test_round_trip(self, tmp_path, capsys):
        import json
        import os
        import re
        import subprocess
        import sys

        env = dict(os.environ)
        src = str(
            __import__("pathlib").Path(__file__).resolve().parent.parent / "src"
        )
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", "2"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            banner = proc.stdout.readline()
            match = re.search(r"on (http://[\d.]+:\d+)", banner)
            assert match, f"no server banner in {banner!r}"
            base_url = match.group(1)
            report_path = tmp_path / "loadgen.json"
            code = main(
                [
                    "loadgen",
                    "--url", base_url,
                    "--requests", "60",
                    "--workers", "3",
                    "--ingests", "1",
                    "--seed", "5",
                    "-o", str(report_path),
                ]
            )
            out = capsys.readouterr().out
            assert code == 0, out
            assert "0 failed" in out
            assert "server cache:" in out
            report = json.loads(report_path.read_text())
            assert report["failed_requests"] == 0
            assert report["ingest_failures"] == []
            assert report["server_metrics"]["query_cache"]["hits"] > 0
            assert report["server_metrics"]["requests"]["POST /query"]["count"] > 0
        finally:
            proc.terminate()
            proc.wait(timeout=10)
