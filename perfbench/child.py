"""The server under test: a ``python -m repro serve`` child process.

The child runs with the shipped defaults (durable ``--db``, fsync on
every publish, request tracing at ``--trace-capacity 64``); the
benchmark only chooses the database directory and an ephemeral port.
Resource use is sampled from outside through ``/proc/<pid>``.
"""

from __future__ import annotations

import http.client
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

_BANNER = re.compile(r"serving .* on http://127\.0\.0\.1:(\d+)")
_TICKS = os.sysconf("SC_CLK_TCK")
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class ProcSample:
    """One outside-in reading of the child's resource counters."""

    at: float
    cpu_s: float
    hwm_kb: int
    wchar: int


class ServerChild:
    """Start, sample and stop one ``repro serve --db`` process."""

    def __init__(self, src_dir: Path, db_dir: Path, log_path: Path) -> None:
        self.src_dir = src_dir
        self.db_dir = db_dir
        self.log_path = log_path
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self) -> None:
        """Launch the child and block until ``GET /ready`` answers 200."""
        # Unbuffered, so the start-up banner with the port reaches the log
        # while the server runs, not when it exits.
        env = dict(os.environ, PYTHONPATH=str(self.src_dir), PYTHONUNBUFFERED="1")
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--db", str(self.db_dir),
                    "--port", "0",
                    "--trace-capacity", "64",
                ],
                stdout=log,
                stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
                env=env,
            )
        deadline = time.monotonic() + START_TIMEOUT_S
        while not self.port:
            match = _BANNER.search(self.log_path.read_text(errors="replace"))
            if match:
                self.port = int(match.group(1))
                break
            self._check_alive(deadline)
            time.sleep(0.01)
        while not self._ready():
            self._check_alive(deadline)
            time.sleep(0.01)

    def _check_alive(self, deadline: float) -> None:
        assert self.proc is not None
        if self.proc.poll() is not None:
            raise RuntimeError(
                f"server exited with {self.proc.returncode}: "
                f"{self.log_path.read_text(errors='replace')[-2000:]}"
            )
        if time.monotonic() > deadline:
            raise RuntimeError(f"server not ready within {START_TIMEOUT_S:.0f}s")

    def _ready(self) -> bool:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
        try:
            conn.request("GET", "/ready")
            return conn.getresponse().status == 200
        except OSError:
            return False
        finally:
            conn.close()

    def sample(self) -> ProcSample:
        """CPU seconds (utime+stime), peak RSS (VmHWM) and ``wchar``."""
        assert self.proc is not None
        pid = self.proc.pid
        stat = Path(f"/proc/{pid}/stat").read_text()
        fields = stat[stat.rindex(")") + 2 :].split()
        cpu_s = (int(fields[11]) + int(fields[12])) / _TICKS
        hwm_kb = 0
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                hwm_kb = int(line.split()[1])
        wchar = 0
        for line in Path(f"/proc/{pid}/io").read_text().splitlines():
            if line.startswith("wchar:"):
                wchar = int(line.split()[1])
        return ProcSample(time.perf_counter(), cpu_s, hwm_kb, wchar)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then kill if it lingers; always reaped."""
        proc = self.proc
        if proc is None or proc.poll() is not None:
            return
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
