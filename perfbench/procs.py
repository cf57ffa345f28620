"""Locating the checkout and running real ``sradgen`` processes.

``sradgen`` runs as ``python -m repro.cli`` from the checkout's ``src``
directory, exactly as the console script would, so interpreter start-up
and imports count.  Each process is reaped with ``os.wait4`` to read its
peak RSS (which covers the worker processes it reaped itself).
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/repro`` to benchmark."""


def require_program() -> None:
    if not (SRC / "repro" / "cli.py").is_file():
        raise MissingProgram(f"no sradgen sources under {SRC}")


def program_env() -> Dict[str, str]:
    """Environment for ``sradgen`` children: this checkout's sources, no tracing."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for name in ("SRADGEN_TRACE", "SRADGEN_FAULTS"):
        env.pop(name, None)
    return env


def sradgen_argv(args: Sequence[str]) -> List[str]:
    return [sys.executable, "-m", "repro.cli", *args]


@dataclass
class ProcResult:
    wall_s: float
    returncode: int
    stdout: str
    stderr: str
    maxrss_kb: int


def _reap(proc: subprocess.Popen, timeout: float) -> int:
    """Wait for ``proc`` with ``wait4``; kill it past ``timeout``. Returns maxrss KB."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage.ru_maxrss
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage.ru_maxrss
        time.sleep(0.001)


def run(argv: Sequence[str], workdir: Path, *, timeout: float = 120.0) -> ProcResult:
    """Run one process to completion, timed from spawn to reap."""
    out_path = workdir / "proc.out"
    err_path = workdir / "proc.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            list(argv), stdout=out, stderr=err, cwd=workdir, env=program_env()
        )
        maxrss = _reap(proc, timeout)
        wall = time.perf_counter() - start
    return ProcResult(
        wall_s=wall,
        returncode=proc.returncode,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        maxrss_kb=maxrss,
    )


def run_sradgen(args: Sequence[str], workdir: Path, *, timeout: float = 120.0) -> ProcResult:
    return run(sradgen_argv(args), workdir, timeout=timeout)


class Server:
    """A ``sradgen --serve`` child: spawn-to-ready time, address, peak RSS."""

    def __init__(self, args: Sequence[str], workdir: Path):
        self._err = open(workdir / "serve.err", "wb")
        self._ready = threading.Event()
        self.address: Optional[tuple] = None
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            sradgen_argv(["--serve", *args]),
            stdout=subprocess.PIPE,
            stderr=self._err,
            cwd=workdir,
            env=program_env(),
        )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        if not self._ready.wait(60.0) or self.address is None:
            self.stop()
            raise RuntimeError("sradgen --serve printed no address")
        self.ready_s = time.perf_counter() - start
        self.maxrss_kb = 0
        self.returncode: Optional[int] = None

    def _read(self) -> None:
        # Drain stdout until EOF so the server can never block on a full pipe.
        for raw in self.proc.stdout:
            line = raw.decode("utf-8", errors="replace")
            if self.address is None and "listening on" in line:
                host, _, port = line.split()[-1].rpartition(":")
                self.address = (host, int(port))
                self._ready.set()
        self._ready.set()

    def stop(self, timeout: float = 30.0) -> None:
        """SIGTERM (graceful drain), then reap."""
        if self.proc.returncode is None:
            self.proc.terminate()
            self.maxrss_kb = _reap(self.proc, timeout)
        self.returncode = self.proc.returncode
        self._reader.join(timeout)
        self.proc.stdout.close()
        self._err.close()
