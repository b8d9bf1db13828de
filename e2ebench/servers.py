"""Start and stop the stock ``python -m repro serve`` command."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import ROOT, child_env, family_pids


class ServerProcess:
    """One ``repro serve`` process family in its own session.

    Only the graph root (and, when asked, pool or snapshot flags) are
    set; every other knob is the command's default.
    """

    def __init__(self, work: Path, extra_args: list[str], log_name: str) -> None:
        args = [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--graph-root", str(work), *extra_args,
        ]
        self._log = open(work / log_name, "wb")
        self.proc = subprocess.Popen(
            args, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=self._log, start_new_session=True,
        )
        # a server that never prints its address must not hang the run
        killer = threading.Timer(90.0, self.proc.kill)
        killer.start()
        try:
            line = self.proc.stdout.readline().decode()
        finally:
            killer.cancel()
        if "http://" not in line:
            self.stop()
            raise RuntimeError(f"repro serve did not start (printed {line!r}); see {log_name}")
        host, port = line.split("http://", 1)[1].split()[0].split(":")
        self.address = (host, int(port))

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> None:
        """SIGINT (the command's clean shutdown), then kill what is left
        of the process group, and wait until every member has exited."""
        members = family_pids(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        deadline = time.monotonic() + 15
        while any(os.path.exists(f"/proc/{pid}") and _alive(pid) for pid in members):
            if time.monotonic() > deadline:
                raise RuntimeError(f"server processes {members} did not exit")
            time.sleep(0.05)
        self.proc.stdout.close()
        self._log.close()


def _alive(pid: int) -> bool:
    """False for exited (zombie) processes as well as reaped ones."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False
