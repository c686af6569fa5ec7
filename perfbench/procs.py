"""Processes the benchmark spawns: server start on an ephemeral port,
readiness, peak memory and teardown on every exit path."""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import time

from inputs import ROOT, SRC

#: Seconds a spawned server may take to print its listening address.
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0


def child_env() -> dict:
    """Environment of every process the benchmark starts: the checkout's
    ``src`` on the path and a fixed hash seed, so repeated runs of one
    seed iterate sets and dicts of strings in the same order."""
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


class Server:
    """One ``repro`` server subprocess, started with ``--port 0``; its
    address is parsed from the startup line on stdout."""

    def __init__(self, argv: list[str], address_re: str, log_path):
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *argv], cwd=ROOT,
            env=child_env(), stdout=subprocess.PIPE, stderr=self._log)
        try:
            self.host, self.port = self._await_address(address_re)
        except BaseException:
            self.stop()
            raise

    def _await_address(self, address_re: str) -> tuple[str, int]:
        deadline = time.monotonic() + START_TIMEOUT_S
        buffered = b""
        fd = self.proc.stdout.fileno()
        while time.monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [],
                                        deadline - time.monotonic())
            if not ready:
                break
            chunk = os.read(fd, 4096)
            if not chunk:
                break
            buffered += chunk
            match = re.search(address_re.encode(), buffered)
            if match:
                return match.group(1).decode(), int(match.group(2))
        raise RuntimeError(
            f"server did not report its address: {buffered[-500:]!r}")

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM, then SIGKILL after :data:`STOP_TIMEOUT_S`; always
        waits for the process to end."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def serve(artifact: str, log_path, *, workers: int, max_cost: float) -> Server:
    return Server(["serve", "--artifact", artifact, "--port", "0",
                   "--workers", str(workers), "--max-cost", f"{max_cost:g}"],
                  r"serving on ([\d.]+):(\d+)", log_path)


def shard_serve(shard_artifact: str, log_path) -> Server:
    return Server(["shard-serve", "--artifact", shard_artifact,
                   "--port", "0"],
                  r"serving \S+ on ([\d.]+):(\d+)", log_path)
