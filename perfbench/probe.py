"""Machine-speed probe: a fixed pure-Python and numpy chunk of work,
timed in the measuring process in gaps of a run, with every server
process of the system under test stopped.

The shared 2-vCPU machine this benchmark was built on runs the same
chunk anywhere from about 3 to 10 ms of CPU time, switching between
fast and slow spells that last seconds to minutes (load from other
tenants of the host: CPU time tracks wall time, so it is not guest
scheduling). Each workload divides its latencies by the median speed
factor of the chunks timed during the run and multiplies its ``qps`` by
it, so runs made in slow and fast spells compare.

The factor must not depend on the program under test. The chunk uses
nothing from ``src/``; it runs with the garbage collector off (a
collection would scan the program's heap) and is timed on its second
run, so caches the program left cold do not count. It runs only where
no request is in flight: between two calls of a closed loop, between
capacity blocks, after the open loop. And the benchmark stops the
server processes it started (SIGSTOP) while the chunk runs, and
continues them (SIGCONT) after, so no process of the program competes
with the chunk for a CPU or its caches. Timed between ``serve_hot``
capacity blocks with the server left running, the chunk ran up to 1.7
times slower than just before the run; with the server stopped it ran
as fast. An in-process server (``serve_hot --inproc``, the traced run)
cannot be stopped; its idle threads stay.

As a check, the chunk is also timed just before the system under test
starts and just after it has stopped (the bracket). The ratio of the
gap factor to the bracket factor is reported with every run; one run's
ratio is noisy, but its median over a set of runs should stay near 1.
A program that kept working between requests would raise it.
"""

from __future__ import annotations

import gc
import os
import signal
import statistics
import threading
import time

import numpy

#: CPU seconds the chunk takes at speed factor 1.
REF_S = 0.005
#: Least wall-clock time between two gap chunks; a chunk takes ~3-6 ms
#: (twice that with its warm-up), so the probe takes about 5% of a run.
PERIOD_S = 0.2
#: Chunks just before and just after the run, for the check.
BRACKET_CHUNKS = 20


def _work() -> None:
    table: dict[int, int] = {}
    for i in range(8000):
        key = (i * 2654435761) & 2047
        table[key] = table.get(key, 0) + i
    ordered = sorted(table.items())
    values = numpy.arange(20000, dtype=numpy.int64)
    numpy.unique(values * 7919 % 4096)
    del ordered


def chunk() -> float:
    """CPU seconds the fixed work takes now, timed on its second run so
    that caches the program left cold do not count. CPU time, not wall
    time: waiting for a CPU another process holds is not speed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _work()
        start = time.thread_time()
        _work()
        return time.thread_time() - start
    finally:
        if enabled:
            gc.enable()


def _await_stopped(pid: int, timeout_s: float = 0.1) -> None:
    """Wait until a process sent SIGSTOP has stopped (or has ended)."""
    deadline = time.perf_counter() + timeout_s
    while time.perf_counter() < deadline:
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
                state = stat.read().rsplit(")", 1)[1].split()[0]
        except OSError:
            return
        if state in "TtZX":
            return
        time.sleep(0.0002)


class SpeedProbe:
    """Chunk times of one measurement: ``gaps`` timed between calls or
    capacity blocks, and a ``bracket`` just before the system under test
    starts and just after it has stopped. ``paused`` holds the pids of
    the server processes to stop while a gap chunk runs."""

    def __init__(self):
        self.bracket = [chunk() for _ in range(BRACKET_CHUNKS)]
        self.gaps: list[float] = []
        self.paused: list[int] = []
        self.threads = threading.active_count()
        self._next_at = 0.0
        self._stopped = False

    def gap(self, count: int = 1) -> None:
        """Time ``count`` chunks with the ``paused`` processes stopped;
        call only when no request is in flight."""
        self.threads = max(self.threads, threading.active_count())
        stopped = []
        try:
            for pid in self.paused:
                os.kill(pid, signal.SIGSTOP)
                stopped.append(pid)
            for pid in stopped:
                _await_stopped(pid)
            self.gaps.extend(chunk() for _ in range(count))
        finally:
            for pid in stopped:
                os.kill(pid, signal.SIGCONT)
        self._next_at = time.perf_counter() + PERIOD_S

    def tick(self) -> None:
        """Between two calls of a closed loop: one gap chunk if
        :data:`PERIOD_S` has passed since the last."""
        if time.perf_counter() >= self._next_at:
            self.gap()

    def stop(self) -> None:
        """Time the closing bracket; call once everything has stopped."""
        if not self._stopped:
            self._stopped = True
            self.bracket += [chunk() for _ in range(BRACKET_CHUNKS)]

    @property
    def factor(self) -> float:
        """Median gap chunk over :data:`REF_S` (1.5: the machine ran the
        chunk 1.5 times slower than the reference during the run)."""
        return statistics.median(self.gaps or self.bracket) / REF_S

    @property
    def bracket_factor(self) -> float:
        return statistics.median(self.bracket) / REF_S
