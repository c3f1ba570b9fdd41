"""A host-speed reference, timed in its own process throughout a run.

The CPU speed this benchmark gets from its host swings by 1.5x over seconds
to minutes, and a fixed pure-Python loop follows the same swings as the
timed phases.  So the benchmark times that loop in a separate, otherwise
idle process around the timed phases and reports times scaled by
``NOMINAL_S / loop time``: seconds at a nominal host speed.  The loop runs
in its own interpreter, so nothing the program under test does inside the
benchmark process (threads, heap growth, imports) changes it; only the
host's speed does.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from statistics import median

#: The loop's time on a fast period of a 2-CPU x86_64 host (Python 3.11).
NOMINAL_S = 0.02

#: A phase is scaled by the loop times sampled within this many seconds of
#: it: near enough to follow the host's swings, wide enough that one noisy
#: loop time does not decide a sample.
WINDOW_S = 3.0

_LOOP = """
import sys, time

def loop():
    table = {}
    for i in range(60000):
        key = (i % 997, i % 13)
        table[key] = table.get(key, 0) + i
    return sorted(table.items())

for _line in sys.stdin:
    start = time.perf_counter()
    loop()
    print(time.perf_counter() - start, flush=True)
"""


class SpeedReference:
    """The reference process; :meth:`sample` times one loop in it."""

    def __init__(self) -> None:
        self._process = subprocess.Popen(
            [sys.executable, "-I", "-S", "-c", _LOOP],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.samples: list[float] = []
        self.times: list[float] = []

    def sample(self) -> float:
        """Time the loop once; returns (and keeps) its seconds."""
        self.samples.append(self._time_loop())
        self.times.append(time.perf_counter())
        return self.samples[-1]

    def sample_every_cpu(self) -> float:
        """Time the loop once on each CPU this process may use and keep the
        mean: the speed a workload spread over all of them gets."""
        cpus = sorted(os.sched_getaffinity(0))
        pid = self._process.pid
        try:
            times = []
            for cpu in cpus:
                os.sched_setaffinity(pid, {cpu})
                times.append(self._time_loop())
        finally:
            os.sched_setaffinity(pid, cpus)
        self.samples.append(sum(times) / len(times))
        self.times.append(time.perf_counter())
        return self.samples[-1]

    def _time_loop(self) -> float:
        self._process.stdin.write("\n")
        self._process.stdin.flush()
        line = self._process.stdout.readline()
        if not line:
            raise RuntimeError("the speed reference process exited")
        return float(line)

    def scale(self) -> float:
        """The factor that turns this run's seconds into nominal seconds."""
        return NOMINAL_S / median(self.samples)

    def scale_between(self, start: float, end: float) -> float:
        """The factor for a phase that ran from ``start`` to ``end``
        (``perf_counter``), from the loop times sampled near it."""
        near = [
            value for value, at in zip(self.samples, self.times)
            if start - WINDOW_S <= at <= end + WINDOW_S
        ]
        return NOMINAL_S / median(near) if near else self.scale()

    def close(self) -> None:
        if self._process.stdin and not self._process.stdin.closed:
            self._process.stdin.close()
        self._process.wait()
        self._process.stdout.close()
