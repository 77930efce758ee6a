"""Host record and host-speed index.

The reference host (2 vCPUs of a shared Xeon) changes speed by 30-60 %
for seconds at a time, each vCPU on its own, with CPU time equal to
wall time -- a co-tenant, not scheduling.  A ten-second run therefore
reads a tenth of a second's op anywhere between 1.0x and 1.6x, which no
bound below 0.25 survives.  So the benchmark times a fixed calibration
kernel all through every run and reports op times *relative to it*:

    reported = wall-clock x KERNEL_REF_MS / kernel's CPU-ms nearby

i.e. milliseconds on a host where the kernel takes ``KERNEL_REF_MS``.
The raw wall-clock values are printed beside the reported ones.
"""

from __future__ import annotations

import bisect
import os
import platform
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

#: CPU-milliseconds the kernel takes on the reference host when no
#: co-tenant is slowing it.
KERNEL_REF_MS = 0.32

#: Seconds between kernel samples.
SAMPLE_EVERY_S = 0.025

#: Half-width of the window whose samples normalise one op.
WINDOW_S = 1.0


class _Cell:
    __slots__ = ("value", "next")

    def __init__(self, value, next_cell):
        self.value = value
        self.next = next_cell


def _chain(length: int) -> _Cell:
    cell = None
    for value in range(length):
        cell = _Cell(value, cell)
    return cell


_KEYS = [str(i) for i in range(4000)]
_TABLE = {key: index for index, key in enumerate(_KEYS)}
_CHAIN = _chain(4000)


def _kernel() -> int:
    """Dict probes, attribute loads and pointer chasing -- what the
    compiler and the simulator spend their time on (an arithmetic loop
    slowed by 40 % where they slowed by 60 %).  It allocates no
    container, so the collector -- whose cost grows with the heap of
    whatever workload is running -- never runs inside it."""
    table = _TABLE
    total = 0
    for key in _KEYS:
        total += table[key] & 7
    cell = _CHAIN
    while cell is not None:
        total += cell.value & 7
        cell = cell.next
    return total


def _sample() -> float:
    """CPU-milliseconds of one kernel pass.  A first, untimed pass
    refills the caches the op before it emptied."""
    _kernel()
    begin = time.thread_time()
    _kernel()
    return (time.thread_time() - begin) * 1e3


class HostSpeed:
    """Kernel samples over a run, and the factor they imply at a time.

    Single-threaded workloads call :meth:`tick` between ops; workloads
    whose work happens in other processes run :meth:`start_thread`,
    whose samples land on whichever CPU the thread wakes on.  Samples
    are thread CPU time, so being preempted does not inflate them.
    """

    def __init__(self):
        self.times: List[float] = []
        self.kernel_ms: List[float] = []
        self._due = 0.0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def sample(self) -> None:
        self.kernel_ms.append(_sample())
        self.times.append(time.perf_counter())

    def tick(self) -> None:
        """Take the samples that have come due (at most four, so a long
        op does not buy a long pause)."""
        now = time.perf_counter()
        self._due = max(self._due, now - 3 * SAMPLE_EVERY_S)
        while self._due <= now:
            self._due += SAMPLE_EVERY_S
            self.sample()

    def start_thread(self) -> None:
        def sample_forever():
            while not self._stop.wait(SAMPLE_EVERY_S):
                self.sample()

        self._stop.clear()
        self._thread = threading.Thread(target=sample_forever,
                                        name="bench-hostspeed",
                                        daemon=True)
        self._thread.start()

    def stop_thread(self) -> None:
        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout=5.0)
            self._thread = None

    def mean_kernel_ms(self, start: float, end: float) -> float:
        """Mean kernel time over the samples taken in ``[start, end]``
        (over all of them if none was)."""
        low = bisect.bisect_left(self.times, start)
        high = bisect.bisect_right(self.times, end)
        window = self.kernel_ms[low:high] or self.kernel_ms
        if not window:
            raise RuntimeError("no host-speed samples were taken")
        return sum(window) / len(window)

    def factor(self, when: float) -> float:
        """Multiply a wall-clock duration around ``when`` by this."""
        return KERNEL_REF_MS / self.mean_kernel_ms(when - WINDOW_S,
                                                   when + WINDOW_S)


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _git(root: str, *argv: str) -> Optional[str]:
    try:
        done = subprocess.run(["git", "-C", root, *argv],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def host_record(root: str, seed: int) -> Dict[str, object]:
    """Where and on what a result was taken; ``bench/compare.py``
    refuses to compare results whose ``machine`` parts differ."""
    from repro import RunConfig
    from repro.earth.interpreter import ENGINES
    from repro.harness.pipeline import PIPELINE_VERSION

    status = _git(root, "status", "--porcelain")
    return {
        "machine": {
            "cores": usable_cores(),
            "python": platform.python_version(),
            "implementation": sys.implementation.name,
            "platform": platform.platform(),
            "processor": platform.processor() or platform.machine(),
        },
        "commit": _git(root, "rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "seed": seed,
        "pipeline_version": PIPELINE_VERSION,
        "engines": list(ENGINES),
        "default_engine": RunConfig().engine,
    }
