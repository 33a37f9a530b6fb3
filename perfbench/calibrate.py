"""Machine-speed calibration: report timings at a fixed nominal speed.

The benchmark runs on shared machines whose speed drifts with the load of
their neighbours: on a 2-core x86 VM the same 0.5 s simulation ran
anywhere from 630 to 1740 slots/s within one minute, while its share of
the work stayed the same.  Medians over a 20 s run cannot remove a drift
that slow.

So every throughput and set-up time is bracketed by a fixed kernel
owned by the benchmark (interpreted Python plus small NumPy calls, the
same mix as a GreFar slot), and each timing is scaled by how long the
kernel took around it compared with :data:`NOMINAL`.  On that same VM the scaled
figures stayed within 4% while the raw ones more than doubled.  The
kernel calls no code of the program, so a change to the program moves
the scaled figures exactly as it moves the raw ones.

Those metrics are therefore given at the nominal speed: "slots per
second on a machine that runs the kernel in 10 ms".  The raw figures and
the speed factors go to standard error.  The service's latencies follow
the kernel only in part (see ``gateway.py``).

The scaling has one blind spot: CPU the program burns while the kernel
runs (a background thread, a busy gateway that should be idle) slows
the kernel as much as the workload, so the scaled figures would cancel
it.  A :class:`Probe` therefore also records the program's CPU time
during its samples; the benchmark reports that share, and the unscaled
throughputs, as per-layer metrics, so an A/B sees when the scaling
hides a change.  The kernel runs with the garbage collector off, so the
size of the program's heap cannot slow it either.
"""

from __future__ import annotations

import gc
import os
import time
from typing import Callable

import numpy as np

#: Kernel time, in seconds, of the nominal machine the figures refer to.
NOMINAL = 0.010


def _kernel() -> float:
    grid = np.arange(12.0).reshape(3, 4)
    total = 0.0
    for i in range(1500):
        total += float((np.minimum(grid, i % 7) + grid).sum())
        total += sum(j * 0.5 for j in range(8))
        record = {"slot": i, "pair": [i, i + 1]}
        total += record["pair"][1]
    return total


def kernel_seconds() -> float:
    """Wall time of one kernel run (garbage collector off meanwhile)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def other_threads_cpu() -> float:
    """CPU seconds this process has used outside the calling thread."""
    return time.process_time() - time.thread_time()


def process_cpu(pid: int) -> Callable[[], float]:
    """A reader of the CPU seconds process *pid* has used (all threads)."""
    path = f"/proc/{pid}/stat"
    tick = os.sysconf("SC_CLK_TCK")

    def read() -> float:
        with open(path) as handle:
            # utime and stime, fields 14 and 15, follow the parenthesised
            # command name, which may itself contain spaces.
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / tick

    return read


class Probe:
    """Kernel samples, and the CPU the program used while they ran."""

    def __init__(self, program_cpu: Callable[[], float]) -> None:
        self.program_cpu = program_cpu
        self.kernel_wall = 0.0
        self.program_busy = 0.0

    def sample(self) -> float:
        """One kernel run; returns its wall time."""
        before = self.program_cpu()
        seconds = kernel_seconds()
        self.program_busy += self.program_cpu() - before
        self.kernel_wall += seconds
        return seconds

    @property
    def program_cpu_share(self) -> float:
        """Program CPU time over kernel wall time, across all samples."""
        return self.program_busy / self.kernel_wall if self.kernel_wall else 0.0


def slowdown(*samples: float) -> float:
    """How much slower than nominal the machine ran, from kernel times.

    Divide a duration by it, or multiply a rate by it, to get the
    figure at nominal speed.
    """
    return sum(samples) / len(samples) / NOMINAL
