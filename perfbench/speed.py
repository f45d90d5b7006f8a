"""Times scaled to a reference core speed.

The cores this benchmark runs on may be shared with other tenants.  On the
reference machine (a 2-vCPU Xeon virtual machine, see environment.json) a
core's speed switched between two levels about 35 % apart every few seconds,
and the median command time of a 20-second run moved by up to 40 % from run
to run.  So while a process measures, a timer runs a fixed pure-Python kernel
every INTERVAL_S seconds and records the CPU time it took.  A measured span is
reported as

    (wall time - time spent in the kernel) * REFERENCE_S / mean kernel time

over the kernel samples taken during the span: the time the span would have
taken on a core that runs the kernel in REFERENCE_S.  The kernel shares no
code with fqrank, so a change to fqrank cannot move it.  On the reference
machine this cut the run-to-run spread (interquartile range over median, over
five to ten runs) of the median command time from 0.07-0.27 to 0.02-0.075.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

INTERVAL_S = 0.05
REFERENCE_S = 0.00021  # kernel CPU time on a quiet core of the reference machine


def kernel() -> int:
    """Interpreter-bound work of fixed size: arithmetic, a dict, calls."""
    acc, table = 0, {}
    for i in range(1500):
        acc += (i * i) % 7
        table[i & 63] = acc
        acc ^= len(table)
    return acc


def kernel_seconds() -> float:
    """CPU time of one kernel run, after a first run has warmed the caches
    the measured work may have flushed, so that only the core's speed counts."""
    kernel()
    t = time.thread_time()
    kernel()
    return time.thread_time() - t


@dataclass
class Span:
    wall: float = 0.0  # measured seconds, sampler time taken out
    cpu: float = 0.0  # process plus reaped children CPU, sampler time taken out
    factor: float = 1.0  # REFERENCE_S / mean kernel time during the span

    @property
    def seconds(self) -> float:
        return self.wall * self.factor


class SpeedSampler:
    """Samples this process's core speed from SIGALRM while it measures."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        self.samples.append(kernel_seconds())
        self.spent += time.perf_counter() - t

    @contextmanager
    def span(self, cpu_clock=time.process_time):
        """Measure the body; the Span is filled in when the body ends."""
        rec = Span()
        n0, spent0 = len(self.samples), self.spent
        c0, t0 = cpu_clock(), time.perf_counter()
        yield rec
        wall = time.perf_counter() - t0
        cpu = cpu_clock() - c0
        spent = self.spent - spent0
        # A span shorter than the interval takes one sample as it ends.
        samples = self.samples[n0:] or [kernel_seconds()]
        rec.wall = wall - spent
        rec.cpu = cpu - spent
        rec.factor = REFERENCE_S / statistics.fmean(samples)
