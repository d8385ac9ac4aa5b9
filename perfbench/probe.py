"""A speed probe: times a fixed pure-Python kernel on a background thread.

The shared host this benchmark was written on runs the same Python code at
speeds that differ by half between phases lasting seconds to minutes, and
CPU time follows wall time, so neither clock cancels it.  The probe wakes
every `PERIOD` seconds, runs `kernel()` (well inside one switch interval of
the interpreter lock, so the workload waits meanwhile) and records when it
ran and the thread CPU time it took, which a wait for the lock does not
inflate.  `scale(a, b)` is `REFERENCE_S / median probe time` around the
interval [a, b]: a measured duration times its scale is that duration at
the reference speed, so slow and fast phases of the host report about the
same figure for the same work.

The kernel does not touch the package, so a change to the program moves the
scaled times just as it moves the raw ones.
"""

from __future__ import annotations

import statistics
import threading
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

PERIOD = 0.025
# probe CPU seconds at the speed the scaled times refer to: about the kernel's
# time on a 2-vCPU Xeon VM at 2.1 GHz under Python 3.11.7, between its fast
# (0.45 ms) and slow (0.65 ms) phases
REFERENCE_S = 0.00050
# an interval shorter than this is scaled by the probes of a window this wide
MIN_WINDOW = 0.5


def kernel():
    """Fixed pure-Python work: dict polynomial products, ints, str, Fraction."""
    a = {i: (i * 7919) % 101 - 50 for i in range(10)}
    acc = 0
    for _ in range(6):
        out = {}
        for i, x in a.items():
            for j, y in a.items():
                out[i + j] = out.get(i + j, 0) + x * y
        a = {k: v % 1000003 + (v >> 7) for k, v in out.items() if k < 14}
        acc += sum(a.values())
        acc += len("".join(sorted(str(v) for v in a.values())))
    s = Fraction(0)
    for i in range(1, 40):
        s += Fraction(1, i * i + 1)
    return acc + s.numerator % 97


class Probe:
    """Background probe thread; `start()`, then `stop()` before reading."""

    def __init__(self):
        self.times = []  # perf_counter at the middle of each probe
        self.seconds = []  # how long each probe took
        self.cpu = 0.0  # thread CPU seconds the probe used, to subtract from cpu_s
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="perfbench-probe", daemon=True)

    def start(self):
        self._thread.start()

    def stop(self):
        self._stop.set()
        self._thread.join()

    def _run(self):
        cpu0 = time.thread_time()
        while True:
            start, cpu = time.perf_counter(), time.thread_time()
            kernel()
            cpu = time.thread_time() - cpu
            self.times.append((start + time.perf_counter()) / 2)
            self.seconds.append(cpu)
            if self._stop.wait(PERIOD):
                break
        self.cpu = time.thread_time() - cpu0

    def cpu_between(self, a, b):
        """Probe CPU seconds spent in [a, b], estimated from the probe times."""
        return sum(self.seconds[bisect_left(self.times, a):bisect_right(self.times, b)])

    def scale(self, a, b):
        """REFERENCE_S over the median probe time around [a, b]."""
        if b - a < MIN_WINDOW:
            mid = (a + b) / 2
            a, b = mid - MIN_WINDOW / 2, mid + MIN_WINDOW / 2
        window = self.seconds[bisect_left(self.times, a):bisect_right(self.times, b)]
        if not window:  # no probe inside: take the nearest (there is at least one)
            i = min(bisect_left(self.times, (a + b) / 2), len(self.times) - 1)
            window = self.seconds[i:i + 1]
        return REFERENCE_S / statistics.median(window)
