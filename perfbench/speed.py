"""Host-speed probe, so that timings can be scaled to one reference speed.

The hosts this benchmark runs on change speed by up to half within a run, in
phases of seconds to minutes, and CPU time moves with wall time.  A
background thread therefore times a fixed piece of exact rational
elimination (the kind of work pvlab does) every ``interval`` seconds, by its
own CPU clock.  The main thread's CPU time over an interval is scaled by
``REFERENCE_S / probe``, with ``probe`` the mean probe time around it: the
result is the time the interval would have taken on a host where one probe
takes ``REFERENCE_S``.  CPU clocks leave out the time either thread waits
for the interpreter lock or for the processor.
"""
from __future__ import annotations

import bisect
import threading
from fractions import Fraction
from time import perf_counter, thread_time

REFERENCE_S = 1e-3
_MATRIX = [[Fraction((i * 7 + j * 13) % 11 - 5, 1 + (i + j) % 3) for j in range(11)]
           for i in range(9)]


def probe_work() -> list:
    """Gaussian elimination of a fixed 9 x 11 rational matrix, without
    normalising rows, so that entries grow as they do in pvlab's kernels."""
    m = [row[:] for row in _MATRIX]
    row = 0
    for col in range(len(m[0])):
        piv = next((r for r in range(row, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        for r in range(row + 1, len(m)):
            f = m[r][col] / m[row][col]
            m[r] = [a - f * b for a, b in zip(m[r], m[row])]
        row += 1
        if row == len(m):
            break
    return m


class SpeedProbe:
    """Runs the probe in a thread from ``__enter__`` to ``__exit__``."""

    def __init__(self, interval: float = 0.05) -> None:
        self.interval = interval
        self.starts: list[float] = []   # wall clock, perf_counter
        self.cpu: list[float] = []      # probe thread CPU seconds
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-probe", daemon=True)

    def _sample(self) -> None:
        start, c0 = perf_counter(), thread_time()
        probe_work()
        self.cpu.append(thread_time() - c0)
        self.starts.append(start)

    def _loop(self) -> None:
        self._sample()
        while not self._stop.wait(self.interval):
            self._sample()

    def __enter__(self) -> SpeedProbe:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        if not self.cpu:
            self._sample()

    def scaled(self, a: float, b: float, cpu: float) -> float:
        """``cpu`` seconds spent by the main thread between the wall-clock
        instants a and b, at the reference speed."""
        lo = bisect.bisect_left(self.starts, a - self.interval)
        hi = bisect.bisect_right(self.starts, b + self.interval)
        if lo == hi:  # no probe ran near the interval: take the closest one
            lo = min(lo, len(self.starts) - 1)
            hi = lo + 1
        return cpu * REFERENCE_S * (hi - lo) / sum(self.cpu[lo:hi])

    def median_probe(self) -> float:
        cpu = sorted(self.cpu)
        return cpu[len(cpu) // 2] if cpu else float("nan")
