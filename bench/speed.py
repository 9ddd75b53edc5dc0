"""Wall time scaled to a fixed machine speed.

The benchmark runs on machines whose cores are shared with other tenants:
the same single-threaded work can take up to twice as long from one second
to the next.  A timer signal runs a short probe of the kinds of work the
package does (Fraction, dict and small-matrix arithmetic) every
``PERIOD_S`` seconds.  A timed interval is then integrated piece by piece,
each piece scaled by how long the nearby probes took against
``REFERENCE_S``, and the probes' own time is left out.  The result reads in
seconds at the machine speed where one probe takes ``REFERENCE_S``.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

import numpy as np

PERIOD_S = 0.025
PROBE_STEPS = 120
REFERENCE_S = 0.0005
SMOOTHING = 5   # probes in the running median that sets a piece's speed


def probe() -> float:
    """Seconds for a fixed loop of Fraction, dict and small-matrix work."""
    start = time.perf_counter()
    acc, seen, m = Fraction(0), {}, np.eye(3)
    for i in range(1, PROBE_STEPS):
        acc += Fraction(1, i % 97 + 1)
        seen[i % 53] = acc
        if i % 16 == 0:
            m = m @ m
    return time.perf_counter() - start


class SpeedClock:
    """Probes the machine speed while active (a context manager); once it
    has stopped, turns wall intervals of that time into normalised seconds."""

    def __init__(self):
        self.starts: list[float] = []
        self.lengths: list[float] = []
        self.speeds: list[float] = []   # smoothed probe lengths
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        length = probe()
        self.starts.append(start)
        self.lengths.append(length)

    def __enter__(self) -> "SpeedClock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick(None, None)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)
        half = SMOOTHING // 2
        self.speeds = [
            statistics.median(self.lengths[max(0, i - half):i + half + 1])
            for i in range(len(self.lengths))]

    def normalised(self, start: float, end: float) -> float:
        """Seconds of [start, end] at the reference speed, probes excluded;
        the interval must lie between the first and the last probe."""
        speeds = self.speeds
        i = bisect.bisect_right(self.starts, start)   # first probe after start
        total, t = 0.0, start
        while i < len(self.starts) and self.starts[i] < end:
            total += (self.starts[i] - t) * REFERENCE_S / speeds[i]
            t = min(end, self.starts[i] + self.lengths[i])
            i += 1
        last = speeds[min(i, len(speeds) - 1)]
        return total + max(0.0, end - t) * REFERENCE_S / last
